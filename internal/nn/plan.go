package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// denseSeg is one dense segment as compileSegments produces it: the
// Dense layer and its float64 weights, plus the elementwise tail up to
// the next dense layer. CalibrateI8 forwards calibration rows through
// them in float64, NewForwardI8 quantizes them, NewForward32 converts
// them to f32, and the f64 plan runs the layer itself.
type denseSeg struct {
	inCols, outCols int
	d               *Dense
	w, b            []float64
	tail            []tailOp
}

// tail op kinds.
const (
	tailAct = iota
	tailAffine
	tailChanAffine
)

// tailOp is one elementwise op of a segment tail (or of the prelude).
// The int8 program evaluates it per column in float64 — at LUT build
// time for the quantized segments, per element for the final
// dequantizing segment; a plan maps it over a whole slab in its own
// element type (applyTail).
type tailOp struct {
	kind           int
	act            tensor.Act // tailAct
	scale, shift   float64    // tailAffine
	blockLen       int        // tailChanAffine
	scales, shifts []float64
}

// tailEval applies a segment tail to value v in output column j.
func tailEval(tail []tailOp, j int, v float64) float64 {
	for i := range tail {
		op := &tail[i]
		switch op.kind {
		case tailAct:
			v = op.act.Of(v)
		case tailAffine:
			v = op.scale*v + op.shift
		case tailChanAffine:
			b := j / op.blockLen
			v = op.scales[b]*v + op.shifts[b]
		}
	}
	return v
}

// compileSegments partitions net into an elementwise prelude (layers
// before the first dense — input normalization), dense segments with
// elementwise tails — the structure calibration, both reduced-precision
// programs and the f64 plan walk, and so the one place that decides
// which layers they accept. The input width is pinned by the first
// dense layer (or an earlier ChannelAffine, which knows its own width);
// prelude ops are width-preserving, so that pin is the network's input
// width. It fails on networks outside that layer set; callers treat
// that as "stay on the wider path", not as a hard error.
func compileSegments(net *Network) ([]tailOp, []denseSeg, int, int, error) {
	if net == nil || len(net.Layers) == 0 {
		return nil, nil, 0, 0, fmt.Errorf("nn: reduced-precision path: empty network")
	}
	var prelude []tailOp
	var segs []denseSeg
	in, cols := -1, -1
	addTail := func(op tailOp) {
		if len(segs) == 0 {
			prelude = append(prelude, op)
		} else {
			segs[len(segs)-1].tail = append(segs[len(segs)-1].tail, op)
		}
	}
	for i, e := range net.Layers {
		switch l := e.Layer.(type) {
		case *Dense:
			if cols != -1 && l.In != cols {
				return nil, nil, 0, 0, fmt.Errorf("nn: reduced-precision path: layer %d (%s) wants width %d, have %d", i, l.Kind(), l.In, cols)
			}
			if in == -1 {
				in = l.In
			}
			segs = append(segs, denseSeg{inCols: l.In, outCols: l.Out, d: l,
				w: l.Weight.W.Contiguous().Data(), b: l.Bias.W.Contiguous().Data()})
			cols = l.Out
		case *Activation:
			act, err := l.kind()
			if err != nil {
				return nil, nil, 0, 0, fmt.Errorf("nn: reduced-precision path: layer %d: %w", i, err)
			}
			addTail(tailOp{kind: tailAct, act: act})
		case *Affine:
			addTail(tailOp{kind: tailAffine, scale: l.Scale, shift: l.Shift})
		case *ChannelAffine:
			if l.BlockLen <= 0 || len(l.Scales) != len(l.Shifts) {
				return nil, nil, 0, 0, fmt.Errorf("nn: reduced-precision path: layer %d (%s) misconfigured", i, l.Kind())
			}
			width := l.BlockLen * len(l.Scales)
			if cols == -1 {
				in, cols = width, width
			} else if cols != width {
				return nil, nil, 0, 0, fmt.Errorf("nn: reduced-precision path: layer %d (%s) does not fit width %d", i, l.Kind(), cols)
			}
			addTail(tailOp{kind: tailChanAffine,
				blockLen: l.BlockLen, scales: l.Scales, shifts: l.Shifts})
		case *Dropout, *Flatten:
			// Identity at inference on [rows, cols] vectors.
		default:
			return nil, nil, 0, 0, fmt.Errorf("nn: reduced-precision path does not support layer %d (%s)", i, e.Layer.Kind())
		}
	}
	if len(segs) == 0 {
		return nil, nil, 0, 0, fmt.Errorf("nn: reduced-precision path: network has no dense layers")
	}
	return prelude, segs, in, cols, nil
}

// applyTail maps op over the flat slab src into dst (src may alias
// dst) in E, the formula the layer it was compiled from computes:
// Activation through applyElemwise, Affine and ChannelAffine one
// multiply-add per element with their factors rounded to E. A
// ChannelAffine slab is whole samples of blockLen*len(scales) elements.
func applyTail[E float](op *tailOp, dst, src []E) {
	switch op.kind {
	case tailAct:
		applyElemwise(dst, src, op.act)
	case tailAffine:
		scale, shift := E(op.scale), E(op.shift)
		for i, v := range src[:len(dst)] {
			dst[i] = scale*v + shift
		}
	case tailChanAffine:
		for lo := 0; lo < len(dst); lo += op.blockLen {
			b := (lo / op.blockLen) % len(op.scales)
			scale, shift := E(op.scales[b]), E(op.shifts[b])
			for i := lo; i < lo+op.blockLen; i++ {
				dst[i] = scale*src[i] + shift
			}
		}
	}
}

// float is the element type of a plan.
type float interface{ float32 | float64 }

// segment is one dense segment of a plan: its output width, its kernel
// call (dst = act(x @ W + b) over rows samples), the leading activation
// of its tail, which the call fuses into its store, and the rest of the
// tail, mapped in place after it.
type segment[E float] struct {
	outCols int
	into    func(dst, x []E, rows int, act tensor.Act)
	act     tensor.Act
	tail    []tailOp
}

// plan is an inference program over flat slabs of E: an elementwise
// prelude, then dense segments. The f64 plan and Forward32 each run one.
type plan[E float] struct {
	prelude []tailOp
	segs    []segment[E]
}

// newPlan builds a plan from compileSegments' prelude and segments;
// into returns each segment's kernel call.
func newPlan[E float](prelude []tailOp, segs []denseSeg, into func(*denseSeg) func(dst, x []E, rows int, act tensor.Act)) plan[E] {
	p := plan[E]{prelude: prelude}
	for i := range segs {
		seg := segment[E]{outCols: segs[i].outCols, into: into(&segs[i]), tail: segs[i].tail}
		if len(seg.tail) > 0 && seg.tail[0].kind == tailAct {
			seg.act, seg.tail = seg.tail[0].act, seg.tail[1:]
		}
		p.segs = append(p.segs, seg)
	}
	return p
}

// run computes the plan for rows samples of the flat slab x into the
// [rows, out] slab dst, keeping intermediates in the ping-pong buffers
// bufs. The prelude maps x into a buffer; each segment is one kernel
// call with its leading activation fused, and the rest of its tail is
// mapped in place.
func (p *plan[E]) run(dst, x []E, rows int, bufs *[2][]E) {
	cur, slot := x, 0
	if len(p.prelude) > 0 {
		buf := grow(&bufs[0], len(x))
		for i := range p.prelude {
			applyTail(&p.prelude[i], buf, cur)
			cur = buf
		}
		slot = 1
	}
	for i := range p.segs {
		seg := &p.segs[i]
		out := dst
		if i < len(p.segs)-1 {
			out = grow(&bufs[slot], rows*seg.outCols)
			slot ^= 1
		}
		seg.into(out, cur, rows, seg.act)
		for j := range seg.tail {
			applyTail(&seg.tail[j], out, out)
		}
		cur = out
	}
}

// f64Plan is the float64 inference program of a network's vector
// suffix: the longest run of its last layers that compileSegments
// accepts, compiled by Network.Add. Its kernel calls are the Dense
// layers' own (Dense.into), not copies of their weights, so it serves
// the network both before Freeze (each call packs its weights) and after
// it (each reads its layer's PackedF64), and it sees in-place weight
// writes on an unfrozen network.
type f64Plan struct {
	plan[float64]
	start   int  // index in Network.Layers of the suffix's first layer
	in, out int  // per-sample widths
	anyRank bool // a Flatten precedes the first Dense, so rank > 2 inputs fit
}

// compilePlan compiles the longest suffix of layers that compileSegments
// accepts, or returns nil when none does (no Dense after the last conv,
// pool or residual layer).
func compilePlan(layers []*layerEntry) *f64Plan {
	for start := range layers {
		prelude, segs, in, out, err := compileSegments(&Network{Layers: layers[start:]})
		if err != nil {
			continue
		}
		p := &f64Plan{start: start, in: in, out: out,
			plan: newPlan(prelude, segs, func(s *denseSeg) func(dst, x []float64, rows int, act tensor.Act) {
				return s.d.into
			})}
		for _, e := range layers[start:] {
			if _, ok := e.Layer.(*Dense); ok {
				break
			}
			if _, ok := e.Layer.(*Flatten); ok {
				p.anyRank = true
			}
		}
		return p
	}
	return nil
}

// fits reports whether the plan takes x, the output of the layers
// before it: the layer walk would accept it, and the plan computes the
// same values from its flat data. Any other input walks the layers.
func (p *f64Plan) fits(x *tensor.Tensor) bool {
	if r := x.Rank(); r < 2 || r > 2 && !p.anyRank {
		return false
	}
	return sampleLen(x) == p.in
}

// sampleLen is the element count of one sample of the batch x: the
// product of its dims after the first.
func sampleLen(x *tensor.Tensor) int {
	n := 1
	for i := 1; i < x.Rank(); i++ {
		n *= x.Dim(i)
	}
	return n
}
