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
// dequantizing segment; the f32 program applies it per row in float32,
// and the f64 plan over a whole slab (apply).
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

// apply maps op over the flat slab src into dst (src may alias dst), the
// formula the layer it was compiled from computes: Activation through
// applyElemwise, Affine and ChannelAffine one multiply-add per element.
// A ChannelAffine slab is whole samples of blockLen*len(scales)
// elements.
func (op *tailOp) apply(dst, src []float64) {
	switch op.kind {
	case tailAct:
		applyElemwise(dst, src, op.act)
	case tailAffine:
		for i, v := range src[:len(dst)] {
			dst[i] = op.scale*v + op.shift
		}
	case tailChanAffine:
		for lo := 0; lo < len(dst); lo += op.blockLen {
			b := (lo / op.blockLen) % len(op.scales)
			s, sh := op.scales[b], op.shifts[b]
			for i := lo; i < lo+op.blockLen; i++ {
				dst[i] = s*src[i] + sh
			}
		}
	}
}

// f64Plan is the float64 inference program of a network's vector
// suffix: the longest run of its last layers that compileSegments
// accepts, compiled by Network.Add. It holds the Dense layers, not their
// weights, so it serves the network both before Freeze (each segment
// packs its weights per call) and after it (each reads its layer's
// PackedF64), and it sees in-place weight writes on an unfrozen network.
type f64Plan struct {
	start   int  // index in Network.Layers of the suffix's first layer
	in, out int  // per-sample widths
	anyRank bool // a Flatten precedes the first Dense, so rank > 2 inputs fit
	prelude []tailOp
	segs    []denseSeg
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
		p := &f64Plan{start: start, in: in, out: out, prelude: prelude, segs: segs}
		for _, e := range layers[start:] {
			if _, ok := e.Layer.(*Dense); ok {
				break
			}
			if _, ok := e.Layer.(*Flatten); ok {
				p.anyRank = true
			}
		}
		for i := range p.segs {
			p.segs[i].w, p.segs[i].b = nil, nil // the layer's, read per call
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

// run computes the plan for rows samples of the flat slab x into the
// [rows, out] slab dst, keeping intermediates in the ping-pong buffers
// bufs. The prelude maps x into a buffer; each segment is one Dense
// kernel call with its tail's leading activation fused into the store,
// and the rest of its tail is mapped in place.
func (p *f64Plan) run(dst, x []float64, rows int, bufs *[2][]float64) {
	cur, slot := x, 0
	if len(p.prelude) > 0 {
		buf := grow(&bufs[0], len(x))
		for i := range p.prelude {
			p.prelude[i].apply(buf, cur)
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
		act, tail := tensor.ActIdentity, seg.tail
		if len(tail) > 0 && tail[0].kind == tailAct {
			act, tail = tail[0].act, tail[1:]
		}
		seg.d.into(out, cur, rows, act)
		for j := range tail {
			tail[j].apply(out, out)
		}
		cur = out
	}
}
