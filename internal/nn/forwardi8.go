package nn

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/tensor"
)

// ForwardI8 is an int8 inference program compiled from a Network and a
// QuantCalib once: dense weights are quantized per output channel
// (symmetric, scale = maxabs/127) and packed three 21-bit lanes per
// 64-bit word (tensor.PackedInt8 — 8/3 bytes per weight resident, two
// thirds of the f32 path; the int8 slab is not kept), activations are
// quantized per layer
// from the calibrated ranges, and each segment then runs as one
// row-fused kernel: tensor.PackedInt8.MatMulRows produces a row's exact
// int32 accumulator and the segment's epilogue consumes it while it is
// still in L1, inside the GEMM's own parallel row split — no
// [rows, n] accumulator slab, no serial pass.
//
// Two things make the path faster than f32 rather than merely smaller.
// The kernel skips activations equal to the segment's centre, the input
// zero point clamped to int8: an asymmetric encoding stores a real 0.0
// as the zero-point code, not as 0, so this is what restores the skip
// of the exact zeros ReLU produces that the float kernels get for free
// (sum((q-c)*w) = sum(q*w) - c*colSum is exact in integers, so the
// centre is purely a work-saving choice and any zero point, including
// one a one-sided calibration range pushes outside int8, is handled by
// the same code). And the fused epilogue collapses requantization,
// bias, zero-point correction and the entire elementwise tail
// (activation + affines) into one per-column multiply-add followed by a
// table lookup, so tanh/sigmoid layers cost a table index per element
// instead of a float64 transcendental. The lookup is indexed by an
// int16 pre-activation code — 64 Ki entries — because 8 bits across a
// wide pre-activation range steps tanh's active region too coarsely to
// hold the accuracy gate; 16 bits make the table's own error negligible
// next to the i8 activation encoding. The final segment dequantizes
// straight to float64 through the exact tail math, so output resolution
// is not limited to 8 bits.
//
// Accumulation is exact for dense layers up to tensor.MaxInt8Depth
// (65536) inputs wide; NewForwardI8 refuses wider ones.
//
// It compiles through compileSegments, as Forward32 does, so both
// reduced-precision programs accept the same vector layer set (Dense,
// activations, Affine, ChannelAffine, inference-identity Dropout and
// Flatten). The compiled program snapshots the weights (rebuild after a
// reload) and is safe for concurrent use — per-call state lives in
// pooled scratch. Elementwise layers BEFORE the first dense layer (the
// input-normalization idiom: an Affine or ChannelAffine scaling raw
// features into model range) compile into a float64 prelude fused into
// the input-quantization loop, so normalized models — the ones whose
// activation ranges actually suit 8-bit encodings — quantize too, and
// the calibrated input range is the post-normalization one.
type ForwardI8 struct {
	inDim, outDim int
	inScale       float64 // input quantization: q = round(v/inScale) + inZero
	inZero        int32
	prelude       []tailOp // pre-dense elementwise ops, fused into quantization
	segs          []segI8
	scratch       sync.Pool // *i8Scratch
}

// denseSeg is one dense segment as compileSegments produces it: the
// float64 weights plus the elementwise tail up to the next dense layer.
// CalibrateI8 forwards calibration rows through them in float64,
// NewForwardI8 quantizes them and NewForward32 converts them to f32.
type denseSeg struct {
	inCols, outCols int
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
// dequantizing segment; the f32 program applies it per row in float32.
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

// segI8 is one compiled segment: packed quantized weights, the code the
// kernel skips, and the fused epilogue. Non-final segments requantize
// the i32 accumulator to an int16 pre-activation code (one multiply-add
// per element — bias and zero-point correction are folded into off) and
// map it through lut to the next segment's input encoding.
// Column-dependent tails (ChannelAffine — one table per column would
// cost 64 KiB each) and the final segment skip the table: they
// dequantize the accumulator and run the tail exactly, the final
// segment into float64 output.
type segI8 struct {
	inCols, outCols int
	w               *tensor.PackedInt8 // [in, out], per-column symmetric
	centre          int8               // input zero point clamped to int8

	// Table epilogue (uniform non-final tails):
	// out = lut[clamp16(round(mult[j]*acc + off[j])) + 32768].
	mult []float32
	off  []float32
	lut  []int8

	// Exact epilogue (final and column-dependent segments):
	// y = tail(deqScale[j]*acc + deqOff[j]), requantized via
	// outInvScale/outZero unless final.
	final       bool
	perCol      bool
	deqScale    []float64
	deqOff      []float64
	outInvScale float64
	outZero     int32
	tail        []tailOp
}

// i8Scratch is one Forward call's state: the ping-pong activation
// slabs, and the segment in flight with its destinations, which is what
// Int8Row — the epilogue the row kernel calls back — works from.
type i8Scratch struct {
	q    [2][]int8
	seg  *segI8
	next []int8    // non-final segments: the next segment's input codes
	dst  []float64 // final segment: the caller's output
}

// compileSegments partitions net into an elementwise prelude (layers
// before the first dense — input normalization), dense segments with
// elementwise tails — the structure calibration and both
// reduced-precision programs walk, and so the one place that decides
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
			segs = append(segs, denseSeg{inCols: l.In, outCols: l.Out,
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

// qparams is one activation encoding: real = scale * (q - zero).
type qparams struct {
	scale float64
	zero  int32
}

// rangeQParams derives the affine encoding covering r with 256 codes.
func rangeQParams(r QuantRange) (qparams, error) {
	if math.IsNaN(r.Lo) || math.IsNaN(r.Hi) || math.IsInf(r.Lo, 0) || math.IsInf(r.Hi, 0) || r.Lo > r.Hi {
		return qparams{}, fmt.Errorf("nn: i8 path: unusable calibration range [%g, %g]", r.Lo, r.Hi)
	}
	span := r.Hi - r.Lo
	if span <= 0 {
		// A constant activation still needs a nonzero scale; resolution
		// around the constant is all that matters.
		span = math.Max(math.Abs(r.Lo)*1e-3, 1e-6)
	}
	s := span / 255
	z := int32(math.Round(-128 - r.Lo/s))
	return qparams{scale: s, zero: z}, nil
}

// rangeQParams16 derives the affine encoding covering r with 65536
// codes — the pre-activation resolution behind the tail LUT.
func rangeQParams16(r QuantRange) (qparams, error) {
	q, err := rangeQParams(r)
	if err != nil {
		return qparams{}, err
	}
	span := (r.Hi - r.Lo)
	if span <= 0 {
		span = q.scale * 255 // the widened degenerate span
	}
	s := span / 65535
	z := int32(math.Round(-32768 - r.Lo/s))
	return qparams{scale: s, zero: z}, nil
}

// NewForwardI8 compiles net into an int8 inference program under the
// fitted calibration, quantizing its weights once. The calibration must
// have been fitted on exactly these weights (QuantCalib.Weights), which
// also pins the geometry and segment count. Failure means "stay on the
// wider path".
func NewForwardI8(net *Network, calib *QuantCalib) (*ForwardI8, error) {
	if calib == nil {
		return nil, fmt.Errorf("nn: i8 path: nil calibration")
	}
	sum, err := net.Sum()
	if err != nil {
		return nil, err
	}
	if sum != calib.Weights {
		return nil, fmt.Errorf("nn: i8 path: sidecar fitted for weights %x, model is %x", calib.Weights[:6], sum[:6])
	}
	prelude, segs, in, out, err := compileSegments(net)
	if err != nil {
		return nil, err
	}
	if in != calib.InDim || out != calib.OutDim {
		return nil, fmt.Errorf("nn: i8 path: model is %d -> %d, calibration fitted for %d -> %d",
			in, out, calib.InDim, calib.OutDim)
	}
	if len(segs) != calib.Segments() {
		return nil, fmt.Errorf("nn: i8 path: model has %d dense segments, calibration has %d",
			len(segs), calib.Segments())
	}
	f := &ForwardI8{inDim: in, outDim: out, prelude: prelude}
	f.scratch.New = func() any { return new(i8Scratch) }
	inQ, err := rangeQParams(calib.Bounds[0])
	if err != nil {
		return nil, err
	}
	f.inScale, f.inZero = inQ.scale, inQ.zero
	for s := range segs {
		seg := &segs[s]
		q := segI8{inCols: seg.inCols, outCols: seg.outCols, final: s == len(segs)-1}
		// Per-output-channel symmetric weight quantization, plus the
		// column sums the zero-point correction needs.
		qw := make([]int8, len(seg.w))
		sw := make([]float64, seg.outCols)
		colSum := make([]int32, seg.outCols)
		for j := 0; j < seg.outCols; j++ {
			m := 0.0
			for k := 0; k < seg.inCols; k++ {
				v := seg.w[k*seg.outCols+j]
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("nn: i8 path: non-finite weight in segment %d", s)
				}
				if a := math.Abs(v); a > m {
					m = a
				}
			}
			if m == 0 {
				m = 1 // all-zero column quantizes to zeros under any scale
			}
			sw[j] = m / 127
			for k := 0; k < seg.inCols; k++ {
				qw[k*seg.outCols+j] = roundSatI8(seg.w[k*seg.outCols+j] / sw[j])
				colSum[j] += int32(qw[k*seg.outCols+j])
			}
		}
		if q.w, err = tensor.PackInt8(qw, seg.inCols, seg.outCols); err != nil {
			return nil, fmt.Errorf("nn: i8 path: segment %d: %w", s, err)
		}
		segIn, err := rangeQParams(calib.Bounds[s])
		if err != nil {
			return nil, err
		}
		// A range that excludes 0 puts the zero point outside int8; the
		// kernel centres on the nearest code, the epilogue keeps the true
		// zero point.
		q.centre = int8(min(max(segIn.zero, -128), 127))
		for _, op := range seg.tail {
			if op.kind == tailChanAffine {
				q.perCol = true
			}
		}
		if q.final || q.perCol {
			// Exact epilogue:
			// real = segIn.scale*sw[j]*(acc - zin*colSum[j]) + b[j],
			// with the correction folded into the offset.
			q.deqScale = make([]float64, seg.outCols)
			q.deqOff = make([]float64, seg.outCols)
			for j := 0; j < seg.outCols; j++ {
				q.deqScale[j] = segIn.scale * sw[j]
				q.deqOff[j] = seg.b[j] - q.deqScale[j]*float64(segIn.zero)*float64(colSum[j])
			}
			q.tail = seg.tail
			if !q.final {
				outQ, err := rangeQParams(calib.Bounds[s+1])
				if err != nil {
					return nil, err
				}
				q.outInvScale, q.outZero = 1/outQ.scale, outQ.zero
			}
			f.segs = append(f.segs, q)
			continue
		}
		preQ, err := rangeQParams16(calib.Preacts[s])
		if err != nil {
			return nil, err
		}
		outQ, err := rangeQParams(calib.Bounds[s+1])
		if err != nil {
			return nil, err
		}
		q.mult = make([]float32, seg.outCols)
		q.off = make([]float32, seg.outCols)
		for j := 0; j < seg.outCols; j++ {
			m := segIn.scale * sw[j] / preQ.scale
			q.mult[j] = float32(m)
			q.off[j] = float32(seg.b[j]/preQ.scale + float64(preQ.zero) - m*float64(segIn.zero)*float64(colSum[j]))
		}
		// The tail LUT: dequantize each int16 pre-activation code, run
		// the exact tail, requantize into the next segment's encoding.
		q.lut = make([]int8, 1<<16)
		for code := -32768; code <= 32767; code++ {
			y := preQ.scale * float64(int32(code)-preQ.zero)
			v := tailEval(seg.tail, 0, y)
			q.lut[code+32768] = roundSatI8(v*1/outQ.scale + float64(outQ.zero))
		}
		f.segs = append(f.segs, q)
	}
	return f, nil
}

// InDim returns the per-sample input width.
func (f *ForwardI8) InDim() int { return f.inDim }

// OutDim returns the per-sample output width.
func (f *ForwardI8) OutDim() int { return f.outDim }

// Forward runs the compiled program on a row-major [rows, InDim]
// float64 slab, writing the [rows, OutDim] result into dst. The input
// is quantized once, every hidden segment stays int8, and the final
// segment dequantizes into dst. Intermediates live in pooled buffers;
// steady state allocates nothing.
func (f *ForwardI8) Forward(dst, x []float64, rows int) error {
	if rows < 0 || len(x) != rows*f.inDim || len(dst) != rows*f.outDim {
		return fmt.Errorf("nn: i8 forward input %d -> dst %d floats, want [%d, %d] -> [%d, %d]",
			len(x), len(dst), rows, f.inDim, rows, f.outDim)
	}
	s := f.scratch.Get().(*i8Scratch)
	s.dst = dst
	defer func() {
		s.dst = nil // the pool must not pin the caller's slab
		f.scratch.Put(s)
	}()
	if cap(s.q[0]) < len(x) {
		s.q[0] = make([]int8, len(x))
	}
	cur := s.q[0][:len(x)]
	inv := 1 / f.inScale
	zf := float64(f.inZero)
	if len(f.prelude) == 0 {
		for i, v := range x {
			cur[i] = roundSatI8(v*inv + zf)
		}
	} else {
		// Normalization prelude fused into quantization: the input range
		// was calibrated on post-prelude values.
		for i, v := range x {
			cur[i] = roundSatI8(tailEval(f.prelude, i%f.inDim, v)*inv + zf)
		}
	}
	slot := 1
	for si := range f.segs {
		seg := &f.segs[si]
		s.seg, s.next = seg, nil
		if !seg.final {
			need := rows * seg.outCols
			if cap(s.q[slot]) < need {
				s.q[slot] = make([]int8, need)
			}
			s.next = s.q[slot][:need]
		}
		if err := seg.w.MatMulRows(cur, rows, seg.centre, s); err != nil {
			return err
		}
		cur = s.next
		slot ^= 1
	}
	return nil
}

// Int8Row is the fused epilogue: the row kernel hands over row i's
// exact int32 accumulator and it becomes the next segment's input codes
// (table or exact tail) or, on the final segment, the float64 output.
// It runs concurrently for different rows and only reads s.
func (s *i8Scratch) Int8Row(i int, acc []int32) {
	seg := s.seg
	cols := len(acc)
	if seg.final {
		out := s.dst[i*cols : (i+1)*cols]
		for j, a := range acc {
			out[j] = tailEval(seg.tail, j, seg.deqScale[j]*float64(a)+seg.deqOff[j])
		}
		return
	}
	out := s.next[i*cols : (i+1)*cols]
	if seg.perCol {
		zf := float64(seg.outZero)
		for j, a := range acc {
			v := tailEval(seg.tail, j, seg.deqScale[j]*float64(a)+seg.deqOff[j])
			out[j] = roundSatI8(v*seg.outInvScale + zf)
		}
		return
	}
	// A uint16 index into the fixed-size table needs no bounds check:
	// code qp sits at qp+32768, which is uint16(qp) with its top bit
	// flipped.
	lut, mult, off := (*[1 << 16]int8)(seg.lut), seg.mult[:cols], seg.off[:cols]
	for j, a := range acc {
		qp := roundSatI16f32(mult[j]*float32(a) + off[j])
		out[j] = lut[uint16(qp)^0x8000]
	}
}

// roundSatI8 rounds half away from zero and saturates to int8. It adds
// copysign(0.5, v) — 0.5 with v's sign bit ORed in — rather than
// branching on the sign, which pre-activations of either sign would
// mispredict; v-0.5 and v+(-0.5) are the same IEEE sum, so the result
// matches the branchy form on every input, ±0 and NaN included.
func roundSatI8(v float64) int8 {
	v += math.Float64frombits(math.Float64bits(v)&(1<<63) | math.Float64bits(0.5))
	i := int32(v)
	if i > 127 {
		return 127
	}
	if i < -128 {
		return -128
	}
	return int8(i)
}

// roundSatI16f32 rounds half away from zero and saturates to int16 —
// the f32 requant step that indexes the tail LUT — adding
// copysign(0.5, v) like roundSatI8.
func roundSatI16f32(v float32) int16 {
	v += math.Float32frombits(math.Float32bits(v)&(1<<31) | math.Float32bits(0.5))
	i := int32(v)
	if i > 32767 {
		return 32767
	}
	if i < -32768 {
		return -32768
	}
	return int16(i)
}
