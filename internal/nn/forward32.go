package nn

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Forward32 is a single-precision inference program compiled from a
// Network once: each dense segment's weights and bias are converted to
// float32 and packed into a tensor.PackedF32 at construction, and
// batches then run in float32 — half the memory traffic and twice the
// SIMD lanes of the float64 path, with no per-batch conversion of the
// model. It exists for the serving hot path (hpacml.LocalEngine's f32
// option); training and the default inference path stay float64.
//
// It compiles through compileSegments, the walk ForwardI8 and
// CalibrateI8 share, so it accepts exactly the int8 program's vector
// layer set: an elementwise prelude (input normalization), then Dense
// segments with elementwise tails (activations, Affine, ChannelAffine,
// inference-identity Dropout and Flatten). Each segment is one
// PackedF32.Into, which adds the bias after the row's sum and applies a
// leading ReLU in registers before its store; the rest of the tail is
// then mapped in place in float32. The prelude runs in float64, fused
// into the input's float64 -> float32 conversion. Anything else (conv,
// pools, residual blocks) fails and the caller keeps the float64 path.
//
// The compiled program snapshots the network's weights: after a
// parameter update or hot reload, build a new Forward32. A Forward32 is
// safe for concurrent use; per-call state lives in pooled scratch.
type Forward32 struct {
	inDim, outDim int
	prelude       []tailOp // pre-dense elementwise ops, fused into the input conversion
	segs          []seg32
	scratch       sync.Pool // *f32Scratch
}

// seg32 is one compiled dense segment: its packed [in, out] float32
// weights and bias, whether its tail starts with a ReLU the kernel
// fuses, and the rest of the tail, which the epilogue maps.
type seg32 struct {
	inCols, outCols int
	w               *tensor.PackedF32
	relu            bool
	tail            []tailOp
}

// f32Scratch is one call's state: the converted input and the
// ping-pong segment outputs.
type f32Scratch struct {
	bufs [3][]float32
}

// NewForward32 compiles net into a float32 inference program over flat
// [rows, InDim] inputs, converting and packing its weights once.
// Failure means "stay on float64", not a hard error.
func NewForward32(net *Network) (*Forward32, error) {
	prelude, segs, in, out, err := compileSegments(net)
	if err != nil {
		return nil, err
	}
	f := &Forward32{inDim: in, outDim: out, prelude: prelude}
	f.scratch.New = func() any { return new(f32Scratch) }
	for _, s := range segs {
		seg := seg32{inCols: s.inCols, outCols: s.outCols,
			w: tensor.PackF32(toF32(s.w), toF32(s.b), s.inCols, s.outCols), tail: s.tail}
		if len(seg.tail) > 0 && seg.tail[0].kind == tailAct && seg.tail[0].act == tensor.ActReLU {
			seg.relu, seg.tail = true, seg.tail[1:]
		}
		f.segs = append(f.segs, seg)
	}
	return f, nil
}

// InDim returns the per-sample input width.
func (f *Forward32) InDim() int { return f.inDim }

// OutDim returns the per-sample output width.
func (f *Forward32) OutDim() int { return f.outDim }

// ForwardFloat64 runs the compiled program on a row-major [rows, InDim]
// float64 slab, writing the [rows, OutDim] result into dst: the input
// is converted to float32 once (through the prelude), every segment
// runs in single precision, and the result is widened into dst. This is
// the seam the engine layer uses — region staging tensors stay float64,
// the compute does not. Steady state allocates nothing.
func (f *Forward32) ForwardFloat64(dst, x []float64, rows int) error {
	if rows < 0 || len(x) != rows*f.inDim || len(dst) != rows*f.outDim {
		return fmt.Errorf("nn: f32 forward input %d -> dst %d floats, want [%d, %d] -> [%d, %d]",
			len(x), len(dst), rows, f.inDim, rows, f.outDim)
	}
	s := f.scratch.Get().(*f32Scratch)
	defer f.scratch.Put(s)
	cur := grow(&s.bufs[0], len(x))
	if len(f.prelude) == 0 {
		for i, v := range x {
			cur[i] = float32(v)
		}
	} else {
		for i, v := range x {
			cur[i] = float32(tailEval(f.prelude, i%f.inDim, v))
		}
	}
	for i := range f.segs {
		seg := &f.segs[i]
		out := grow(&s.bufs[1+i%2], rows*seg.outCols)
		seg.w.Into(out, cur, rows, seg.relu)
		seg.epilogue(out, rows)
		cur = out
	}
	for i, v := range cur {
		dst[i] = float64(v)
	}
	return nil
}

// epilogue applies the tail the kernel does not fuse to each row of the
// [rows, outCols] slab y in place, splitting rows across workers once
// the slab reaches elemwiseParMin elements.
func (seg *seg32) epilogue(y []float32, rows int) {
	if len(seg.tail) == 0 {
		return
	}
	body := func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row := y[r*seg.outCols : (r+1)*seg.outCols]
			for i := range seg.tail {
				tailRow32(&seg.tail[i], row)
			}
		}
	}
	if len(y) < elemwiseParMin {
		body(0, rows)
		return
	}
	parallel.ForRange(rows, body)
}

// tailRow32 applies one tail op to an output row in float32, one plain
// loop per kind. relu and leakyrelu stay in f32; tanh and sigmoid route
// through the float64 stdlib transcendentals per element.
func tailRow32(op *tailOp, row []float32) {
	switch op.kind {
	case tailAct:
		switch op.act {
		case tensor.ActReLU:
			for j, v := range row {
				if !(v > 0) {
					row[j] = 0
				}
			}
		case tensor.ActLeakyReLU:
			for j, v := range row {
				if !(v > 0) {
					row[j] = 0.01 * v
				}
			}
		case tensor.ActTanh:
			for j, v := range row {
				row[j] = float32(math.Tanh(float64(v)))
			}
		case tensor.ActSigmoid:
			for j, v := range row {
				row[j] = float32(1 / (1 + math.Exp(float64(-v))))
			}
		}
	case tailAffine:
		scale, shift := float32(op.scale), float32(op.shift)
		for j, v := range row {
			row[j] = scale*v + shift
		}
	case tailChanAffine:
		for j, v := range row {
			b := j / op.blockLen
			row[j] = float32(op.scales[b])*v + float32(op.shifts[b])
		}
	}
}

func toF32(src []float64) []float32 {
	out := make([]float32, len(src))
	for i, v := range src {
		out[i] = float32(v)
	}
	return out
}
