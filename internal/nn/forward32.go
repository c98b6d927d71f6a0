package nn

import (
	"fmt"
	"sync"

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
// inference-identity Dropout and Flatten). It runs the f64 plan's
// program over float32 (plan[float32]): each segment is one
// PackedF32.Into, which adds the bias after the row's sum and applies
// the tail's leading activation before or just after its store (ReLU in
// registers, the others through tensor.MapAct in float32), and the rest
// of the tail is then mapped in place in float32. The prelude runs in
// float64, fused into the input's float64 -> float32 conversion.
// Anything else (conv, pools, residual blocks) fails and the caller
// keeps the float64 path.
//
// The compiled program snapshots the network's weights: after a
// parameter update or hot reload, build a new Forward32. A Forward32 is
// safe for concurrent use; per-call state lives in pooled scratch.
type Forward32 struct {
	inDim, outDim int
	prelude       []tailOp // pre-dense elementwise ops, fused into the input conversion
	plan          plan[float32]
	scratch       sync.Pool // *f32Scratch
}

// f32Scratch is one call's state: the converted input, the float32
// output and the plan's ping-pong buffers.
type f32Scratch struct {
	x, y []float32
	bufs [2][]float32
}

// NewForward32 compiles net into a float32 inference program over flat
// [rows, InDim] inputs, converting and packing its weights once.
// Failure means "stay on float64", not a hard error.
func NewForward32(net *Network) (*Forward32, error) {
	prelude, segs, in, out, err := compileSegments(net)
	if err != nil {
		return nil, err
	}
	f := &Forward32{inDim: in, outDim: out, prelude: prelude,
		plan: newPlan(nil, segs, func(s *denseSeg) func(dst, x []float32, rows int, act tensor.Act) {
			return tensor.PackF32(toF32(s.w), toF32(s.b), s.inCols, s.outCols).Into
		})}
	f.scratch.New = func() any { return new(f32Scratch) }
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
	in, out := grow(&s.x, len(x)), grow(&s.y, len(dst))
	if len(f.prelude) == 0 {
		for i, v := range x {
			in[i] = float32(v)
		}
	} else {
		for i, v := range x {
			in[i] = float32(tailEval(f.prelude, i%f.inDim, v))
		}
	}
	f.plan.run(out, in, rows, &s.bufs)
	for i, v := range out {
		dst[i] = float64(v)
	}
	return nil
}

func toF32(src []float64) []float32 {
	out := make([]float32, len(src))
	for i, v := range src {
		out[i] = float32(v)
	}
	return out
}
