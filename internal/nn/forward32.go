package nn

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Forward32 is a single-precision inference program compiled from a
// Network once: weights and biases are converted to flat float32 slabs
// at construction, and batches then run start-to-finish in float32 —
// half the memory traffic and twice the SIMD lanes of the float64 path,
// with no per-batch conversion of the model. It exists for the serving
// hot path (hpacml.LocalEngine's f32 option); training and the default
// inference path stay float64.
//
// The compiled program snapshots the network's weights: after a
// parameter update or hot reload, build a new Forward32. It compiles
// Dense, activations, Affine, ChannelAffine, Conv1D, Conv2D, MaxPool1D,
// MaxPool2D, and the inference-identity Dropout and Flatten; anything
// else (residual blocks) fails and the caller keeps the float64 path. A
// Forward32 is safe for concurrent use; per-call state lives in pooled
// scratch.
type Forward32 struct {
	inDim, outDim int
	ops           []op32
	scratch       sync.Pool // *f32Scratch
	conv          sync.Pool // *convScratch32
}

// op32 kinds.
const (
	op32Dense = iota
	op32Act
	op32Affine
	op32ChanAffine
	op32Conv1
	op32Conv2
	op32Pool1
	op32Pool2
)

type op32 struct {
	kind           int
	inCols         int
	outCols        int
	w, b           []float32 // dense: [in, out] weights, [out] bias
	fn             string    // activation kind
	scale, shift   float32   // affine
	blockLen       int       // channel affine
	scales, shifts []float32
	conv           *conv32 // conv/pool geometry
}

type f32Scratch struct {
	bufs [2][]float32
	// aux holds the conv im2col patch matrix and pre-transpose output;
	// unused (never allocated) by pure-MLP programs.
	aux [2][]float32
}

type convScratch32 struct {
	in, out []float32
}

// NewForward32 compiles net into a float32 inference program for inputs
// whose per-sample shape is sample, converting its weights once. With
// no sample it compiles for VectorIO's [in], the shape of a vector
// model (MLP); conv models need their sample shape, which the model
// file does not carry. The full shape is threaded through every layer
// (validated by the same OutShape methods the float64 path uses), so a
// program is valid only for that sample shape: Conv1D becomes f32
// im2col + MatMulInto32 against a kernel transposed at compile time, Conv2D a
// direct cross-correlation, and the pools windowed maxima. All layouts
// are channel-major and contiguous, so Flatten stays an identity and
// the program runs on flat [rows, InDim] slabs. Failure means "stay on
// float64", not a hard error.
func NewForward32(net *Network, sample ...int) (*Forward32, error) {
	if len(sample) == 0 {
		in, _, err := net.VectorIO()
		if err != nil {
			return nil, fmt.Errorf("nn: f32 path: %w", err)
		}
		sample = []int{in}
	}
	for _, d := range sample {
		if d <= 0 {
			return nil, fmt.Errorf("nn: f32 path: bad sample shape %v", sample)
		}
	}
	var err error
	f := &Forward32{inDim: tensor.NumElements(sample)}
	f.scratch.New = func() any { return new(f32Scratch) }
	f.conv.New = func() any { return new(convScratch32) }
	shape := sample
	for i, e := range net.Layers {
		in := shape
		if shape, err = e.Layer.OutShape(in); err != nil {
			return nil, fmt.Errorf("nn: f32 path: layer %d: %w", i, err)
		}
		op := op32{inCols: tensor.NumElements(in), outCols: tensor.NumElements(shape)}
		switch l := e.Layer.(type) {
		case *Dense:
			op.kind, op.w, op.b = op32Dense, toF32(l.Weight.W.Contiguous().Data()), toF32(l.Bias.W.Contiguous().Data())
		case *Activation:
			if !validActivation(l.Fn) {
				return nil, fmt.Errorf("nn: f32 path: layer %d: unknown activation %q", i, l.Fn)
			}
			op.kind, op.fn = op32Act, l.Fn
		case *Affine:
			op.kind, op.scale, op.shift = op32Affine, float32(l.Scale), float32(l.Shift)
		case *ChannelAffine:
			// OutShape already validated the width against the blocks.
			op.kind, op.blockLen, op.scales, op.shifts = op32ChanAffine, l.BlockLen, toF32(l.Scales), toF32(l.Shifts)
		case *Dropout, *Flatten:
			continue // identity on the contiguous channel-major slab
		case *Conv1D:
			op.kind, op.conv = op32Conv1, newConv1D32(l, in, shape)
		case *Conv2D:
			op.kind, op.conv = op32Conv2, &conv32{inC: l.InC, inH: in[1], inW: in[2], outC: l.OutC,
				outH: shape[1], outW: shape[2], k: l.KH, kw: l.KW, stride: l.Stride,
				wd: toF32(l.Weight.W.Contiguous().Data()), b: toF32(l.Bias.W.Contiguous().Data())}
		case *MaxPool1D:
			op.kind, op.conv = op32Pool1, &conv32{inC: in[0], inL: in[1], outL: shape[1], k: l.K}
		case *MaxPool2D:
			op.kind, op.conv = op32Pool2, &conv32{inC: in[0], inH: in[1], inW: in[2],
				outH: shape[1], outW: shape[2], k: l.K}
		default:
			return nil, fmt.Errorf("nn: f32 path does not support layer %d (%s)", i, e.Layer.Kind())
		}
		f.ops = append(f.ops, op)
	}
	f.outDim = tensor.NumElements(shape)
	if len(f.ops) == 0 {
		return nil, fmt.Errorf("nn: f32 path: network has no compilable ops")
	}
	return f, nil
}

// InDim returns the per-sample input width.
func (f *Forward32) InDim() int { return f.inDim }

// OutDim returns the per-sample output width.
func (f *Forward32) OutDim() int { return f.outDim }

// Forward runs the compiled program on a row-major [rows, InDim] f32
// slab, writing the [rows, OutDim] result into dst. Intermediates live
// in pooled ping-pong buffers; steady state allocates nothing.
func (f *Forward32) Forward(dst, x []float32, rows int) error {
	if rows < 0 || len(x) != rows*f.inDim {
		return fmt.Errorf("nn: f32 forward input %d floats, want [%d, %d]", len(x), rows, f.inDim)
	}
	if len(dst) != rows*f.outDim {
		return fmt.Errorf("nn: f32 forward dst %d floats, want [%d, %d]", len(dst), rows, f.outDim)
	}
	s := f.scratch.Get().(*f32Scratch)
	defer f.scratch.Put(s)
	cur := x
	slot := 0
	for i := range f.ops {
		op := &f.ops[i]
		out := dst
		if i < len(f.ops)-1 {
			need := rows * op.outCols
			if cap(s.bufs[slot]) < need {
				s.bufs[slot] = make([]float32, need)
			}
			out = s.bufs[slot][:need]
			slot ^= 1
		}
		if err := op.run(out, cur, rows, s); err != nil {
			return err
		}
		cur = out
	}
	return nil
}

// ForwardFloat64 is Forward with float64 staging on both ends: the
// input slab is converted to f32 once, the batch runs in single
// precision, and the result is widened into dst. This is the seam the
// engine layer uses — region staging tensors stay float64, the compute
// does not.
func (f *Forward32) ForwardFloat64(dst, x []float64, rows int) error {
	if rows < 0 || len(x) != rows*f.inDim || len(dst) != rows*f.outDim {
		return fmt.Errorf("nn: f32 forward input %d -> dst %d floats, want [%d, %d] -> [%d, %d]",
			len(x), len(dst), rows, f.inDim, rows, f.outDim)
	}
	cs := f.conv.Get().(*convScratch32)
	defer f.conv.Put(cs)
	if cap(cs.in) < len(x) {
		cs.in = make([]float32, len(x))
	}
	cs.in = cs.in[:len(x)]
	for i, v := range x {
		cs.in[i] = float32(v)
	}
	if cap(cs.out) < len(dst) {
		cs.out = make([]float32, len(dst))
	}
	cs.out = cs.out[:len(dst)]
	if err := f.Forward(cs.out, cs.in, rows); err != nil {
		return err
	}
	for i, v := range cs.out {
		dst[i] = float64(v)
	}
	return nil
}

func (op *op32) run(dst, x []float32, rows int, s *f32Scratch) error {
	switch op.kind {
	case op32Dense:
		if err := tensor.MatMulInto32(dst, x, op.w, rows, op.inCols, op.outCols); err != nil {
			return err
		}
		addBias32(dst, op.b, rows, op.outCols)
	case op32Act:
		applyElemwise32(dst, x, op.fn)
	case op32Affine:
		for i, v := range x {
			dst[i] = op.scale*v + op.shift
		}
	case op32ChanAffine:
		per := op.inCols
		for i, v := range x {
			b := (i % per) / op.blockLen
			dst[i] = op.scales[b]*v + op.shifts[b]
		}
	case op32Conv1:
		return op.conv.runConv1(dst, x, rows, s)
	case op32Conv2:
		op.conv.runConv2(dst, x, rows)
	case op32Pool1:
		op.conv.runPool1(dst, x, rows)
	case op32Pool2:
		op.conv.runPool2(dst, x, rows)
	}
	return nil
}

func addBias32(dst, bias []float32, rows, cols int) {
	for r := 0; r < rows; r++ {
		row := dst[r*cols : (r+1)*cols]
		for j := range row {
			row[j] += bias[j]
		}
	}
}

// applyElemwise32 maps the activation over x into dst (which may alias
// x), mirroring applyElemwise's serial/parallel split. relu and
// leakyrelu stay in f32; tanh and sigmoid route through the float64
// stdlib transcendentals per element — still a win, the surrounding
// traffic is all f32.
func applyElemwise32(dst, x []float32, fn string) {
	f := act32(fn)
	if len(dst) < elemwiseParMin {
		for i := range dst {
			dst[i] = f(x[i])
		}
		return
	}
	parallel.ForChunked(len(dst), elemwiseParMin, func(i int) { dst[i] = f(x[i]) })
}

func act32(fn string) func(float32) float32 {
	switch fn {
	case ActReLU:
		return func(v float32) float32 {
			if v > 0 {
				return v
			}
			return 0
		}
	case ActTanh:
		return func(v float32) float32 { return float32(math.Tanh(float64(v))) }
	case ActSigmoid:
		return func(v float32) float32 { return float32(1 / (1 + math.Exp(float64(-v)))) }
	case ActLeakyReLU:
		return func(v float32) float32 {
			if v > 0 {
				return v
			}
			return 0.01 * v
		}
	}
	return func(v float32) float32 { return v }
}

func toF32(src []float64) []float32 {
	out := make([]float32, len(src))
	for i, v := range src {
		out[i] = float32(v)
	}
	return out
}
