package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Dense is a fully connected layer: y = xW + b for x of shape [batch, In].
type Dense struct {
	In, Out int
	Weight  *Param // [In, Out]
	Bias    *Param // [Out]

	// packed is the weights and bias packed once by Network.Freeze;
	// inference reads it instead of packing Weight on every call.
	packed *tensor.PackedF64

	lastX *tensor.Tensor
	// Training-path arenas, reused across steps so a steady-state step
	// allocates nothing. Inference keeps its allocating/pooled paths so
	// concurrent Forward callers never touch these.
	fwdOut scratch   // forward output [batch, Out]
	dxBuf  scratch   // input gradient [batch, In]
	dwBuf  []float64 // weight-gradient staging [In, Out]
	xtBuf  []float64 // Xᵀ [In, batch]
	wtBuf  []float64 // Wᵀ [Out, In]
}

// NewDense constructs a Dense layer with He-uniform initialized weights.
func (n *Network) NewDense(in, out int) *Dense {
	d := &Dense{In: in, Out: out,
		Weight: newParam("weight", in, out),
		Bias:   newParam("bias", out),
	}
	initUniform(n.rng, d.Weight.W, kaimingBound(in))
	initUniform(n.rng, d.Bias.W, kaimingBound(in))
	return d
}

// Kind identifies the layer in summaries and serialized models.
func (d *Dense) Kind() string { return fmt.Sprintf("Dense(%d->%d)", d.In, d.Out) }

// Params returns the weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.Weight, d.Bias} }

// OutShape maps [In] to [Out].
func (d *Dense) OutShape(in []int) ([]int, error) {
	if len(in) != 1 || in[0] != d.In {
		return nil, fmt.Errorf("dense wants input shape [%d], got %v", d.In, in)
	}
	return []int{d.Out}, nil
}

// Forward computes xW + b with batch-parallel row blocks. The training
// pass writes into a layer-owned arena (reused across steps) and caches
// the input for Backward; inference allocates so shared networks stay
// safe under concurrent callers.
func (d *Dense) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Rank() != 2 || x.Dim(1) != d.In {
		return nil, fmt.Errorf("dense wants [batch, %d], got %v", d.In, x.Shape())
	}
	x = x.Contiguous()
	var out *tensor.Tensor
	if train {
		d.lastX = x
		out = d.fwdOut.get2(x.Dim(0), d.Out)
	} else {
		out = tensor.New(x.Dim(0), d.Out)
	}
	if err := d.forwardInto(out, x); err != nil {
		return nil, err
	}
	return out, nil
}

// inferDims reports the [batch, Out] output extents for a rank-2 input.
func (d *Dense) inferDims(x *tensor.Tensor) (int, int, bool) {
	if x.Rank() != 2 || x.Dim(1) != d.In {
		return 0, 0, false
	}
	return x.Dim(0), d.Out, true
}

// forwardInto computes xW + b into dst without allocating.
func (d *Dense) forwardInto(dst, x *tensor.Tensor) error {
	return d.forwardActInto(dst, x, tensor.ActIdentity)
}

// forwardActInto computes act(xW + b) into dst without allocating: the
// f64 row kernel applies act to each output before storing it, which is
// how inference fuses a Dense with the Activation after it. A frozen
// layer reads its packed weights; any other packs them for this call.
func (d *Dense) forwardActInto(dst, x *tensor.Tensor, act tensor.Act) error {
	if x.Rank() != 2 || x.Dim(1) != d.In {
		return fmt.Errorf("dense wants [batch, %d], got %v", d.In, x.Shape())
	}
	b := x.Dim(0)
	if dst.Rank() != 2 || dst.Dim(0) != b || dst.Dim(1) != d.Out || !dst.IsContiguous() {
		return fmt.Errorf("dense dst wants contiguous [%d, %d], got %v", b, d.Out, dst.Shape())
	}
	if d.packed != nil {
		d.packed.Into(dst.Data(), x.Contiguous().Data(), b, act)
		return nil
	}
	tensor.DenseInto(dst.Data(), x.Contiguous().Data(), d.Weight.W.Data(), d.Bias.W.Data(), b, d.In, d.Out, act)
	return nil
}

// Backward computes input gradients and accumulates dW, db. Both matrix
// products are tensor.DenseInto calls over a transposed copy of one
// operand: dW = XᵀG (into a staging buffer, then added so gradients
// accumulate) and dX = GWᵀ. DenseInto sums over the shared dimension
// ascending from +0, so both equal plain loops bit for bit, which the
// Dense golden losses rely on.
func (d *Dense) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if d.lastX == nil {
		return nil, fmt.Errorf("dense backward without cached forward")
	}
	x := d.lastX
	g := grad.Contiguous()
	b := x.Dim(0)
	if g.Rank() != 2 || g.Dim(0) != b || g.Dim(1) != d.Out {
		return nil, fmt.Errorf("dense backward wants grad [%d, %d], got %v", b, d.Out, g.Shape())
	}
	gd := g.Data()
	dB := d.Bias.Grad.Data()
	in, out := d.In, d.Out

	// db = column sums of G.
	for r := 0; r < b; r++ {
		for j, gv := range gd[r*out : (r+1)*out] {
			dB[j] += gv
		}
	}
	// dW += XᵀG.
	xt := grow(&d.xtBuf, in*b)
	tensor.TransposeInto(xt, x.Data(), b, in)
	dw := grow(&d.dwBuf, in*out)
	tensor.DenseInto(dw, xt, gd, nil, in, b, out, tensor.ActIdentity)
	dW := d.Weight.Grad.Data()
	for i, v := range dw {
		dW[i] += v
	}
	// dX = GWᵀ.
	wt := grow(&d.wtBuf, out*in)
	tensor.TransposeInto(wt, d.Weight.W.Data(), in, out)
	dx := d.dxBuf.get2(b, in)
	tensor.DenseInto(dx.Data(), gd, wt, nil, b, out, in, tensor.ActIdentity)
	d.lastX = nil
	return dx, nil
}

func (d *Dense) spec() layerSpec {
	return layerSpec{Kind: "dense", Ints: []int{d.In, d.Out}}
}

// Activation kinds supported by the engine.
const (
	ActReLU      = "relu"
	ActTanh      = "tanh"
	ActSigmoid   = "sigmoid"
	ActLeakyReLU = "leakyrelu"
	ActIdentity  = "identity"
)

// Activation applies an elementwise nonlinearity.
type Activation struct {
	Fn string

	lastOut *tensor.Tensor
	lastIn  *tensor.Tensor
	// Training-path arenas (see Dense): forward output and input
	// gradient, reused across steps.
	fwdOut scratch
	dxBuf  scratch
}

// NewActivation constructs the named activation; unknown names fail at
// Forward time via OutShape validation in the builder instead.
func NewActivation(fn string) *Activation { return &Activation{Fn: fn} }

// Kind identifies the activation.
func (a *Activation) Kind() string { return a.Fn }

// Params returns nil: activations are parameter-free.
func (a *Activation) Params() []*Param { return nil }

// OutShape is the identity on shapes.
func (a *Activation) OutShape(in []int) ([]int, error) {
	if !validActivation(a.Fn) {
		return nil, fmt.Errorf("unknown activation %q", a.Fn)
	}
	return append([]int(nil), in...), nil
}

func validActivation(fn string) bool {
	_, ok := actKind(fn)
	return ok
}

// actKind maps an activation name to the kernel's kind.
func actKind(fn string) (tensor.Act, bool) {
	switch fn {
	case ActReLU:
		return tensor.ActReLU, true
	case ActTanh:
		return tensor.ActTanh, true
	case ActSigmoid:
		return tensor.ActSigmoid, true
	case ActLeakyReLU:
		return tensor.ActLeakyReLU, true
	case ActIdentity:
		return tensor.ActIdentity, true
	}
	return 0, false
}

// kind returns the kernel's kind for the activation.
func (a *Activation) kind() (tensor.Act, error) {
	k, ok := actKind(a.Fn)
	if !ok {
		return 0, fmt.Errorf("unknown activation %q", a.Fn)
	}
	return k, nil
}

// applyElemwise maps dst[i] = act(src[i]) (src may alias dst), running
// the small case inline with no closure and splitting the rest into
// chunks of at least elemwiseParMin elements, each one act.Map call.
// One home for the elementwise threshold keeps the activation paths'
// parallelization policy consistent.
func applyElemwise(dst, src []float64, act tensor.Act) {
	if len(dst) < elemwiseParMin {
		act.Map(dst, src)
		return
	}
	chunks := len(dst) / elemwiseParMin
	parallel.ForChunked(chunks, 1, func(c int) {
		lo, hi := c*elemwiseParMin, (c+1)*elemwiseParMin
		if c == chunks-1 {
			hi = len(dst)
		}
		act.Map(dst[lo:hi], src[lo:hi])
	})
}

// elemwiseParMin is the element count below which elementwise maps run
// serially on the calling goroutine.
const elemwiseParMin = 4096

// Forward applies the nonlinearity elementwise. The training pass maps
// the input into a layer-owned arena; inference clones (the rank-2 hot
// path goes through forwardInto and the pooled arena instead).
func (a *Activation) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	act, err := a.kind()
	if err != nil {
		return nil, err
	}
	xc := x.Contiguous()
	var out *tensor.Tensor
	if train {
		out = a.fwdOut.like(xc)
	}
	if out == nil {
		out = xc.Clone()
		d := out.Data()
		applyElemwise(d, d, act)
	} else {
		applyElemwise(out.Data(), xc.Data(), act)
	}
	if train {
		a.lastIn = xc
		a.lastOut = out
	}
	return out, nil
}

// inferDims reports that the activation preserves rank-2 extents.
func (a *Activation) inferDims(x *tensor.Tensor) (int, int, bool) {
	if x.Rank() != 2 || !validActivation(a.Fn) {
		return 0, 0, false
	}
	return x.Dim(0), x.Dim(1), true
}

// forwardInto applies the nonlinearity from x into dst without
// allocating. dst may not alias a non-contiguous x.
func (a *Activation) forwardInto(dst, x *tensor.Tensor) error {
	act, err := a.kind()
	if err != nil {
		return err
	}
	if dst.Rank() != 2 || x.Rank() != 2 || dst.Dim(0) != x.Dim(0) || dst.Dim(1) != x.Dim(1) || !dst.IsContiguous() {
		return fmt.Errorf("activation dst wants contiguous %v, got %v", x.Shape(), dst.Shape())
	}
	applyElemwise(dst.Data(), x.Contiguous().Data(), act)
	return nil
}

// Backward multiplies the incoming gradient by the activation
// derivative, writing into a layer-owned arena instead of cloning.
func (a *Activation) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if a.lastOut == nil {
		return nil, fmt.Errorf("activation backward without cached forward")
	}
	gc := grad.Contiguous()
	g := a.dxBuf.like(gc)
	if g == nil {
		g = gc.Clone()
	} else if err := g.CopyFrom(gc); err != nil {
		return nil, err
	}
	gd := g.Data()
	od := a.lastOut.Data()
	id := a.lastIn.Data()
	switch a.Fn {
	case ActReLU:
		for i := range gd {
			if id[i] <= 0 {
				gd[i] = 0
			}
		}
	case ActTanh:
		for i := range gd {
			gd[i] *= 1 - od[i]*od[i]
		}
	case ActSigmoid:
		for i := range gd {
			gd[i] *= od[i] * (1 - od[i])
		}
	case ActLeakyReLU:
		for i := range gd {
			if id[i] <= 0 {
				gd[i] *= 0.01
			}
		}
	case ActIdentity:
	}
	a.lastOut, a.lastIn = nil, nil
	return g, nil
}

func (a *Activation) spec() layerSpec { return layerSpec{Kind: "act:" + a.Fn} }

// Dropout randomly zeroes activations during training with probability P,
// scaling survivors by 1/(1-P); inference is the identity.
type Dropout struct {
	P   float64
	rng *rand.Rand

	lastMask []float64
}

// NewDropout constructs a dropout layer drawing masks from the network's
// deterministic RNG.
func (n *Network) NewDropout(p float64) *Dropout {
	return &Dropout{P: p, rng: rand.New(rand.NewSource(n.rng.Int63()))}
}

// Kind identifies the layer.
func (d *Dropout) Kind() string { return fmt.Sprintf("Dropout(%.2f)", d.P) }

// Params returns nil.
func (d *Dropout) Params() []*Param { return nil }

// OutShape is the identity.
func (d *Dropout) OutShape(in []int) ([]int, error) {
	if d.P < 0 || d.P >= 1 {
		return nil, fmt.Errorf("dropout probability %g out of [0,1)", d.P)
	}
	return append([]int(nil), in...), nil
}

// Forward applies the mask during training; identity at inference.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if !train || d.P == 0 {
		d.lastMask = nil
		return x, nil
	}
	if d.rng == nil {
		d.rng = rand.New(rand.NewSource(1))
	}
	out := x.Contiguous().Clone()
	data := out.Data()
	mask := make([]float64, len(data))
	keep := 1 - d.P
	inv := 1 / keep
	for i := range data {
		if d.rng.Float64() < keep {
			mask[i] = inv
			data[i] *= inv
		} else {
			data[i] = 0
		}
	}
	d.lastMask = mask
	return out, nil
}

// Backward applies the cached mask to the gradient.
func (d *Dropout) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if d.lastMask == nil {
		return grad, nil
	}
	g := grad.Contiguous().Clone()
	gd := g.Data()
	if len(gd) != len(d.lastMask) {
		return nil, fmt.Errorf("dropout backward size mismatch: %d vs %d", len(gd), len(d.lastMask))
	}
	for i := range gd {
		gd[i] *= d.lastMask[i]
	}
	d.lastMask = nil
	return g, nil
}

func (d *Dropout) spec() layerSpec { return layerSpec{Kind: "dropout", Floats: []float64{d.P}} }

// Flatten collapses all sample dims into one: [B, d1, d2, ...] -> [B, D].
type Flatten struct {
	lastShape []int
}

// NewFlatten constructs a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Kind identifies the layer.
func (f *Flatten) Kind() string { return "Flatten" }

// Params returns nil.
func (f *Flatten) Params() []*Param { return nil }

// OutShape collapses the sample dims.
func (f *Flatten) OutShape(in []int) ([]int, error) {
	return []int{tensor.NumElements(in)}, nil
}

// Forward reshapes to [batch, D].
func (f *Flatten) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Rank() < 2 {
		return nil, fmt.Errorf("flatten wants rank >= 2, got %v", x.Shape())
	}
	if train {
		f.lastShape = x.Shape()
	}
	return x.Contiguous().Reshape(x.Dim(0), -1)
}

// Backward restores the cached input shape.
func (f *Flatten) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if f.lastShape == nil {
		return nil, fmt.Errorf("flatten backward without cached forward")
	}
	out, err := grad.Contiguous().Reshape(f.lastShape...)
	f.lastShape = nil
	return out, err
}

func (f *Flatten) spec() layerSpec { return layerSpec{Kind: "flatten"} }
