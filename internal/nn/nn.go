// Package nn is the inference and training engine that stands in for Torch
// (the C++ PyTorch API the paper's runtime uses). It provides dense layers,
// 1-D/2-D convolutions, pooling, activations, dropout, the Sequential
// container, MSE/MAE losses, SGD/Adam optimizers, and a self-describing
// binary model format (.gmod) that plays the role of TorchScript archives:
// the application's model() clause names a file on disk that the runtime
// loads and evaluates.
//
// Tensors follow PyTorch conventions: dense inputs are [batch, features],
// convolutional inputs are [batch, channels, length] (1-D) or
// [batch, channels, height, width] (2-D). All math is float64.
package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/tensor"
)

// Param is a trainable parameter with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Tensor
	Grad *tensor.Tensor
}

func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, W: tensor.New(shape...), Grad: tensor.New(shape...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Fill(0) }

// Layer is one differentiable module. Forward with train=true caches
// whatever the subsequent Backward call needs; Backward consumes the cache
// and returns the gradient with respect to the layer input while
// accumulating parameter gradients. Layers are not safe for concurrent
// Forward calls on the same instance; parallelism lives inside the heavy
// kernels instead.
type Layer interface {
	Kind() string
	Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error)
	Backward(grad *tensor.Tensor) (*tensor.Tensor, error)
	Params() []*Param
	// OutShape maps an input sample shape (without the batch dim) to the
	// output sample shape, for static validation and model summaries.
	OutShape(in []int) ([]int, error)
	spec() layerSpec
}

// Network is a sequential composition of layers — the only container the
// HPAC-ML search spaces need (MLPs and small CNNs). Layers grow through
// Add, which compiles the inference plan: a slice changed any other way
// leaves the plan describing the old layers.
type Network struct {
	Layers []*layerEntry
	rng    *rand.Rand

	// plan is the f64 program of the layers' vector suffix, compiled by
	// Add; nil when no suffix compiles.
	plan *f64Plan
	// scratch pools the plan's ping-pong intermediate buffers
	// (*[2][]float64). Pooling, rather than one pair per network, keeps
	// concurrent Forward calls safe when regions share a cached model.
	scratch sync.Pool
	frozen  bool // set by Freeze
}

type layerEntry struct {
	Layer Layer
}

// NewNetwork creates an empty network whose parameter initialization draws
// from the given seed, keeping model construction deterministic.
func NewNetwork(seed int64) *Network {
	return &Network{rng: rand.New(rand.NewSource(seed))}
}

// Add appends layers to the network and recompiles its f64 plan: the
// longest suffix of its layers that compileSegments accepts (Dense
// layers with elementwise tails, an elementwise prelude), which
// inference runs over flat slabs.
func (n *Network) Add(layers ...Layer) *Network {
	for _, l := range layers {
		n.Layers = append(n.Layers, &layerEntry{Layer: l})
	}
	n.plan = compilePlan(n.Layers)
	return n
}

// Forward runs inference (no caching, dropout disabled). The layers
// before the plan run through their own Forward and allocate; the plan
// keeps its intermediates in pooled buffers, so an MLP allocates only
// the returned output tensor per call, and ForwardInto removes that
// allocation too.
func (n *Network) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	return n.forwardInference(x, nil)
}

// ForwardInto runs inference writing the final output into dst, which
// must be a contiguous tensor of the network's output shape for x's
// batch size. Steady-state inference of a network the plan covers
// whole, an MLP, allocates nothing: each segment writes into a pooled
// ping-pong buffer and the last one writes into dst.
func (n *Network) ForwardInto(dst, x *tensor.Tensor) error {
	if dst == nil {
		return fmt.Errorf("nn: ForwardInto with nil dst")
	}
	_, err := n.forwardInference(x, dst)
	return err
}

// ForwardTrain runs a training-mode forward pass, caching activations.
// It fails on a frozen network.
func (n *Network) ForwardTrain(x *tensor.Tensor) (*tensor.Tensor, error) {
	return n.forward(x, true)
}

// Freeze packs the weights of every Dense layer, those inside Residual
// bodies included, once, so that inference reads the packed panels
// instead of packing them again on every call. The runtime freezes a
// network before it publishes it to the engines that serve it, which
// then share one packed copy.
//
// A frozen network must not be written: inference no longer reads the
// Dense layers' Param.W, so a write to it would go unseen. ForwardTrain,
// and so Fit, fails on a frozen network; train a copy loaded with Load
// instead. Freeze is idempotent. It must not run concurrently with other
// use of the network, so freeze before sharing it.
func (n *Network) Freeze() {
	if n.frozen {
		return
	}
	for _, e := range n.Layers {
		switch l := e.Layer.(type) {
		case *Dense:
			l.packed = tensor.PackF64(l.Weight.W.Data(), l.Bias.W.Data(), l.In, l.Out)
		case containerLayer:
			l.subNetwork().Freeze()
		}
	}
	n.frozen = true
}

// forwardInference runs the layers before the network's plan through
// their own Forward (conv, pools, residual blocks), then the plan over
// flat slabs, intermediates in pooled ping-pong buffers and the last
// segment writing into dst (or a new tensor when dst is nil). Without a
// plan, or on an input the plan does not take, it walks every layer and
// copies the result into dst.
func (n *Network) forwardInference(x *tensor.Tensor, dst *tensor.Tensor) (*tensor.Tensor, error) {
	p, stop := n.plan, len(n.Layers)
	if p != nil {
		stop = p.start
	}
	cur, err := n.walk(x, 0, stop, false)
	if err != nil {
		return nil, err
	}
	if p != nil && p.fits(cur) {
		rows := cur.Dim(0)
		switch {
		case dst == nil:
			dst = tensor.New(rows, p.out)
		case dst.Rank() != 2 || dst.Dim(0) != rows || dst.Dim(1) != p.out || !dst.IsContiguous():
			return nil, fmt.Errorf("nn: ForwardInto dst shape %v, want contiguous [%d %d]", dst.Shape(), rows, p.out)
		}
		bufs, _ := n.scratch.Get().(*[2][]float64)
		if bufs == nil {
			bufs = new([2][]float64)
		}
		p.run(dst.Data(), cur.Contiguous().Data(), rows, bufs)
		n.scratch.Put(bufs)
		return dst, nil
	}
	if cur, err = n.walk(cur, stop, len(n.Layers), false); err != nil {
		return nil, err
	}
	if dst != nil {
		if err := dst.CopyFrom(cur); err != nil {
			return nil, fmt.Errorf("nn: ForwardInto output: %w", err)
		}
		return dst, nil
	}
	return cur, nil
}

// walk runs layers [lo, hi) through their own Forward.
func (n *Network) walk(x *tensor.Tensor, lo, hi int, train bool) (*tensor.Tensor, error) {
	var err error
	for i := lo; i < hi; i++ {
		e := n.Layers[i]
		if x, err = e.Layer.Forward(x, train); err != nil {
			return nil, fmt.Errorf("nn: layer %d (%s): %w", i, e.Layer.Kind(), err)
		}
	}
	return x, nil
}

func (n *Network) forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if train && n.frozen {
		return nil, fmt.Errorf("nn: training a frozen network would leave its packed weights stale; train a copy loaded with nn.Load")
	}
	return n.walk(x, 0, len(n.Layers), train)
}

// Backward propagates the loss gradient through the network, accumulating
// parameter gradients. It must follow a ForwardTrain call.
func (n *Network) Backward(grad *tensor.Tensor) error {
	var err error
	for i := len(n.Layers) - 1; i >= 0; i-- {
		e := n.Layers[i]
		if grad, err = e.Layer.Backward(grad); err != nil {
			return fmt.Errorf("nn: backward layer %d (%s): %w", i, e.Layer.Kind(), err)
		}
	}
	return nil
}

// Params returns every trainable parameter in the network.
func (n *Network) Params() []*Param {
	var out []*Param
	for _, e := range n.Layers {
		out = append(out, e.Layer.Params()...)
	}
	return out
}

// ZeroGrad clears all parameter gradients.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

// NumParams returns the total scalar parameter count — the "model size"
// axis of the paper's figures.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += p.W.Len()
	}
	return total
}

// FLOPsPerSample estimates multiply-accumulate work per input sample given
// the sample shape (without batch dim). Used as the latency proxy during
// search space pruning; actual latency is always measured.
func (n *Network) FLOPsPerSample(in []int) (int64, error) {
	var total int64
	cur := append([]int(nil), in...)
	for _, e := range n.Layers {
		total += layerFLOPs(e.Layer, cur)
		next, err := e.Layer.OutShape(cur)
		if err != nil {
			return 0, err
		}
		cur = next
	}
	return total, nil
}

func layerFLOPs(l Layer, in []int) int64 {
	switch v := l.(type) {
	case *Dense:
		return 2 * int64(v.In) * int64(v.Out)
	case *Conv1D:
		out, err := v.OutShape(in)
		if err != nil {
			return 0
		}
		return 2 * int64(v.OutC) * int64(out[1]) * int64(v.InC) * int64(v.K)
	case *Conv2D:
		out, err := v.OutShape(in)
		if err != nil {
			return 0
		}
		return 2 * int64(v.OutC) * int64(out[1]) * int64(out[2]) * int64(v.InC) * int64(v.KH) * int64(v.KW)
	default:
		n := int64(1)
		for _, d := range in {
			n *= int64(d)
		}
		return n
	}
}

// OutShape validates the network against an input sample shape and
// returns the output sample shape.
func (n *Network) OutShape(in []int) ([]int, error) {
	cur := append([]int(nil), in...)
	var err error
	for i, e := range n.Layers {
		if cur, err = e.Layer.OutShape(cur); err != nil {
			return nil, fmt.Errorf("nn: layer %d (%s): %w", i, e.Layer.Kind(), err)
		}
	}
	return cur, nil
}

// VectorIO reports the flat per-sample input and output widths of a
// network whose leading layer pins a width — a Dense layer's fan-in or
// a ChannelAffine's block structure (the standardization wrapper
// normalization-trained MLP surrogates open with). These are the models
// a registry can host without being told their shapes. Networks that
// open with a convolution (whose input width depends on the spatial
// extent, not the model file) cannot be inferred and return an error;
// callers must then supply dimensions explicitly.
func (n *Network) VectorIO() (in, out int, err error) {
	if len(n.Layers) == 0 {
		return 0, 0, fmt.Errorf("nn: VectorIO on empty network")
	}
	switch l := n.Layers[0].Layer.(type) {
	case *Dense:
		in = l.In
	case *ChannelAffine:
		in = l.BlockLen * len(l.Scales)
	default:
		return 0, 0, fmt.Errorf("nn: VectorIO: first layer is %s, not dense; input width is not self-describing",
			n.Layers[0].Layer.Kind())
	}
	outShape, err := n.OutShape([]int{in})
	if err != nil {
		return 0, 0, err
	}
	out = 1
	for _, dim := range outShape {
		out *= dim
	}
	return in, out, nil
}

// Summary renders a human-readable architecture description.
func (n *Network) Summary() string {
	s := ""
	for i, e := range n.Layers {
		if i > 0 {
			s += " -> "
		}
		s += e.Layer.Kind()
	}
	return fmt.Sprintf("%s (%d params)", s, n.NumParams())
}

// initUniform fills t with Uniform(-a, a) draws from rng.
func initUniform(rng *rand.Rand, t *tensor.Tensor, a float64) {
	d := t.Data()
	for i := range d {
		d[i] = (rng.Float64()*2 - 1) * a
	}
}

// kaimingBound returns the He-uniform bound for fanIn inputs.
func kaimingBound(fanIn int) float64 {
	if fanIn <= 0 {
		return 0
	}
	return math.Sqrt(6.0 / float64(fanIn))
}
