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
// HPAC-ML search spaces need (MLPs and small CNNs).
type Network struct {
	Layers []*layerEntry
	rng    *rand.Rand

	// scratch pools the ping-pong intermediate buffers of inference
	// passes. Pooling (rather than a single arena) keeps concurrent
	// Forward calls safe when regions share a cached model.
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

// Add appends layers to the network.
func (n *Network) Add(layers ...Layer) *Network {
	for _, l := range layers {
		n.Layers = append(n.Layers, &layerEntry{Layer: l})
	}
	return n
}

// Forward runs inference (no caching, dropout disabled). Intermediate
// activations come from a pooled scratch arena, so only the returned
// output tensor is allocated per call; ForwardInto removes that
// allocation too.
func (n *Network) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	return n.forwardInference(x, nil)
}

// ForwardInto runs inference writing the final output into dst, which
// must be a contiguous tensor of the network's output shape for x's
// batch size. Together with the scratch arena this makes steady-state
// MLP inference allocation-free: dense and activation layers write into
// reused ping-pong buffers and the last layer writes into dst.
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

// inferScratch holds one inference pass's ping-pong intermediate buffers
// plus a cached tensor header per layer, reused while that layer's output
// shape repeats and its slot's buffer has not been reallocated. A header
// per layer, not per slot, keeps a slot shared by layers of different
// widths from rebuilding its header on every pass.
type inferScratch struct {
	bufs [2][]float64
	gen  [2]int // bumped each time a slot's buffer is reallocated
	hdrs []scratchHeader
}

type scratchHeader struct {
	t                     *tensor.Tensor
	slot, gen, rows, cols int
}

// tensorFor returns layer i's [rows, cols] output tensor backed by the
// slot's buffer, growing the buffer and rebuilding the header only when
// needed.
func (s *inferScratch) tensorFor(i, slot, rows, cols int) *tensor.Tensor {
	n := rows * cols
	if cap(s.bufs[slot]) < n {
		s.bufs[slot] = make([]float64, n)
		s.gen[slot]++
	}
	if i >= len(s.hdrs) {
		s.hdrs = append(s.hdrs, make([]scratchHeader, i+1-len(s.hdrs))...)
	}
	h := &s.hdrs[i]
	if h.t != nil && h.slot == slot && h.gen == s.gen[slot] && h.rows == rows && h.cols == cols {
		return h.t
	}
	t, err := tensor.Wrap(s.bufs[slot][:n], rows, cols)
	if err != nil {
		panic("nn: scratch wrap: " + err.Error()) // cannot happen: buffer sized above
	}
	*h = scratchHeader{t: t, slot: slot, gen: s.gen[slot], rows: rows, cols: cols}
	return t
}

// intoLayer is implemented by layers whose inference pass can write a
// rank-2 output into a caller-provided tensor without allocating.
type intoLayer interface {
	// inferDims maps x to the layer's [rows, cols] output extents;
	// ok is false when x is not an acceptable rank-2 input (the caller
	// then falls back to the allocating Forward path).
	inferDims(x *tensor.Tensor) (rows, cols int, ok bool)
	// forwardInto computes the inference output of x into dst. dst must
	// not alias x.
	forwardInto(dst, x *tensor.Tensor) error
}

// forwardInference walks the layers in inference mode, routing rank-2
// intermediates through the pooled scratch arena. When dst is non-nil
// the final output is written there; otherwise it is freshly allocated.
func (n *Network) forwardInference(x *tensor.Tensor, dst *tensor.Tensor) (*tensor.Tensor, error) {
	s, _ := n.scratch.Get().(*inferScratch)
	if s == nil {
		s = &inferScratch{}
	}
	defer n.scratch.Put(s)

	cur := x
	slot := 0
	// inScratch tracks whether cur may alias a pooled buffer. Fallback
	// layers can return views of their input (Flatten, Dropout), so the
	// flag stays set across them conservatively.
	inScratch := false
	for i := 0; i < len(n.Layers); i++ {
		e := n.Layers[i]
		il, ok := e.Layer.(intoLayer)
		if ok {
			rows, cols, dimsOK := il.inferDims(cur)
			if dimsOK {
				// A Dense followed by an Activation is one kernel call that
				// applies the activation to each output before storing it.
				at := i
				fused, act := fuseActivation(n.Layers, i)
				if fused != nil {
					i++
				}
				last := i == len(n.Layers)-1
				var out *tensor.Tensor
				switch {
				case last && dst != nil:
					if dst.Rank() != 2 || dst.Dim(0) != rows || dst.Dim(1) != cols {
						return nil, fmt.Errorf("nn: ForwardInto dst shape %v, want [%d %d]", dst.Shape(), rows, cols)
					}
					out = dst
				case last:
					out = tensor.New(rows, cols)
				default:
					out = s.tensorFor(i, slot, rows, cols)
					slot ^= 1
				}
				var err error
				if fused != nil {
					err = fused.forwardActInto(out, cur, act)
				} else {
					err = il.forwardInto(out, cur)
				}
				if err != nil {
					return nil, fmt.Errorf("nn: layer %d (%s): %w", at, e.Layer.Kind(), err)
				}
				cur = out
				inScratch = out != dst && !last
				continue
			}
		}
		var err error
		if cur, err = e.Layer.Forward(cur, false); err != nil {
			return nil, fmt.Errorf("nn: layer %d (%s): %w", i, e.Layer.Kind(), err)
		}
	}
	if dst != nil && cur != dst {
		// The last layer could not write in place (not an intoLayer, or a
		// non-rank-2 output); copy the result over.
		if err := dst.CopyFrom(cur); err != nil {
			return nil, fmt.Errorf("nn: ForwardInto output: %w", err)
		}
		return dst, nil
	}
	if inScratch {
		// A trailing view-returning layer left cur aliasing pooled
		// memory; detach before the scratch returns to the pool.
		cur = cur.Clone()
	}
	return cur, nil
}

// fuseActivation returns layer i when it is a Dense followed by an
// Activation of a known kind, with that kind; otherwise nil.
func fuseActivation(layers []*layerEntry, i int) (*Dense, tensor.Act) {
	d, ok := layers[i].Layer.(*Dense)
	if !ok || i+1 == len(layers) {
		return nil, 0
	}
	a, ok := layers[i+1].Layer.(*Activation)
	if !ok {
		return nil, 0
	}
	act, ok := actKind(a.Fn)
	if !ok {
		return nil, 0
	}
	return d, act
}

func (n *Network) forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if train && n.frozen {
		return nil, fmt.Errorf("nn: training a frozen network would leave its packed weights stale; train a copy loaded with nn.Load")
	}
	var err error
	for i, e := range n.Layers {
		if x, err = e.Layer.Forward(x, train); err != nil {
			return nil, fmt.Errorf("nn: layer %d (%s): %w", i, e.Layer.Kind(), err)
		}
	}
	return x, nil
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
