package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Residual wraps a sub-network body and adds the (flattened) layer input
// to the body's output: y = body(x) + flatten(x). The body's output
// sample size must equal the input sample size. Residual blocks are the
// standard stabilizer for auto-regressive surrogates (MiniWeather-style
// next-state prediction): the body only has to learn the per-step delta.
type Residual struct {
	Body *Network

	lastShape []int
}

// NewResidual wraps body in a residual connection.
func NewResidual(body *Network) *Residual { return &Residual{Body: body} }

// Kind identifies the layer.
func (r *Residual) Kind() string { return "Residual(" + r.Body.Summary() + ")" }

// Params returns the body's parameters.
func (r *Residual) Params() []*Param { return r.Body.Params() }

// subNetwork marks Residual as a container for the serializer.
func (r *Residual) subNetwork() *Network { return r.Body }

// OutShape checks that the body maps the sample back to its own size.
func (r *Residual) OutShape(in []int) ([]int, error) {
	out, err := r.Body.OutShape(in)
	if err != nil {
		return nil, err
	}
	if tensor.NumElements(out) != tensor.NumElements(in) {
		return nil, fmt.Errorf("residual body maps %d elements to %d; sizes must match", tensor.NumElements(in), tensor.NumElements(out))
	}
	return out, nil
}

// Forward computes body(x) + flatten(x). At inference the body runs
// through its own plan, as a network's Forward does; the sum is a new
// tensor, so an identity body never aliases x.
func (r *Residual) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Rank() < 2 {
		return nil, fmt.Errorf("residual wants rank >= 2 input, got %v", x.Shape())
	}
	var y *tensor.Tensor
	var err error
	if train {
		y, err = r.Body.forward(x, true)
	} else {
		y, err = r.Body.forwardInference(x, nil)
	}
	if err != nil {
		return nil, err
	}
	if y.Len() != x.Len() {
		return nil, fmt.Errorf("residual body output %v does not match input %v", y.Shape(), x.Shape())
	}
	if train {
		r.lastShape = x.Shape()
	}
	out := y.Contiguous().Clone()
	xf := x.Contiguous()
	od, xd := out.Data(), xf.Data()
	for i := range od {
		od[i] += xd[i]
	}
	return out, nil
}

// Backward adds the identity gradient to the body's input gradient.
func (r *Residual) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if r.lastShape == nil {
		return nil, fmt.Errorf("residual backward without cached forward")
	}
	bodyGrad := grad
	var err error
	for i := len(r.Body.Layers) - 1; i >= 0; i-- {
		if bodyGrad, err = r.Body.Layers[i].Layer.Backward(bodyGrad); err != nil {
			return nil, fmt.Errorf("residual body layer %d: %w", i, err)
		}
	}
	skip, err := grad.Contiguous().Reshape(r.lastShape...)
	if err != nil {
		return nil, err
	}
	out := bodyGrad.Contiguous().Clone()
	if !tensor.ShapeEqual(out.Shape(), r.lastShape) {
		reshaped, err := out.Reshape(r.lastShape...)
		if err != nil {
			return nil, err
		}
		out = reshaped
	}
	od, sd := out.Data(), skip.Contiguous().Data()
	for i := range od {
		od[i] += sd[i]
	}
	r.lastShape = nil
	return out, nil
}

func (r *Residual) spec() layerSpec { return layerSpec{Kind: "residual"} }
