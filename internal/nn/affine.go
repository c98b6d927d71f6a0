package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Affine applies a fixed elementwise transform y = Scale*x + Shift. It is
// parameter-free (the constants are architecture, not weights) and serves
// as the input-normalization layer models prepend so the region can feed
// them raw application data (e.g. 0–255 pixels) — the model file stays
// self-contained, as a TorchScript archive's preprocessing would be.
type Affine struct {
	Scale, Shift float64
}

// NewAffine constructs a fixed affine layer.
func NewAffine(scale, shift float64) *Affine { return &Affine{Scale: scale, Shift: shift} }

// Kind identifies the layer.
func (a *Affine) Kind() string { return fmt.Sprintf("Affine(*%g%+g)", a.Scale, a.Shift) }

// Params returns nil: the transform is fixed.
func (a *Affine) Params() []*Param { return nil }

// OutShape is the identity.
func (a *Affine) OutShape(in []int) ([]int, error) {
	return append([]int(nil), in...), nil
}

// Forward applies the transform elementwise.
func (a *Affine) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	out := tensor.New(x.Shape()...)
	if err := a.forwardInto(out, x); err != nil {
		return nil, err
	}
	return out, nil
}

// inferDims reports that the transform preserves rank-2 extents.
func (a *Affine) inferDims(x *tensor.Tensor) (int, int, bool) {
	if x.Rank() != 2 {
		return 0, 0, false
	}
	return x.Dim(0), x.Dim(1), true
}

// forwardInto applies the transform from x into dst without allocating.
func (a *Affine) forwardInto(dst, x *tensor.Tensor) error {
	if !tensor.SameShape(dst, x) || !dst.IsContiguous() {
		return fmt.Errorf("affine dst wants contiguous %v, got %v", x.Shape(), dst.Shape())
	}
	d := dst.Data()
	for i, v := range x.Contiguous().Data() {
		d[i] = a.Scale*v + a.Shift
	}
	return nil
}

// Backward scales the gradient.
func (a *Affine) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	out := grad.Contiguous().Clone()
	d := out.Data()
	for i := range d {
		d[i] *= a.Scale
	}
	return out, nil
}

func (a *Affine) spec() layerSpec {
	return layerSpec{Kind: "affine", Floats: []float64{a.Scale, a.Shift}}
}

// ChannelAffine applies a fixed per-block transform to each sample:
// y[j] = Scales[j/BlockLen]*x[j] + Shifts[j/BlockLen] over the sample's
// contiguous elements. With BlockLen = H*W it normalizes (or denormalizes)
// the channels of a [batch, C, H, W] tensor — the standard conditioning
// fix when physical channels live on very different scales
// (MiniWeather's density vs momentum fields differ by ~400x).
type ChannelAffine struct {
	BlockLen int
	Scales   []float64
	Shifts   []float64
}

// NewChannelAffine constructs a per-block affine layer. shifts may be nil
// for a pure scaling.
func NewChannelAffine(blockLen int, scales, shifts []float64) *ChannelAffine {
	if shifts == nil {
		shifts = make([]float64, len(scales))
	}
	return &ChannelAffine{BlockLen: blockLen, Scales: scales, Shifts: shifts}
}

// Kind identifies the layer.
func (c *ChannelAffine) Kind() string {
	return fmt.Sprintf("ChannelAffine(%d blocks x %d)", len(c.Scales), c.BlockLen)
}

// Params returns nil: the transform is fixed.
func (c *ChannelAffine) Params() []*Param { return nil }

// OutShape validates the sample size against the block structure.
func (c *ChannelAffine) OutShape(in []int) ([]int, error) {
	if c.BlockLen <= 0 || len(c.Scales) == 0 || len(c.Scales) != len(c.Shifts) {
		return nil, fmt.Errorf("channel affine misconfigured: %d blocks x %d", len(c.Scales), c.BlockLen)
	}
	if n := tensor.NumElements(in); n != c.BlockLen*len(c.Scales) {
		return nil, fmt.Errorf("channel affine wants %d-element samples, got %v", c.BlockLen*len(c.Scales), in)
	}
	return append([]int(nil), in...), nil
}

// Forward applies the per-block transform.
func (c *ChannelAffine) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	out := tensor.New(x.Shape()...)
	if err := c.forwardInto(out, x); err != nil {
		return nil, err
	}
	return out, nil
}

// inferDims accepts rank-2 inputs whose rows are one sample of the
// block structure.
func (c *ChannelAffine) inferDims(x *tensor.Tensor) (int, int, bool) {
	if x.Rank() != 2 || c.BlockLen <= 0 || len(c.Scales) != len(c.Shifts) || x.Dim(1) != c.BlockLen*len(c.Scales) {
		return 0, 0, false
	}
	return x.Dim(0), x.Dim(1), true
}

// forwardInto applies the per-block transform from x into dst without
// allocating. x is a batch of samples of any rank.
func (c *ChannelAffine) forwardInto(dst, x *tensor.Tensor) error {
	if x.Rank() < 2 {
		return fmt.Errorf("channel affine wants rank >= 2 input, got %v", x.Shape())
	}
	per := 1
	for i := 1; i < x.Rank(); i++ {
		per *= x.Dim(i)
	}
	if c.BlockLen <= 0 || len(c.Scales) != len(c.Shifts) || per != c.BlockLen*len(c.Scales) {
		return fmt.Errorf("channel affine wants %d-element samples, got %d", c.BlockLen*len(c.Scales), per)
	}
	if !tensor.SameShape(dst, x) || !dst.IsContiguous() {
		return fmt.Errorf("channel affine dst wants contiguous %v, got %v", x.Shape(), dst.Shape())
	}
	d, xd := dst.Data(), x.Contiguous().Data()
	for lo := 0; lo < len(d); lo += c.BlockLen {
		b := (lo / c.BlockLen) % len(c.Scales)
		s, sh := c.Scales[b], c.Shifts[b]
		for i := lo; i < lo+c.BlockLen; i++ {
			d[i] = s*xd[i] + sh
		}
	}
	return nil
}

// Backward scales the gradient per block.
func (c *ChannelAffine) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	out := grad.Contiguous().Clone()
	d := out.Data()
	per := out.Len() / out.Dim(0)
	for i := range d {
		b := (i % per) / c.BlockLen
		d[i] *= c.Scales[b]
	}
	return out, nil
}

func (c *ChannelAffine) spec() layerSpec {
	floats := make([]float64, 0, 2*len(c.Scales))
	floats = append(floats, c.Scales...)
	floats = append(floats, c.Shifts...)
	return layerSpec{Kind: "chanaffine", Ints: []int{c.BlockLen}, Floats: floats}
}
