package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Loss computes a scalar objective and its gradient with respect to the
// prediction.
type Loss interface {
	// Value returns the mean loss over the batch.
	Value(pred, target *tensor.Tensor) (float64, error)
	// Grad returns dLoss/dPred, shaped like pred.
	Grad(pred, target *tensor.Tensor) (*tensor.Tensor, error)
	Name() string
}

// lossGradInto is implemented by losses whose gradient can be written
// into a caller-provided tensor without allocating. The trainer uses it
// to keep the steady-state training step allocation-free, falling back
// to Grad for losses that do not implement it.
type lossGradInto interface {
	// GradInto writes dLoss/dPred into dst, which must be a contiguous
	// tensor shaped like pred.
	GradInto(dst, pred, target *tensor.Tensor) error
}

func checkGradDst(dst, pred *tensor.Tensor) error {
	if !tensor.SameShape(dst, pred) {
		return fmt.Errorf("nn: loss grad dst shape %v, want %v", dst.Shape(), pred.Shape())
	}
	if !dst.IsContiguous() {
		return fmt.Errorf("nn: loss grad dst must be contiguous")
	}
	return nil
}

// MSE is mean squared error, the training loss of the paper's regression
// surrogates.
type MSE struct{}

// Name identifies the loss.
func (MSE) Name() string { return "mse" }

// Value computes mean((pred-target)^2).
func (MSE) Value(pred, target *tensor.Tensor) (float64, error) {
	if err := checkSameShape(pred, target); err != nil {
		return 0, err
	}
	p, t := pred.Contiguous().Data(), target.Contiguous().Data()
	var s float64
	for i := range p {
		d := p[i] - t[i]
		s += d * d
	}
	return s / float64(len(p)), nil
}

// Grad computes 2*(pred-target)/n.
func (MSE) Grad(pred, target *tensor.Tensor) (*tensor.Tensor, error) {
	if err := checkSameShape(pred, target); err != nil {
		return nil, err
	}
	out := pred.Clone()
	if err := (MSE{}).GradInto(out, out, target); err != nil {
		return nil, err
	}
	return out, nil
}

// GradInto computes 2*(pred-target)/n into dst without allocating.
func (MSE) GradInto(dst, pred, target *tensor.Tensor) error {
	if err := checkSameShape(pred, target); err != nil {
		return err
	}
	if err := checkGradDst(dst, pred); err != nil {
		return err
	}
	pd, td, od := pred.Contiguous().Data(), target.Contiguous().Data(), dst.Data()
	inv := 2.0 / float64(len(od))
	for i := range od {
		od[i] = (pd[i] - td[i]) * inv
	}
	return nil
}

// WeightedMSE is mean squared error with a per-output-element weight,
// broadcast across the batch. Surrogates whose output channels live on
// very different scales (MiniWeather's density vs momentum vs potential
// temperature) use inverse-variance weights so small-scale channels are
// not drowned out of the loss.
type WeightedMSE struct {
	// Weights has one entry per sample element (the product of the
	// non-batch dims).
	Weights []float64
}

// InverseVarianceWeights builds per-element weights from per-block target
// standard deviations: blocks of blockLen consecutive elements share a
// weight 1/max(std, floor)^2, normalized to mean 1.
func InverseVarianceWeights(stds []float64, blockLen int, floor float64) []float64 {
	if floor <= 0 {
		floor = 1e-8
	}
	w := make([]float64, len(stds)*blockLen)
	var sum float64
	for b, sd := range stds {
		if sd < floor {
			sd = floor
		}
		v := 1 / (sd * sd)
		for i := 0; i < blockLen; i++ {
			w[b*blockLen+i] = v
		}
		sum += v * float64(blockLen)
	}
	if sum > 0 {
		scale := float64(len(w)) / sum
		for i := range w {
			w[i] *= scale
		}
	}
	return w
}

// Name identifies the loss.
func (WeightedMSE) Name() string { return "weighted-mse" }

func (l WeightedMSE) check(pred, target *tensor.Tensor) (batch, per int, err error) {
	if err := checkSameShape(pred, target); err != nil {
		return 0, 0, err
	}
	batch = pred.Dim(0)
	per = pred.Len() / batch
	if per != len(l.Weights) {
		return 0, 0, fmt.Errorf("nn: weighted mse has %d weights for %d sample elements", len(l.Weights), per)
	}
	return batch, per, nil
}

// Value computes mean(w_j * (pred-target)^2).
func (l WeightedMSE) Value(pred, target *tensor.Tensor) (float64, error) {
	_, per, err := l.check(pred, target)
	if err != nil {
		return 0, err
	}
	p, t := pred.Contiguous().Data(), target.Contiguous().Data()
	var s float64
	for i := range p {
		d := p[i] - t[i]
		s += l.Weights[i%per] * d * d
	}
	return s / float64(len(p)), nil
}

// Grad computes 2*w_j*(pred-target)/n.
func (l WeightedMSE) Grad(pred, target *tensor.Tensor) (*tensor.Tensor, error) {
	out := pred.Clone()
	if err := l.GradInto(out, out, target); err != nil {
		return nil, err
	}
	return out, nil
}

// GradInto computes 2*w_j*(pred-target)/n into dst without allocating.
func (l WeightedMSE) GradInto(dst, pred, target *tensor.Tensor) error {
	_, per, err := l.check(pred, target)
	if err != nil {
		return err
	}
	if err := checkGradDst(dst, pred); err != nil {
		return err
	}
	pd, td, od := pred.Contiguous().Data(), target.Contiguous().Data(), dst.Data()
	inv := 2.0 / float64(len(od))
	for i := range od {
		od[i] = l.Weights[i%per] * (pd[i] - td[i]) * inv
	}
	return nil
}

// MAE is mean absolute error.
type MAE struct{}

// Name identifies the loss.
func (MAE) Name() string { return "mae" }

// Value computes mean(|pred-target|).
func (MAE) Value(pred, target *tensor.Tensor) (float64, error) {
	if err := checkSameShape(pred, target); err != nil {
		return 0, err
	}
	p, t := pred.Contiguous().Data(), target.Contiguous().Data()
	var s float64
	for i := range p {
		s += math.Abs(p[i] - t[i])
	}
	return s / float64(len(p)), nil
}

// Grad computes sign(pred-target)/n.
func (MAE) Grad(pred, target *tensor.Tensor) (*tensor.Tensor, error) {
	out := pred.Clone()
	if err := (MAE{}).GradInto(out, out, target); err != nil {
		return nil, err
	}
	return out, nil
}

// GradInto computes sign(pred-target)/n into dst without allocating.
func (MAE) GradInto(dst, pred, target *tensor.Tensor) error {
	if err := checkSameShape(pred, target); err != nil {
		return err
	}
	if err := checkGradDst(dst, pred); err != nil {
		return err
	}
	pd, td, od := pred.Contiguous().Data(), target.Contiguous().Data(), dst.Data()
	inv := 1.0 / float64(len(od))
	for i := range od {
		switch {
		case pd[i] > td[i]:
			od[i] = inv
		case pd[i] < td[i]:
			od[i] = -inv
		default:
			od[i] = 0
		}
	}
	return nil
}

func checkSameShape(a, b *tensor.Tensor) error {
	if !tensor.SameShape(a, b) {
		return fmt.Errorf("nn: loss shape mismatch %v vs %v", a.Shape(), b.Shape())
	}
	if a.Len() == 0 {
		return fmt.Errorf("nn: loss on empty tensors")
	}
	return nil
}

// MeanRelL2 is the accuracy metric both gates use — the int8 fit's
// (hpacml.FitQuant) and the learner's shadow gate: the mean over rows
// of ‖pred−ref‖₂ / max(‖ref‖₂, floor), where floor is the RMS row norm
// of the reference across the rows. The floor is the absolute-tolerance
// half of an allclose-style check: a row whose reference is near zero
// measures its error against the output's typical scale instead of
// dividing by noise — without it, a surrogate whose outputs cross zero
// (an option price at the strike) reads as failing however accurate it
// is. Any non-finite prediction poisons the mean to NaN, as does an
// empty slab; NaN never passes a gate.
func MeanRelL2(pred, ref []float64, rows, cols int) float64 {
	if rows == 0 {
		return math.NaN()
	}
	sumSq := 0.0
	for _, v := range ref[:rows*cols] {
		sumSq += v * v
	}
	floor := math.Max(math.Sqrt(sumSq/float64(rows)), 1e-12)
	total := 0.0
	for r := 0; r < rows; r++ {
		var dn, rn float64
		for j := 0; j < cols; j++ {
			d := pred[r*cols+j] - ref[r*cols+j]
			dn += d * d
			rn += ref[r*cols+j] * ref[r*cols+j]
		}
		rel := math.Sqrt(dn) / math.Max(math.Sqrt(rn), floor)
		if math.IsInf(rel, 0) {
			return math.NaN()
		}
		total += rel
	}
	return total / float64(rows)
}
