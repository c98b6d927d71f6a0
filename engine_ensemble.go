package hpacml

import (
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/tensor"
)

// VarianceReporter is implemented by engines that measure per-row
// predictive variance while inferring — the confidence score a
// region's trust(var:V) gate reads. The returned slice
// is indexed by input row, valid until the engine's next Infer call.
type VarianceReporter interface{ RowVariance() []float64 }

// EnsembleEngine runs a deep ensemble: N member engines — typically N
// local models of the same architecture trained with different seeds —
// each predict the whole batch, the member mean is written out as the
// prediction, and the spread across members becomes the per-row
// predictive variance (population variance per output feature,
// averaged over the row's features). Disagreement between members is
// the uncertainty signal: where the training data constrained all
// members, they agree; where the surrogate would be extrapolating,
// they drift apart.
//
// The engine implements VarianceReporter, so annotating its region with
// trust(var:V) turns the variance into a per-row routing decision.
// Like every engine it is driven from one goroutine at a time; it owns
// its members (Close closes them).
type EnsembleEngine struct {
	members []Engine

	// Infer scratch: one member-output tensor plus accumulators.
	memberOut  *tensor.Tensor
	sum, sumSq []float64

	rowVar []float64
}

// NewEnsembleEngine builds an ensemble over the given member engines
// (at least one), taking ownership of them. All members must agree on
// the model's input/output shapes; the mismatch surfaces in
// OutputShape/Warmup.
func NewEnsembleEngine(members ...Engine) (*EnsembleEngine, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("hpacml: ensemble engine needs at least one member")
	}
	for i, m := range members {
		if m == nil {
			return nil, fmt.Errorf("hpacml: ensemble member %d is nil", i)
		}
	}
	return &EnsembleEngine{members: members}, nil
}

// NewLocalEnsemble builds an ensemble of LocalEngines, one per .gmod
// path — the common "same architecture, different training seeds"
// deployment.
func NewLocalEnsemble(paths ...string) (*EnsembleEngine, error) {
	members := make([]Engine, len(paths))
	for i, p := range paths {
		members[i] = NewLocalEngine(p)
	}
	return NewEnsembleEngine(members...)
}

// Size returns the member count.
func (e *EnsembleEngine) Size() int { return len(e.members) }

// Warmup warms every member and cross-validates their output shapes
// against the region's input shape.
func (e *EnsembleEngine) Warmup(ctx context.Context, inShape []int) error {
	for i, m := range e.members {
		if err := m.Warmup(ctx, inShape); err != nil {
			return fmt.Errorf("hpacml: ensemble member %d: %w", i, err)
		}
	}
	if len(inShape) > 0 {
		if _, err := e.OutputShape(inShape); err != nil {
			return err
		}
	}
	return nil
}

// OutputShape maps the input shape through member 0 and checks every
// other member agrees — disagreeing members would silently corrupt the
// mean and variance.
func (e *EnsembleEngine) OutputShape(in []int) ([]int, error) {
	shape, err := e.members[0].OutputShape(in)
	if err != nil {
		return nil, fmt.Errorf("hpacml: ensemble member 0: %w", err)
	}
	for i, m := range e.members[1:] {
		s, err := m.OutputShape(in)
		if err != nil {
			return nil, fmt.Errorf("hpacml: ensemble member %d: %w", i+1, err)
		}
		if !tensor.ShapeEqual(s, shape) {
			return nil, fmt.Errorf("hpacml: ensemble member %d output shape %v != member 0's %v", i+1, s, shape)
		}
	}
	return shape, nil
}

// Infer runs every member over the batch into the engine's own
// scratch, writes the member mean into out, and records per-row
// predictive variance for RowVariance.
func (e *EnsembleEngine) Infer(ctx context.Context, in, out *tensor.Tensor) error {
	n := out.Len()
	rows := 1
	if out.Rank() >= 1 {
		rows = out.Dim(0)
	}
	features := 0
	if rows > 0 {
		features = n / rows
	}
	if cap(e.rowVar) < rows {
		e.rowVar = make([]float64, rows)
	}
	e.rowVar = e.rowVar[:rows]
	if e.memberOut == nil || !tensor.SameShape(e.memberOut, out) {
		e.memberOut = tensor.New(out.Shape()...)
	}
	if cap(e.sum) < n {
		e.sum = make([]float64, n)
		e.sumSq = make([]float64, n)
	}
	sum, sumSq := e.sum[:n], e.sumSq[:n]
	for i := range sum {
		sum[i], sumSq[i] = 0, 0
	}
	for mi, m := range e.members {
		if err := m.Infer(ctx, in, e.memberOut); err != nil {
			return fmt.Errorf("hpacml: ensemble member %d: %w", mi, err)
		}
		for i, v := range e.memberOut.Data() {
			sum[i] += v
			sumSq[i] += v * v
		}
	}
	mf := float64(len(e.members))
	od := out.Data()
	for i := range od {
		od[i] = sum[i] / mf
	}
	for r := 0; r < rows; r++ {
		var acc float64
		for c := 0; c < features; c++ {
			i := r*features + c
			mean := sum[i] / mf
			v := sumSq[i]/mf - mean*mean
			// A member that emitted NaN (or overflowed) makes the feature
			// variance non-finite; the row must read as maximally
			// uncertain, never as zero variance.
			if math.IsNaN(v) || math.IsInf(v, 1) {
				acc = math.Inf(1)
				break
			}
			if v > 0 { // clamp the tiny negative values of cancellation
				acc += v
			}
		}
		if features > 0 {
			acc /= float64(features)
		}
		e.rowVar[r] = acc
	}
	return nil
}

// RowVariance returns the last Infer call's per-row predictive
// variance, valid until the next Infer.
func (e *EnsembleEngine) RowVariance() []float64 { return e.rowVar }

// RemoteExecution reports whether any member executes remotely.
func (e *EnsembleEngine) RemoteExecution() bool {
	for _, m := range e.members {
		if isRemote(m) {
			return true
		}
	}
	return false
}

// Refresh forwards to every member's refresh hook.
func (e *EnsembleEngine) Refresh() {
	for _, m := range e.members {
		if r, ok := m.(refresher); ok {
			r.Refresh()
		}
	}
}

// Invalidate forwards to every member's invalidate hook.
func (e *EnsembleEngine) Invalidate() {
	for _, m := range e.members {
		if inv, ok := m.(invalidator); ok {
			inv.Invalidate()
		}
	}
}

// Close releases every member the ensemble owns.
func (e *EnsembleEngine) Close() error {
	var first error
	for _, m := range e.members {
		if c, ok := m.(io.Closer); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
