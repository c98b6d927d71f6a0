package hpacml

import (
	"context"
	"fmt"
	"time"

	"repro/internal/directive"
	"repro/internal/tensor"
)

// This file is the trust-routing layer: the runtime half of the
// trust(...) directive clause. After each inference the Region judges
// every input row against the clause's gates — the input-domain
// guardrail in the .guard sidecar beside the model, and the engine's
// per-row predictive variance — keeps the surrogate's output only for
// trusted rows, recomputes the rest with the accurate path, and hands
// the recomputed samples to the capture sink — so the inputs the
// surrogate handles worst are exactly the ones the next training round
// sees most.

// trustReport is one inference's per-row trust verdict, indexed by
// input row (the leading tensor dimension) and reused across
// inferences: ood marks rows whose input fell outside the guardrail
// envelope, uncertain rows whose predictive variance was not within the
// clause's var: threshold.
type trustReport struct{ ood, uncertain []bool }

// reset re-sizes the report for rows and clears all verdicts.
func (t *trustReport) reset(rows int) {
	if cap(t.ood) < rows {
		t.ood = make([]bool, rows)
		t.uncertain = make([]bool, rows)
	}
	t.ood, t.uncertain = t.ood[:rows], t.uncertain[:rows]
	clear(t.ood)
	clear(t.uncertain)
}

// anyUntrusted reports whether any row of [lo, hi) was rejected.
func (t *trustReport) anyUntrusted(lo, hi int) bool {
	for i := lo; i < hi; i++ {
		if t.ood[i] || t.uncertain[i] {
			return true
		}
	}
	return false
}

// ensureTrust resolves the trust(...) clause's gates once, at the first
// inference, after ensureEngine: the engine's VarianceReporter, and the
// guardrail sidecar beside the model() file (a file read that must not
// happen at construction). A gate that could never judge a row — no
// variance to read, no local sidecar, a sidecar fitted on another input
// width — is a configuration error on every entry point, never an
// engine failure that falls back.
func (r *Region) ensureTrust() error {
	t := r.ml.Trust
	if t == nil || r.trustReady {
		return nil
	}
	if t.MaxVariance > 0 {
		e := r.engine
		if fb, ok := e.(*FallbackEngine); ok {
			e = fb.Primary
		}
		vr, ok := e.(VarianceReporter)
		if !ok {
			return fmt.Errorf("hpacml: region %q: trust variance gate needs an engine that reports predictive variance (e.g. EnsembleEngine); %T does not", r.name, e)
		}
		r.variance = vr
	}
	if t.Domain {
		if r.ml.Model == "" || directive.IsRemoteModel(r.ml.Model) {
			return fmt.Errorf("hpacml: region %q: trust(domain:on) needs a guardrail sidecar beside a local model() file", r.name)
		}
		path := GuardrailPath(r.ml.Model)
		g, err := LoadGuardrail(path)
		if err != nil {
			return fmt.Errorf("hpacml: region %q: %w", r.name, err)
		}
		shape, err := r.InputShape()
		if err != nil {
			return err
		}
		if width := tensor.NumElements(shape) / shape[0]; g.Features() != width {
			return fmt.Errorf("hpacml: region %q: guardrail %s fitted on %d features, region input rows have %d", r.name, path, g.Features(), width)
		}
		r.guard = g
	}
	r.trustReady = true
	return nil
}

// judge computes the trust verdicts of the inference that just ran on
// x: domain from the guardrail, variance from the engine. A row is
// uncertain unless its variance is <= the threshold, so a NaN never
// reads as trusted, and a variance report of the wrong length is an
// inference error. Ungated regions get a nil report.
func (r *Region) judge(x *tensor.Tensor) (*trustReport, error) {
	if r.ml.Trust == nil {
		return nil, nil
	}
	rows := inputRows(x)
	rep := &r.verdicts
	rep.reset(rows)
	if r.guard != nil {
		if _, err := r.guard.Check(x, rep.ood); err != nil {
			return nil, err
		}
	}
	if r.variance != nil {
		v := r.variance.RowVariance()
		if len(v) != rows {
			return nil, fmt.Errorf("engine reported %d row variances for %d rows", len(v), rows)
		}
		for i, vi := range v {
			rep.uncertain[i] = !(vi <= r.ml.Trust.MaxVariance)
		}
	}
	return rep, nil
}

// inputRows is the trust-accounting row count of a model input tensor:
// its leading (entry/batch) dimension.
func inputRows(x *tensor.Tensor) int {
	if x.Rank() >= 1 {
		return x.Dim(0)
	}
	return 1
}

// countTrust folds the verdicts of report rows [lo, hi) into the stats
// counters. The domain verdict wins when a row tripped both gates.
// keptTrusted says whether the trusted rows' surrogate outputs were
// actually used (false when the invocation was routed to the accurate
// path, which discards them).
func (r *Region) countTrust(rep *trustReport, lo, hi int, keptTrusted bool) {
	for i := lo; i < hi; i++ {
		switch {
		case rep.ood[i]:
			r.stats.OutOfDomainRows++
		case rep.uncertain[i]:
			r.stats.UncertainRows++
		default:
			if keptTrusted {
				r.stats.TrustedRows++
			}
		}
	}
}

// ExecuteBatchRouted is ExecuteBatch with per-invocation trust routing
// and accurate fallback: the surrogate predicts the whole batch once,
// then each invocation whose rows the trust gates accept is scattered
// back as usual, while invocations with any rejected row are re-staged
// (stage(i) must be repeatable), recomputed by accurate(i), and
// recaptured through the sink. When the engine carries the fallback
// policy (or the region a trust clause) and fails outright — server down mid-run, model unloadable,
// context expired — the entire batch degrades to the accurate path
// invocation by invocation (counted in Stats.Fallbacks), so no
// invocation is ever lost to an engine failure.
//
// The callbacks see exactly one ordering guarantee: each invocation's
// application state is staged/scattered immediately before its
// finish(i) call, in index order. stage and finish may be nil;
// accurate must not be.
func (r *Region) ExecuteBatchRouted(ctx context.Context, n int, stage func(i int) error, accurate func(i int) error, finish func(i int) error) error {
	if accurate == nil {
		return fmt.Errorf("hpacml: ExecuteBatchRouted in region %q needs an accurate callback (use ExecuteBatch otherwise)", r.name)
	}
	return r.executeBatch(ctx, n, stage, accurate, finish, true)
}

// routeInvocationAccurate recomputes one batched invocation on the
// accurate path: re-stage its inputs, run accurate(i) through the
// region's capture step, so the recomputed sample is recaptured — the
// retraining loop's feedstock — and finish. Regions with no capture
// target (no db() clause, no injected sink) keep the routing but skip
// the capture.
func (r *Region) routeInvocationAccurate(i int, stage, accurate, finish func(int) error) error {
	if stage != nil {
		if err := stage(i); err != nil {
			return fmt.Errorf("hpacml: batch stage %d in region %q: %w", i, r.name, err)
		}
	}
	run := func() error {
		if err := accurate(i); err != nil {
			return fmt.Errorf("hpacml: batch accurate %d in region %q: %w", i, r.name, err)
		}
		return nil
	}
	var err error
	if r.sink == nil && r.ml.DB == "" {
		err = r.runAccurate(run)
	} else {
		err = r.collect(run)
	}
	if err != nil {
		return err
	}
	if finish != nil {
		if err := finish(i); err != nil {
			return fmt.Errorf("hpacml: batch finish %d in region %q: %w", i, r.name, err)
		}
	}
	return nil
}

// degradeBatch is the routed batch's engine-failure path: every
// invocation runs accurately, in order, so a flapping or dead backend
// costs surrogate speedup, never rows. No recapture happens here —
// these are fallbacks (the engine failed), not trust rejections (the
// model answered and was overruled).
func (r *Region) degradeBatch(n int, stage, accurate, finish func(int) error, batched bool) error {
	for i := 0; i < n; i++ {
		if stage != nil {
			if err := stage(i); err != nil {
				return fmt.Errorf("hpacml: batch stage %d in region %q: %w", i, r.name, err)
			}
		}
		start := time.Now()
		if err := accurate(i); err != nil {
			return fmt.Errorf("hpacml: batch accurate %d in region %q: %w", i, r.name, err)
		}
		r.stats.Accurate += time.Since(start)
		r.stats.AccurateRuns++
		r.stats.Fallbacks++
		if batched {
			r.stats.Invocations++
		}
		if finish != nil {
			if err := finish(i); err != nil {
				return fmt.Errorf("hpacml: batch finish %d in region %q: %w", i, r.name, err)
			}
		}
	}
	return nil
}
