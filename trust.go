package hpacml

import (
	"context"
	"fmt"
	"time"

	"repro/internal/directive"
	"repro/internal/tensor"
)

// This file is the trust-routing layer: the runtime half of the
// trust(...) directive clause. A gated FallbackEngine (input-domain
// guardrail and/or ensemble-variance threshold) reports per-row
// verdicts after each inference; the Region keeps the surrogate's
// output only for trusted rows, recomputes the rest with the accurate
// path, and hands the recomputed samples to the capture sink — so the
// inputs the surrogate handles worst are exactly the ones the next
// training round sees most.

// TrustConfig is the runtime form of the trust(...) clause, injectable
// with WithTrust (which overrides the annotation, the same precedence
// WithModel has over model()).
type TrustConfig struct {
	// MaxVariance engages the predictive-variance gate: rows whose
	// ensemble variance exceeds it are rejected. It requires an engine
	// that implements VarianceReporter (e.g. EnsembleEngine); 0
	// disables the gate.
	MaxVariance float64
	// Domain engages the input-domain guardrail gate: rows outside the
	// fitted envelope are rejected.
	Domain bool
	// GuardrailPath overrides where the domain gate loads its fitted
	// envelope from; empty defaults to GuardrailPath(modelPath), the
	// sidecar beside the .gmod. Remote model URIs have no local sidecar
	// and must set it explicitly.
	GuardrailPath string
}

// WithTrust configures per-row trust routing, overriding the region's
// trust(...) clause. At least one gate must be selected.
func WithTrust(cfg TrustConfig) Option {
	return func(r *Region) error {
		if cfg.MaxVariance < 0 {
			return fmt.Errorf("hpacml: WithTrust: negative variance threshold %g", cfg.MaxVariance)
		}
		if cfg.MaxVariance == 0 && !cfg.Domain {
			return fmt.Errorf("hpacml: WithTrust selects no gate (want MaxVariance > 0 and/or Domain)")
		}
		r.trust = &cfg
		return nil
	}
}

// ensureTrustEngine wires the resolved trust configuration into the
// engine: the engine is wrapped in a FallbackEngine if it is not one
// already, the variance threshold is set, and the guardrail sidecar is
// loaded for the domain gate. Runs once, lazily, after ensureEngine —
// the sidecar is a file read that must not happen at construction.
func (r *Region) ensureTrustEngine() error {
	if r.trust == nil || r.trustWired {
		return nil
	}
	fb, ok := r.engine.(*FallbackEngine)
	if !ok {
		fb = NewFallbackEngine(r.engine)
		// The wrapper inherits the wrapped engine's ownership: Close on
		// an owned chain releases the primary through the wrapper;
		// injected engines stay the caller's.
		r.setEngine(fb, r.engineOwned)
	}
	if fb.MaxVariance == 0 {
		fb.MaxVariance = r.trust.MaxVariance
	}
	if r.trust.Domain && fb.Guardrail == nil {
		path := r.trust.GuardrailPath
		if path == "" {
			if r.modelPath == "" || directive.IsRemoteModel(r.modelPath) {
				return fmt.Errorf("hpacml: region %q: trust(domain:on) needs a guardrail sidecar; set TrustConfig.GuardrailPath for remote models", r.name)
			}
			path = GuardrailPath(r.modelPath)
		}
		g, err := LoadGuardrail(path)
		if err != nil {
			return fmt.Errorf("hpacml: region %q: %w", r.name, err)
		}
		fb.Guardrail = g
	}
	r.trustWired = true
	return nil
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
func (r *Region) countTrust(rep *TrustReport, lo, hi int, keptTrusted bool) {
	for i := lo; i < hi && i < rep.Rows; i++ {
		switch {
		case rep.OOD[i]:
			r.stats.OutOfDomainRows++
		case rep.Uncertain[i]:
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
// policy and fails outright — server down mid-run, model unloadable,
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
	if r.sink == nil && r.dbPath == "" {
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
