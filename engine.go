package hpacml

import (
	"context"
	"fmt"
	"io"

	"repro/internal/tensor"
)

// Engine is the pluggable surrogate-execution backend of a Region. The
// annotation (the directives) stays fixed while the engine decides how
// inference actually runs — in-process on a loaded network
// (LocalEngine, the default), against a remote hpacml-serve instance
// (RemoteEngine, selected by an http(s):// model URI), or through a
// policy wrapper (FallbackEngine). Custom engines plug in with the
// WithEngine option.
//
// The Region drives an engine in a fixed sequence: Warmup once with the
// single-invocation input shape (resolve the model, probe the server,
// surface configuration errors before traffic), OutputShape whenever a
// staging buffer must be allocated for a new input shape, then Infer
// per invocation or batch. Like the Region itself, an engine is driven
// from one goroutine at a time; engines shared across regions must
// synchronize any mutable state of their own.
type Engine interface {
	// Infer applies the surrogate to in, writing the result into out.
	// Both tensors are pre-shaped by the Region (out according to
	// OutputShape) and contiguous. The context carries the caller's
	// deadline and cancellation — remote engines must thread it through
	// to the wire, local engines should honor it before heavy compute.
	Infer(ctx context.Context, in, out *tensor.Tensor) error

	// OutputShape maps a full input-tensor shape (leading dim is the
	// entry/batch dimension) to the output shape the engine will
	// produce, validating the input shape against the model.
	OutputShape(in []int) ([]int, error)

	// Warmup prepares the engine for the region's single-invocation
	// input shape: load the model, resolve the remote registry entry,
	// validate dimensions. The Region calls it before first use and
	// again after RefreshModel; it must be cheap when already warm.
	Warmup(ctx context.Context, inShape []int) error
}

// refresher is the optional hook RefreshModel forwards to: drop any
// resolved model state so the next Warmup re-resolves it (the local
// engine re-reads the shared cache; the remote engine re-queries the
// registry).
type refresher interface{ Refresh() }

// invalidator is the optional hook InvalidateModel forwards to: like
// Refresh, but also evict any shared cache entry so the next load
// reaches the source of truth (disk, for the local engine).
type invalidator interface{ Invalidate() }

// remoteExecutor marks engines whose inference leaves the process; the
// Region counts their successful invocations in Stats.RemoteInference.
type remoteExecutor interface{ RemoteExecution() bool }

// fallbackPolicy marks engines that ask the Region to run the accurate
// code path when inference fails (FallbackEngine).
type fallbackPolicy interface{ FallbackToAccurate() bool }

// isRemote reports whether e (unwrapping nothing — wrappers implement
// the marker themselves) executes remotely.
func isRemote(e Engine) bool {
	re, ok := e.(remoteExecutor)
	return ok && re.RemoteExecution()
}

// wantsFallback reports whether e engages the accurate-fallback policy.
func wantsFallback(e Engine) bool {
	fp, ok := e.(fallbackPolicy)
	return ok && fp.FallbackToAccurate()
}

// TrustReport is one Infer call's per-row trust verdict, produced by a
// gated FallbackEngine and consumed by the Region's routing: rows the
// report rejects are recomputed by the accurate path and recaptured
// for retraining instead of keeping the surrogate's output. The slices
// are indexed by input row (the leading tensor dimension) and are
// reused across Infer calls — snapshot them if they must outlive the
// next inference.
type TrustReport struct {
	// Rows is the row count of the gated batch.
	Rows int
	// OOD marks rows whose input fell outside the guardrail envelope.
	OOD []bool
	// Uncertain marks rows whose predictive variance exceeded the
	// engine's MaxVariance threshold.
	Uncertain []bool
	// Variance is the per-row predictive variance the primary engine
	// reported; nil when the primary measures none.
	Variance []float64
}

// reset re-sizes the report for rows and clears all verdicts.
func (t *TrustReport) reset(rows int) {
	if cap(t.OOD) < rows {
		t.OOD = make([]bool, rows)
		t.Uncertain = make([]bool, rows)
	}
	t.OOD, t.Uncertain = t.OOD[:rows], t.Uncertain[:rows]
	for i := 0; i < rows; i++ {
		t.OOD[i], t.Uncertain[i] = false, false
	}
	t.Variance = nil
	t.Rows = rows
}

// Untrusted reports whether row i was rejected by either gate.
func (t *TrustReport) Untrusted(i int) bool { return t.OOD[i] || t.Uncertain[i] }

// AnyUntrusted reports whether any row was rejected.
func (t *TrustReport) AnyUntrusted() bool { return t.anyUntrusted(0, t.Rows) }

// anyUntrusted reports whether any row of [lo, hi) was rejected.
func (t *TrustReport) anyUntrusted(lo, hi int) bool {
	for i := lo; i < hi && i < t.Rows; i++ {
		if t.OOD[i] || t.Uncertain[i] {
			return true
		}
	}
	return false
}

// trustReporter is implemented by engines that gate their predictions
// row by row; the Region reads the report after each successful Infer
// and routes rejected rows to the accurate path.
type trustReporter interface{ TrustReport() *TrustReport }

// FallbackEngine wraps a primary engine with the paper's predicated
// conditional execution extended to distributed deployments: when the
// primary engine fails — the server is down, the model cannot load, or
// the caller's context deadline expired — the Region runs the accurate
// code path for that invocation instead of failing it, and counts the
// event in Stats.Fallbacks. Regions whose model() clause carries an
// http(s):// URI get this wrapper automatically; wrap any engine
// yourself (including a LocalEngine) to opt a custom engine in.
//
// The wrapper is also where per-row trust gating lives. With Guardrail
// set, every input row is checked against the fitted domain envelope
// before its prediction may be kept; with MaxVariance > 0 (and a
// primary that implements VarianceReporter, e.g. EnsembleEngine), rows
// whose predictive variance exceeds the threshold are rejected. The
// verdicts surface through TrustReport; the Region recomputes rejected
// rows with the accurate path and hands them to the capture sink for
// retraining. Regions configure both gates from their trust(...)
// clause or the WithTrust option.
//
// The failure fallback needs the accurate closure, so it applies to
// Execute/ExecuteContext with a non-nil accurate function and to
// ExecuteBatchRouted; plain ExecuteBatch has no accurate form
// (independent invocations only the surrogate can batch), so batched
// engine errors there still propagate to the caller.
type FallbackEngine struct {
	// Primary executes inference when it can.
	Primary Engine

	// Guardrail, when non-nil, rejects rows whose input falls outside
	// the fitted domain envelope (trust(domain:on)).
	Guardrail *Guardrail

	// MaxVariance, when positive, rejects rows whose predictive
	// variance exceeds it (trust(var:V)). The primary must implement
	// VarianceReporter; Warmup rejects the configuration otherwise.
	MaxVariance float64

	report      TrustReport
	gatedReport *TrustReport // nil when the last Infer ran ungated
}

// NewFallbackEngine wraps primary with the accurate-fallback policy
// (and no trust gates; set Guardrail/MaxVariance to engage them).
func NewFallbackEngine(primary Engine) *FallbackEngine {
	return &FallbackEngine{Primary: primary}
}

// gated reports whether any trust gate is configured.
func (f *FallbackEngine) gated() bool { return f.Guardrail != nil || f.MaxVariance > 0 }

// Infer delegates to the primary engine, then applies the configured
// trust gates row by row; the Region applies the fallback policy on
// error and the routing policy on the trust report.
func (f *FallbackEngine) Infer(ctx context.Context, in, out *tensor.Tensor) error {
	f.gatedReport = nil
	if !f.gated() {
		return f.Primary.Infer(ctx, in, out)
	}
	rows := 1
	if in.Rank() >= 1 {
		rows = in.Dim(0)
	}
	f.report.reset(rows)
	if f.Guardrail != nil {
		if _, err := f.Guardrail.Check(in, f.report.OOD); err != nil {
			return err
		}
	}
	if err := f.Primary.Infer(ctx, in, out); err != nil {
		return err
	}
	if f.MaxVariance > 0 {
		if vr, ok := f.Primary.(VarianceReporter); ok {
			if v := vr.RowVariance(); len(v) == rows {
				f.report.Variance = v
				for i, x := range v {
					f.report.Uncertain[i] = x > f.MaxVariance
				}
			}
		}
	}
	f.gatedReport = &f.report
	return nil
}

// TrustReport returns the per-row verdicts of the last Infer call, or
// nil when no gate is configured (every row trusted).
func (f *FallbackEngine) TrustReport() *TrustReport { return f.gatedReport }

// OutputShape delegates to the primary engine.
func (f *FallbackEngine) OutputShape(in []int) ([]int, error) {
	return f.Primary.OutputShape(in)
}

// Warmup delegates to the primary engine and validates the trust
// configuration: a variance gate over a primary that measures no
// variance would silently never fire, so it is rejected here, before
// traffic.
func (f *FallbackEngine) Warmup(ctx context.Context, inShape []int) error {
	if f.MaxVariance > 0 {
		if _, ok := f.Primary.(VarianceReporter); !ok {
			return fmt.Errorf("hpacml: trust variance gate needs an engine that reports predictive variance (e.g. EnsembleEngine); %T does not", f.Primary)
		}
	}
	return f.Primary.Warmup(ctx, inShape)
}

// FallbackToAccurate engages the Region's accurate-fallback policy.
func (f *FallbackEngine) FallbackToAccurate() bool { return true }

// RemoteExecution reports whether the wrapped engine executes remotely.
func (f *FallbackEngine) RemoteExecution() bool { return isRemote(f.Primary) }

// Refresh forwards to the primary engine's refresh hook, if any.
func (f *FallbackEngine) Refresh() {
	if r, ok := f.Primary.(refresher); ok {
		r.Refresh()
	}
}

// Invalidate forwards to the primary engine's invalidate hook, if any.
func (f *FallbackEngine) Invalidate() {
	if inv, ok := f.Primary.(invalidator); ok {
		inv.Invalidate()
	}
}

// Close releases the primary engine's resources, if it holds any.
func (f *FallbackEngine) Close() error {
	if c, ok := f.Primary.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// WithEngine injects a surrogate-execution engine, overriding the
// default the region would derive from its model() clause (LocalEngine
// for file paths, a fallback-wrapped RemoteEngine for http(s) URIs).
// The region does not take ownership: Close never closes an injected
// engine, so one engine may serve several regions — sequentially, or
// concurrently only if the engine itself is safe for that.
func WithEngine(e Engine) Option {
	return func(r *Region) error {
		r.setEngine(e, false)
		return nil
	}
}
