package hpacml

import (
	"context"
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
	// again after InvalidateModel; it must be cheap when already warm.
	Warmup(ctx context.Context, inShape []int) error
}

// refresher is the optional hook InvalidateModel runs first: drop any
// resolved model state so the next Warmup re-resolves it (the local
// engine re-reads the shared cache; the remote engine re-queries the
// registry).
type refresher interface{ Refresh() }

// invalidator is the optional hook InvalidateModel runs next: like
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

// FallbackEngine wraps a primary engine with the paper's predicated
// conditional execution extended to distributed deployments: when the
// primary engine fails — the server is down, the model cannot load, or
// the caller's context deadline expired — the Region runs the accurate
// code path for that invocation instead of failing it, and counts the
// event in Stats.Fallbacks. Regions whose model() clause carries an
// http(s):// URI get this wrapper automatically, and trust-gated
// regions fall back on their own; wrap any engine yourself (including a
// LocalEngine) to opt a custom engine in.
//
// The fallback needs the accurate closure, so it applies to
// Execute/ExecuteContext with a non-nil accurate function and to
// ExecuteBatchRouted; plain ExecuteBatch has no accurate form
// (independent invocations only the surrogate can batch), so batched
// engine errors there still propagate to the caller.
type FallbackEngine struct {
	// Primary executes inference when it can.
	Primary Engine
}

// NewFallbackEngine wraps primary with the accurate-fallback policy.
func NewFallbackEngine(primary Engine) *FallbackEngine {
	return &FallbackEngine{Primary: primary}
}

// Infer delegates to the primary engine; the Region applies the
// fallback policy on error.
func (f *FallbackEngine) Infer(ctx context.Context, in, out *tensor.Tensor) error {
	return f.Primary.Infer(ctx, in, out)
}

// OutputShape delegates to the primary engine.
func (f *FallbackEngine) OutputShape(in []int) ([]int, error) {
	return f.Primary.OutputShape(in)
}

// Warmup delegates to the primary engine.
func (f *FallbackEngine) Warmup(ctx context.Context, inShape []int) error {
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
