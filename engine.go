package hpacml

import (
	"context"

	"repro/internal/tensor"
)

// Engine is the pluggable surrogate-execution backend of a Region. The
// annotation (the directives) stays fixed while the engine decides how
// inference actually runs — in-process on a loaded network
// (LocalEngine, the default), or against a remote hpacml-serve instance
// (RemoteEngine, selected by an http(s):// model URI). Custom engines
// plug in with the WithEngine option. What happens when an engine
// fails is the annotation's business, not the engine's: a region whose
// model() is an http(s):// URI, or that carries a trust(...) clause,
// runs its accurate path instead; any other region returns the error.
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

// WithEngine injects a surrogate-execution engine, overriding the
// default the region would derive from its model() clause (LocalEngine
// for file paths, RemoteEngine for http(s) URIs). The fallback policy
// and remote counting still follow the model() clause, so an engine
// injected under a URI falls back and counts as remote. The region
// does not take ownership: Close never closes an injected engine, so
// one engine may serve several regions — sequentially, or concurrently
// only if the engine itself is safe for that.
func WithEngine(e Engine) Option {
	return func(r *Region) error {
		r.setEngine(e, false)
		return nil
	}
}
