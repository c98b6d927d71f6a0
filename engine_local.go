package hpacml

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// modelCache shares loaded models across local engines keyed by path,
// matching the paper's "loads the model file if it has not already been
// loaded". It lives with the local backend: remote engines never touch
// it, and the serving registry publishes validated networks into it
// with StoreModel so a whole replica pool swaps onto one object.
var modelCache sync.Map // string -> *nn.Network

// ClearModelCache drops all cached models (used by tests and the
// model-cache ablation benchmark).
func ClearModelCache() { modelCache = sync.Map{} }

// StoreModel publishes an already-loaded model under path in the shared
// local-engine model cache, so every region whose model() clause names
// that path resolves to this exact object on its next (re)load. The
// serving registry's hot reload validates one loaded network and then
// publishes it here, making the swap atomic across its replica pool.
func StoreModel(path string, m *nn.Network) { modelCache.Store(path, m) }

// LocalEngine is the default backend: in-process inference on a
// network loaded from a .gmod file through the shared path-keyed model
// cache. It is the engine every region with a plain file path in its
// model() clause gets, and its behavior — cache sharing, refresh
// re-resolving from the cache without touching disk, invalidate
// evicting the cache entry — is exactly the model handling Region
// itself used to hard-wire.
type LocalEngine struct {
	path  string
	net   *nn.Network
	f32   bool
	fwd32 *nn.Forward32
	i8    bool
	fwdI8 *nn.ForwardI8

	// Shaped f32 program for conv models, compiled lazily on the first
	// higher-rank batch (the sample shape is not known at load time).
	// shapedSample remembers which shape the program — or the cached
	// compile failure — belongs to.
	fwdShaped    *nn.Forward32
	shapedSample []int
	shapedFailed bool
}

// LocalOption configures a LocalEngine at construction.
type LocalOption func(*LocalEngine)

// WithFloat32Inference makes the engine run batched inference in
// single precision: the network's weights are converted to float32
// once at load, and rank-2 batches then run through the flat f32
// kernels (nn.Forward32) instead of the float64 tensor path. Conv
// models compile lazily on the first higher-rank contiguous batch via
// nn.NewForward32Shaped (the per-sample shape is only known then);
// models neither compiler supports silently keep the float64 path, as
// do non-contiguous inputs.
func WithFloat32Inference() LocalOption {
	return func(e *LocalEngine) { e.f32 = true }
}

// WithInt8Inference makes the engine run batched inference through the
// quantized int8 program compiled from the model's ".quant" sidecar
// (written by hpacml-quant after a gated calibration fit). The sidecar
// is resolved beside the model file at load, exactly like the
// guardrail's ".guard" convention. The path only activates when the
// sidecar exists, decodes, carries a passing accuracy-gate verdict, and
// compiles against the loaded network; any failure silently keeps the
// wider path (f32 if also enabled, else float64), so enabling int8
// never changes which calls succeed — only their precision and speed.
func WithInt8Inference() LocalOption {
	return func(e *LocalEngine) { e.i8 = true }
}

// NewLocalEngine builds a local engine for a .gmod path. The file is
// not touched until Warmup (or the first inference).
func NewLocalEngine(path string, opts ...LocalOption) *LocalEngine {
	e := &LocalEngine{path: path}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Float32 reports whether the engine was built with
// WithFloat32Inference.
func (e *LocalEngine) Float32() bool { return e.f32 }

// Int8 reports whether the engine was built with WithInt8Inference.
// Note this is the request, not the outcome: a missing or gate-failed
// sidecar leaves the engine serving in wide precision regardless.
func (e *LocalEngine) Int8() bool { return e.i8 }

// Precision reports which program a contiguous rank-2 batch runs on
// the currently resolved model: "int8", "f32" or "f64". Unlike Int8
// and Float32 it is the outcome, not the request — a missing, corrupt
// or gate-failed sidecar, or a model a compiler refused, reads as the
// wider path that actually serves. Before Warmup (or after Refresh)
// nothing is compiled and it reads "f64".
func (e *LocalEngine) Precision() string {
	switch {
	case e.fwdI8 != nil:
		return "int8"
	case e.fwd32 != nil:
		return "f32"
	}
	return "f64"
}

// Path returns the model path the engine loads from.
func (e *LocalEngine) Path() string { return e.path }

// Network returns the loaded network, or nil before warmup (or after
// Refresh). Stats layers use it to report parameter counts.
func (e *LocalEngine) Network() *nn.Network { return e.net }

// ensure resolves the network: the engine's own pointer, then the
// shared cache, then disk (publishing the load for other engines).
func (e *LocalEngine) ensure() error {
	if e.net != nil {
		return nil
	}
	if e.path == "" {
		return fmt.Errorf("hpacml: local engine has no model path")
	}
	if cached, ok := modelCache.Load(e.path); ok {
		e.net = cached.(*nn.Network)
		e.compile32()
		e.compileI8()
		return nil
	}
	m, err := nn.Load(e.path)
	if err != nil {
		return err
	}
	modelCache.Store(e.path, m)
	e.net = m
	e.compile32()
	e.compileI8()
	return nil
}

// compile32 snapshots the freshly resolved network into a float32
// program when the engine opted in. Compilation failure (unsupported
// layers) is not an error: the engine keeps the float64 path.
func (e *LocalEngine) compile32() {
	e.fwd32 = nil
	e.fwdShaped, e.shapedSample, e.shapedFailed = nil, nil, false
	if !e.f32 {
		return
	}
	if f, err := nn.NewForward32(e.net); err == nil {
		e.fwd32 = f
	}
}

// compileI8 compiles the freshly resolved network into an int8 program
// from its ".quant" sidecar when the engine opted in. Every failure —
// no sidecar on disk, a corrupt sidecar, a stamped-but-failed accuracy
// gate, a calibration that does not match the network's geometry — is
// deliberately not an error: the engine keeps the wider path. The gate
// re-check here is the load-time half of the accuracy contract: the fit
// step refuses to write a failing sidecar, and the engine refuses to
// serve one even if it somehow appears.
func (e *LocalEngine) compileI8() {
	e.fwdI8 = nil
	if !e.i8 || e.path == "" {
		return
	}
	calib, err := nn.LoadQuant(nn.QuantPath(e.path))
	if err != nil || !calib.GatePassed() {
		return
	}
	if f, err := nn.NewForwardI8(e.net, calib); err == nil {
		e.fwdI8 = f
	}
}

// Warmup loads the model (via the shared cache) so load errors surface
// before traffic. The input shape needs no validation here: the
// network's own shape checks run in OutputShape and Infer.
func (e *LocalEngine) Warmup(ctx context.Context, inShape []int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return e.ensure()
}

// OutputShape maps the full input shape to the network's output shape:
// the leading entry/batch dimension passes through, the per-sample
// remainder goes through the network's layer shape propagation.
func (e *LocalEngine) OutputShape(in []int) ([]int, error) {
	if err := e.ensure(); err != nil {
		return nil, err
	}
	if len(in) < 2 {
		return nil, fmt.Errorf("hpacml: local engine wants a batched input shape, got %v", in)
	}
	sample, err := e.net.OutShape(in[1:])
	if err != nil {
		return nil, err
	}
	return append([]int{in[0]}, sample...), nil
}

// Infer runs the network's zero-allocation inference pass into out.
func (e *LocalEngine) Infer(ctx context.Context, in, out *tensor.Tensor) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := e.ensure(); err != nil {
		return err
	}
	if f := e.fwdI8; f != nil &&
		in.Rank() == 2 && out.Rank() == 2 && in.IsContiguous() && out.IsContiguous() &&
		in.Dim(1) == f.InDim() && out.Dim(0) == in.Dim(0) && out.Dim(1) == f.OutDim() {
		return f.Forward(out.Data(), in.Data(), in.Dim(0))
	}
	if f := e.fwd32; f != nil &&
		in.Rank() == 2 && out.Rank() == 2 && in.IsContiguous() && out.IsContiguous() &&
		in.Dim(1) == f.InDim() && out.Dim(0) == in.Dim(0) && out.Dim(1) == f.OutDim() {
		return f.ForwardFloat64(out.Data(), in.Data(), in.Dim(0))
	}
	if e.f32 && e.fwd32 == nil && in.Rank() >= 2 && out.Rank() >= 2 &&
		in.IsContiguous() && out.IsContiguous() && out.Dim(0) == in.Dim(0) {
		if f := e.shaped(in.Shape()[1:]); f != nil &&
			in.Len() == in.Dim(0)*f.InDim() && out.Len() == in.Dim(0)*f.OutDim() {
			return f.ForwardFloat64(out.Data(), in.Data(), in.Dim(0))
		}
	}
	return e.net.ForwardInto(out, in)
}

// shaped returns the f32 program compiled for the given per-sample
// shape, compiling on first use and caching one program (and one
// failure verdict) per shape — batches with a new sample shape
// recompile, repeated shapes pay nothing. A nil return means "use the
// float64 path for this batch".
func (e *LocalEngine) shaped(sample []int) *nn.Forward32 {
	if sameInts(e.shapedSample, sample) {
		if e.shapedFailed {
			return nil
		}
		return e.fwdShaped
	}
	e.shapedSample = append([]int(nil), sample...)
	f, err := nn.NewForward32Shaped(e.net, sample)
	if err != nil {
		e.fwdShaped, e.shapedFailed = nil, true
		return nil
	}
	e.fwdShaped, e.shapedFailed = f, false
	return f
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Refresh drops the engine's network pointer so the next use
// re-resolves from the shared cache — the replica-pool hot-reload swap,
// which must not re-read disk (a concurrent retrain could hand
// different replicas different or torn bytes for the same swap).
func (e *LocalEngine) Refresh() {
	e.net, e.fwd32, e.fwdI8 = nil, nil, nil
	e.fwdShaped, e.shapedSample, e.shapedFailed = nil, nil, false
}

// Invalidate additionally evicts the shared cache entry, forcing the
// next load to re-read the file (e.g. after a new training round wrote
// it).
func (e *LocalEngine) Invalidate() {
	e.net, e.fwd32, e.fwdI8 = nil, nil, nil
	e.fwdShaped, e.shapedSample, e.shapedFailed = nil, nil, false
	if e.path != "" {
		modelCache.Delete(e.path)
	}
}
