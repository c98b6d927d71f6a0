package hpacml

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
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
//
// StoreModel freezes m first (nn.Network.Freeze), so every engine that
// resolves it shares one copy of its packed weights. A published network
// must not be written afterwards: training it fails, and a write to its
// weights would go unseen. To change a model, load a fresh copy and
// publish that.
func StoreModel(path string, m *nn.Network) {
	m.Freeze()
	modelCache.Store(path, m)
}

// LocalEngine is the default backend: in-process inference on a
// network loaded from a .gmod file through the shared path-keyed model
// cache. It is the engine every region with a plain file path in its
// model() clause gets, and its behavior — cache sharing, refresh
// re-resolving from the cache without touching disk, invalidate
// evicting the cache entry — is exactly the model handling Region
// itself used to hard-wire. Every network it resolves is frozen before
// the cache publishes it, so batches read the weights packed once, and
// the network must not be written while it is published (see
// StoreModel).
//
// An engine opted into reduced precision compiles one program when it
// resolves the network — int8 if asked and its sidecar serves, else f32
// if asked and the model compiles, else none — and runs every
// contiguous rank-2 batch of the program's widths through it; anything
// else runs the float64 network. Precision and PrecisionReason are
// therefore final from Warmup until the next Refresh.
type LocalEngine struct {
	path string
	net  *nn.Network
	f32  bool
	i8   bool

	prog   *program // nil: batches run the float64 network
	reason string   // why the first precision asked for is not served
}

// program is a compiled reduced-precision forward pass over flat
// [rows, in] float64 slabs.
type program struct {
	precision string // "int8" or "f32"
	in, out   int
	forward   func(dst, x []float64, rows int) error
}

// LocalOption configures a LocalEngine at construction.
type LocalOption func(*LocalEngine)

// WithFloat32Inference makes the engine run batched inference in
// single precision through nn.Forward32, whose weights are converted to
// float32 once at load. It serves vector models (dense segments with
// elementwise layers between them) on contiguous [rows, in] batches;
// models the compiler refuses — CNNs, residual blocks — keep the
// float64 path, and PrecisionReason says why.
func WithFloat32Inference() LocalOption {
	return func(e *LocalEngine) { e.f32 = true }
}

// WithInt8Inference makes the engine run batched inference through the
// quantized int8 program compiled from the model's ".quant" sidecar
// (written by hpacml-quant after a gated calibration fit). The sidecar
// is resolved beside the model file at load, exactly like the
// guardrail's ".guard" convention. The path only activates when the
// sidecar exists, decodes, carries a passing accuracy-gate verdict, and
// compiles against the loaded network; any failure keeps the wider path
// (f32 if also enabled, else float64) and is reported by
// PrecisionReason, so enabling int8 never changes which calls succeed —
// only their precision and speed.
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

// Precision reports which program batches run on the currently
// resolved model: "int8", "f32" or "f64". It is the outcome, not the
// request — a missing, corrupt or gate-failed sidecar, or a model the
// f32 compiler refused, reads as the wider path that actually serves.
// It is final after Warmup; before Warmup (or after Refresh) nothing is
// compiled and it reads "f64".
func (e *LocalEngine) Precision() string {
	if e.prog != nil {
		return e.prog.precision
	}
	return "f64"
}

// PrecisionReason says why the engine does not serve the first
// precision it was asked for: the int8 sidecar is missing, corrupt,
// gate-failed or does not fit the network, or the f32 compiler refused
// a layer. It is empty when that precision serves, when only float64
// was asked for, and before Warmup.
func (e *LocalEngine) PrecisionReason() string { return e.reason }

// Path returns the model path the engine loads from.
func (e *LocalEngine) Path() string { return e.path }

// Network returns the loaded network, or nil before warmup (or after
// Refresh). Stats layers use it to report parameter counts.
func (e *LocalEngine) Network() *nn.Network { return e.net }

// ensure resolves the network: the engine's own pointer, then the
// shared cache, then disk (freezing the load and publishing it for other
// engines; of two concurrent loads, the first published serves both).
// It then compiles the reduced-precision program the engine asked for.
func (e *LocalEngine) ensure() error {
	if e.net != nil {
		return nil
	}
	if e.path == "" {
		return fmt.Errorf("hpacml: local engine has no model path")
	}
	if cached, ok := modelCache.Load(e.path); ok {
		e.net = cached.(*nn.Network)
	} else {
		m, err := nn.Load(e.path)
		if err != nil {
			return err
		}
		m.Freeze()
		cached, _ := modelCache.LoadOrStore(e.path, m)
		e.net = cached.(*nn.Network)
	}
	e.prog, e.reason = nil, ""
	if e.i8 {
		if err := e.compileI8(); err != nil {
			e.reason = "int8: " + err.Error()
		}
	}
	if e.f32 && e.prog == nil {
		if f, err := nn.NewForward32(e.net); err != nil {
			if e.reason == "" {
				e.reason = "f32: " + err.Error()
			}
		} else {
			e.prog = &program{"f32", f.InDim(), f.OutDim(), f.ForwardFloat64}
		}
	}
	return nil
}

// compileI8 compiles the freshly resolved network into an int8 program
// from its ".quant" sidecar. Every failure — no sidecar on disk, a
// corrupt sidecar, a stamped-but-failed accuracy gate, a calibration
// that does not match the network's geometry or depth — is returned as
// the reason, not as an engine error: the engine keeps the wider path.
// The gate re-check here is the load-time half of the accuracy
// contract: the fit step refuses to write a failing sidecar, and the
// engine refuses to serve one even if it somehow appears.
func (e *LocalEngine) compileI8() error {
	qpath := nn.QuantPath(e.path)
	calib, err := nn.LoadQuant(qpath)
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("no sidecar at %s", qpath)
	}
	if err != nil {
		return err
	}
	if !calib.GatePassed() {
		return fmt.Errorf("sidecar %s failed its accuracy gate (error %g, tolerance %g)",
			qpath, calib.GateErr, calib.GateRTol)
	}
	f, err := nn.NewForwardI8(e.net, calib)
	if err != nil {
		return err
	}
	e.prog = &program{"int8", f.InDim(), f.OutDim(), f.Forward}
	return nil
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
	if p := e.prog; p != nil &&
		in.Rank() == 2 && out.Rank() == 2 && in.IsContiguous() && out.IsContiguous() &&
		in.Dim(1) == p.in && out.Dim(0) == in.Dim(0) && out.Dim(1) == p.out {
		return p.forward(out.Data(), in.Data(), in.Dim(0))
	}
	return e.net.ForwardInto(out, in)
}

// Refresh drops the engine's network pointer so the next use
// re-resolves from the shared cache — the replica-pool hot-reload swap,
// which must not re-read disk (a concurrent retrain could hand
// different replicas different or torn bytes for the same swap).
func (e *LocalEngine) Refresh() {
	e.net, e.prog, e.reason = nil, nil, ""
}

// Invalidate additionally evicts the shared cache entry, forcing the
// next load to re-read the file (e.g. after a new training round wrote
// it).
func (e *LocalEngine) Invalidate() {
	e.Refresh()
	if e.path != "" {
		modelCache.Delete(e.path)
	}
}
