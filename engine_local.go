package hpacml

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// modelCache shares loaded models across local engines keyed by path,
// matching the paper's "loads the model file if it has not already been
// loaded". It lives with the local backend: remote engines and engines
// built by NewLocalEngineFor never touch it.
var modelCache sync.Map // string -> *cachedModel

// ClearModelCache drops all cached models (used by tests and the
// model-cache ablation benchmark).
func ClearModelCache() { modelCache = sync.Map{} }

// cachedModel is one loaded model: the frozen network and the
// reduced-precision programs compiled from it. Each program is compiled
// at most once per entry and shared by every engine that resolves the
// entry (ForwardI8 and Forward32 are safe for concurrent use).
type cachedModel struct {
	path string
	net  *nn.Network
	// quant holds the ".quant" sidecar's bytes as read with the network
	// (nil: there was none) once quantRead is set, as NewLocalEngineFor
	// sets it; an entry loaded from disk reads them at its first int8
	// compile instead.
	quant     []byte
	quantRead bool

	i8, f32 compiled
}

// compiled is one program of an entry, or why it cannot be built.
type compiled struct {
	once   sync.Once
	prog   *program
	reason string
}

func (c *compiled) get(build func() (*program, error)) (*program, string) {
	c.once.Do(func() {
		if p, err := build(); err != nil {
			c.reason = err.Error()
		} else {
			c.prog = p
		}
	})
	return c.prog, c.reason
}

// testHookCompileI8, when set, runs before each int8 compile (test
// seam: programs are compiled once per entry, not once per engine).
var testHookCompileI8 func(path string)

// program picks what an engine asking for int8 and/or f32 runs: int8
// if asked and its sidecar serves, else f32 if asked and the model
// compiles, else nil (float64), with the reason the first precision
// asked for is not served.
func (c *cachedModel) program(i8, f32 bool) (*program, string) {
	reason := ""
	if i8 {
		p, r := c.i8.get(c.compileI8)
		if p != nil {
			return p, ""
		}
		reason = "int8: " + r
	}
	if f32 {
		p, r := c.f32.get(func() (*program, error) {
			f, err := nn.NewForward32(c.net)
			if err != nil {
				return nil, err
			}
			return &program{"f32", f.InDim(), f.OutDim(), f.ForwardFloat64}, nil
		})
		if p != nil {
			return p, reason
		}
		if reason == "" {
			reason = "f32: " + r
		}
	}
	return nil, reason
}

// compileI8 compiles the network into an int8 program from its
// ".quant" sidecar. Every failure — no sidecar, a corrupt sidecar, a
// stamped-but-failed accuracy gate, a calibration fitted for other
// weights — is returned as the reason, not as an engine error: the
// engine keeps the wider path. The gate re-check here is the load-time
// half of the accuracy contract: the fit step refuses to write a
// failing sidecar, and the engine refuses to serve one even if it
// somehow appears.
func (c *cachedModel) compileI8() (*program, error) {
	qpath := nn.QuantPath(c.path)
	raw := c.quant
	if !c.quantRead {
		var err error
		if raw, err = os.ReadFile(qpath); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
	}
	if raw == nil {
		return nil, fmt.Errorf("no sidecar at %s", qpath)
	}
	calib, err := nn.DecodeQuant(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, qpath)
	}
	if !calib.GatePassed() {
		return nil, fmt.Errorf("sidecar %s failed its accuracy gate (error %g, tolerance %g)",
			qpath, calib.GateErr, calib.GateRTol)
	}
	if testHookCompileI8 != nil {
		testHookCompileI8(c.path)
	}
	f, err := nn.NewForwardI8(c.net, calib)
	if err != nil {
		return nil, err
	}
	return &program{"int8", f.InDim(), f.OutDim(), f.Forward}, nil
}

// resolveModel returns the cache entry for path, loading and freezing
// the file on a miss (of two concurrent loads, the first published
// serves both).
func resolveModel(path string) (*cachedModel, error) {
	if c, ok := modelCache.Load(path); ok {
		return c.(*cachedModel), nil
	}
	m, err := nn.Load(path)
	if err != nil {
		return nil, err
	}
	m.Freeze()
	c, _ := modelCache.LoadOrStore(path, &cachedModel{path: path, net: m})
	return c.(*cachedModel), nil
}

// LocalEngine is the default backend: in-process inference on a
// frozen network, so batches read the weights packed once.
//
// NewLocalEngine loads its network from a .gmod file through the shared
// path-keyed model cache. It is the engine every region with a plain
// file path in its model() clause gets, and its behavior — cache
// sharing, refresh re-resolving from the cache without touching disk,
// invalidate evicting the cache entry — is exactly the model handling
// Region itself used to hard-wire. NewLocalEngineFor instead serves a
// network the caller already decoded, from a private entry: the serving
// registry builds one per generation, and every replica runs it.
//
// An engine opted into reduced precision takes one program with the
// network — int8 if asked and its sidecar serves, else f32 if asked and
// the model compiles, else none — and runs every contiguous rank-2
// batch of the program's widths through it; anything else runs the
// float64 network. The entry compiles each program once, for every
// engine that shares it. Precision and PrecisionReason are final from
// Warmup until the next Refresh.
//
// Like every engine it is driven from one goroutine at a time, with one
// exception: once Warmup has returned, Infer only reads the engine and
// its network and program, which are safe for concurrent use, so many
// goroutines may call Infer on it as long as none calls Refresh or
// Invalidate.
type LocalEngine struct {
	path string
	own  *cachedModel // NewLocalEngineFor's private entry; nil: resolve path through the cache
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
// sidecar exists, decodes, carries a passing accuracy-gate verdict, was
// fitted on exactly the loaded weights, and compiles; any failure keeps
// the wider path
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

// NewLocalEngineFor builds a local engine that serves net, already
// decoded from the file at path, with quant the bytes of that file's
// ".quant" sidecar (nil when there is none). The engine owns its entry:
// it never reads or writes the model cache, so its Refresh re-takes the
// network and program from that entry and its Invalidate evicts
// nothing, and it reads no file — the int8 program is compiled from
// quant. path only names the sidecar in PrecisionReason.
//
// NewLocalEngineFor freezes net (nn.Network.Freeze). The network must
// not be written afterwards: training it fails, and a write to its
// weights would go unseen. To change a model, decode a fresh copy and
// build a new engine.
func NewLocalEngineFor(path string, net *nn.Network, quant []byte, opts ...LocalOption) *LocalEngine {
	net.Freeze()
	e := NewLocalEngine(path, opts...)
	e.own = &cachedModel{path: path, net: net, quant: quant, quantRead: true}
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

// ensure resolves the network and the program the engine asked for
// from its own entry or the shared cache entry (loading it on a miss);
// the entry compiles each program once for every engine that shares it.
func (e *LocalEngine) ensure() error {
	if e.net != nil {
		return nil
	}
	c := e.own
	if c == nil {
		if e.path == "" {
			return fmt.Errorf("hpacml: local engine has no model path")
		}
		var err error
		if c, err = resolveModel(e.path); err != nil {
			return err
		}
	}
	e.net = c.net
	e.prog, e.reason = c.program(e.i8, e.f32)
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
// re-resolves from the shared cache without re-reading disk (an engine
// built by NewLocalEngineFor re-resolves its own entry).
func (e *LocalEngine) Refresh() {
	e.net, e.prog, e.reason = nil, nil, ""
}

// Invalidate additionally evicts the shared cache entry, forcing the
// next load to re-read the file (e.g. after a new training round wrote
// it). An engine built by NewLocalEngineFor has no cache entry to
// evict.
func (e *LocalEngine) Invalidate() {
	e.Refresh()
	if e.own == nil && e.path != "" {
		modelCache.Delete(e.path)
	}
}
