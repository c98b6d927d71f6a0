package hpacml

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/nn"
	"repro/internal/serveapi"
	"repro/internal/tensor"
)

// fitI8Sidecar saves the net, fits a gated calibration on slab rows,
// and writes the ".quant" sidecar beside the model — the exact artifact
// chain hpacml-quant produces.
func fitI8Sidecar(t *testing.T, net *nn.Network, path string, cfg QuantFitConfig) {
	t.Helper()
	if err := net.Save(path); err != nil {
		t.Fatal(err)
	}
	calib, err := FitQuant(net, quantSlab(21, 400, 5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := calib.SaveQuant(nn.QuantPath(path)); err != nil {
		t.Fatal(err)
	}
}

// TestLocalEngineInt8 checks the engine-level int8 contract: opted-in
// engines auto-load the ".quant" sidecar beside the model and compile
// the int8 program, batched inference stays within the calibration's
// gate tolerance of the float64 engine, and Refresh/Invalidate drop the
// program with the network.
func TestLocalEngineInt8(t *testing.T) {
	ClearModelCache()
	path := filepath.Join(t.TempDir(), "m.gmod")
	net := quantTestNet(7)
	// The untrained net's near-zero outputs inflate the relative
	// metric, same as TestFitQuantFromDB; rtol 0.1 is the fit config,
	// not the engine's business — it just checks the stamped verdict.
	fitI8Sidecar(t, net, path, QuantFitConfig{RTol: 0.1})

	e8 := NewLocalEngine(path, WithInt8Inference())
	e64 := NewLocalEngine(path)
	ctx := context.Background()
	for _, e := range []*LocalEngine{e8, e64} {
		if err := e.Warmup(ctx, []int{4, 5}); err != nil {
			t.Fatal(err)
		}
	}
	if e8.Precision() != "int8" || e64.Precision() != "f64" {
		t.Fatalf("Precision() after load = %s / %s, want int8 / f64", e8.Precision(), e64.Precision())
	}

	const rows = 32
	in := quantSlab(29, rows, 5) // in-distribution with the calibration slab
	out8 := tensor.New(rows, 1)
	out64 := tensor.New(rows, 1)
	if err := e8.Infer(ctx, in, out8); err != nil {
		t.Fatal(err)
	}
	if err := e64.Infer(ctx, in, out64); err != nil {
		t.Fatal(err)
	}
	if e := nn.MeanRelL2(out8.Data(), out64.Data(), rows, 1); !(e < 0.15) {
		t.Fatalf("engine int8 drifted from float64: mean relative L2 %g", e)
	}
	// Quantization must actually be in the path: bitwise-equal outputs
	// would mean the engine silently served float64.
	same := true
	for i, got := range out8.Data() {
		if got != out64.Data()[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("int8 outputs bitwise-equal to float64 — quantized path not taken")
	}

	e8.Refresh()
	if e8.prog != nil {
		t.Fatal("Refresh must drop the int8 program")
	}
	if err := e8.Infer(ctx, in, out8); err != nil {
		t.Fatal(err)
	}
	if e8.Precision() != "int8" {
		t.Fatal("inference after Refresh must recompile the int8 program")
	}
	e8.Invalidate()
	if e8.prog != nil {
		t.Fatal("Invalidate must drop the int8 program")
	}
}

// TestLocalEngineInt8Fallback: no sidecar, a corrupt sidecar, or a
// hand-edited failing gate verdict all leave the engine serving the
// wide path — opting in never changes which calls succeed — and
// PrecisionReason names which of them it was.
func TestLocalEngineInt8Fallback(t *testing.T) {
	ctx := context.Background()
	run := func(t *testing.T, path, reason string) {
		e := NewLocalEngine(path, WithInt8Inference())
		if err := e.Warmup(ctx, []int{2, 5}); err != nil {
			t.Fatal(err)
		}
		if e.Precision() != "f64" {
			t.Fatalf("Precision() = %s, want f64", e.Precision())
		}
		if r := e.PrecisionReason(); !strings.HasPrefix(r, "int8: ") || !strings.Contains(r, reason) {
			t.Fatalf("PrecisionReason() = %q, want an int8 reason containing %q", r, reason)
		}
		in := tensor.New(2, 5)
		out := tensor.New(2, 1)
		if err := e.Infer(ctx, in, out); err != nil {
			t.Fatalf("wide-path fallback inference: %v", err)
		}
	}

	t.Run("no-sidecar", func(t *testing.T) {
		ClearModelCache()
		path := filepath.Join(t.TempDir(), "m.gmod")
		if err := quantTestNet(3).Save(path); err != nil {
			t.Fatal(err)
		}
		run(t, path, "no sidecar")
	})

	t.Run("corrupt-sidecar", func(t *testing.T) {
		ClearModelCache()
		path := filepath.Join(t.TempDir(), "m.gmod")
		if err := quantTestNet(3).Save(path); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(nn.QuantPath(path), []byte("not a sidecar"), 0o644); err != nil {
			t.Fatal(err)
		}
		run(t, path, "quant sidecar")
	})

	t.Run("failed-gate-verdict", func(t *testing.T) {
		// A sidecar stamped with a failing gate must be refused at load
		// even though it decodes and compiles — the load-time half of the
		// accuracy contract.
		ClearModelCache()
		path := filepath.Join(t.TempDir(), "m.gmod")
		net := quantTestNet(3)
		if err := net.Save(path); err != nil {
			t.Fatal(err)
		}
		calib, err := FitQuant(net, quantSlab(23, 400, 5), QuantFitConfig{RTol: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		calib.GateErr = math.Inf(1) // forge a failing verdict
		if err := calib.SaveQuant(nn.QuantPath(path)); err != nil {
			t.Fatal(err)
		}
		run(t, path, "accuracy gate")
	})

	t.Run("other-weights", func(t *testing.T) {
		// A retrain that keeps the shape but not the weights: a sidecar
		// fitted at rtol 0.1 on a 5-16-1 ReLU MLP, beside the same net
		// with its first Dense scaled 8x. Served through the parent's
		// ranges, it read a relative L2 of 0.38 against f64.
		ClearModelCache()
		path := filepath.Join(t.TempDir(), "m.gmod")
		net := nn.NewNetwork(5)
		net.Add(net.NewDense(5, 16), nn.NewActivation(nn.ActReLU), net.NewDense(16, 1))
		fitI8Sidecar(t, net, path, QuantFitConfig{RTol: 0.1})
		for i, w := range net.Layers[0].Layer.(*nn.Dense).Weight.W.Data() {
			net.Layers[0].Layer.(*nn.Dense).Weight.W.Data()[i] = 8 * w
		}
		if err := net.Save(path); err != nil {
			t.Fatal(err)
		}
		run(t, path, "sidecar fitted for weights")
	})
}

// TestRegionInt8Precedence: the quant(int8|off) clause configures the
// region's own engine, composes with f32(on), and Precision reports the
// path it loads onto.
func TestRegionInt8Precedence(t *testing.T) {
	ClearModelCache()
	path := filepath.Join(t.TempDir(), "m.gmod")
	net := quantTestNet(7)
	fitI8Sidecar(t, net, path, QuantFitConfig{RTol: 0.1})

	cases := []struct{ clause, want string }{
		{"", "f64"},
		{" quant(int8)", "int8"},
		{" quant(off)", "f64"},
		{" f32(on) quant(int8)", "int8"},
		{" f32(on) quant(off)", "f32"},
	}
	for _, tc := range cases {
		if got := regionPrecision(t, path, 5, 1, tc.clause); got != tc.want {
			t.Fatalf("clause %q: Precision() = %s, want %s", tc.clause, got, tc.want)
		}
	}
}

// TestCacheEntryCompilesOnce: engines that share an entry share its
// int8 program, compiled once per entry however many engines use it.
// Four engines resolving one path through the model cache, warmed
// concurrently, compile once; after Invalidate and a rewritten file,
// once more. An engine built by NewLocalEngineFor compiles from the
// sidecar bytes it was handed — the file on disk is gone — once per
// generation, however many goroutines run its Infer concurrently, as a
// serving replica pool does, each answer bit for bit the serial one.
func TestCacheEntryCompilesOnce(t *testing.T) {
	ClearModelCache()
	path := filepath.Join(t.TempDir(), "m.gmod")
	var compiles atomic.Int64
	testHookCompileI8 = func(string) { compiles.Add(1) }
	defer func() { testHookCompileI8 = nil }()
	ctx := context.Background()

	engines := make([]*LocalEngine, 4)
	for i := range engines {
		engines[i] = NewLocalEngine(path, WithInt8Inference())
	}
	for gen := int64(1); gen <= 2; gen++ {
		net := quantTestNet(gen)
		fitI8Sidecar(t, net, path, QuantFitConfig{RTol: 0.1})
		engines[0].Invalidate()
		var wg sync.WaitGroup
		for _, e := range engines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e.Refresh()
				if err := e.Warmup(ctx, nil); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if got := compiles.Load(); got != gen {
			t.Fatalf("cache generation %d: %d int8 compiles in total, want %d", gen, got, gen)
		}
		for _, e := range engines {
			if e.Precision() != "int8" || e.prog != engines[0].prog || e.Network() != engines[0].Network() {
				t.Fatalf("cache generation %d: engine serves %s (%s), not the entry's one program", gen, e.Precision(), e.PrecisionReason())
			}
		}
	}

	x := quantSlab(22, 16, 5)
	for gen := int64(3); gen <= 4; gen++ {
		net := quantTestNet(gen)
		fitI8Sidecar(t, net, path, QuantFitConfig{RTol: 0.1})
		quant, err := os.ReadFile(nn.QuantPath(path))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(nn.QuantPath(path)); err != nil {
			t.Fatal(err)
		}
		e := NewLocalEngineFor(path, net, quant, WithInt8Inference())
		if err := e.Warmup(ctx, nil); err != nil {
			t.Fatal(err)
		}
		if e.Precision() != "int8" || e.Network() != net {
			t.Fatalf("generation %d: engine serves %s (%s), not the handed network's int8 program", gen, e.Precision(), e.PrecisionReason())
		}
		want := tensor.New(16, 1)
		if err := e.Infer(ctx, x, want); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := tensor.New(16, 1)
				for range 20 {
					if err := e.Infer(ctx, x, out); err != nil {
						t.Error(err)
						return
					}
					for i, w := range want.Data() {
						if math.Float64bits(out.Data()[i]) != math.Float64bits(w) {
							t.Errorf("generation %d: concurrent element %d = %v, serial %v", gen, i, out.Data()[i], w)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		if got := compiles.Load(); got != gen {
			t.Fatalf("generation %d: %d int8 compiles in total, want %d", gen, got, gen)
		}
	}
}

// TestModelFilesNamesTheSidecars: the file set the registry checksums
// and the learner adopts names the sidecars by the same paths the
// engine and the trust gate load them from.
func TestModelFilesNamesTheSidecars(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.gmod")
	want := []string{path, nn.QuantPath(path), GuardrailPath(path)}
	for _, p := range want {
		if err := os.WriteFile(p, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := serveapi.ModelFiles([]string{path}); !slices.Equal(got, want) {
		t.Fatalf("ModelFiles = %v, want %v", got, want)
	}
}
