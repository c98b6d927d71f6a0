package hpacml

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/nn"
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
