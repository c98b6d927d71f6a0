package hpacml

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/h5"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// quantTestNet builds the quickstart-shaped h16 MLP the acceptance
// criteria are specified against.
func quantTestNet(seed int64) *nn.Network {
	net := nn.NewNetwork(seed)
	net.Add(net.NewDense(5, 16), nn.NewActivation(nn.ActTanh), net.NewDense(16, 1))
	return net
}

func quantSlab(seed int64, rows, cols int) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	d := make([]float64, rows*cols)
	for i := range d {
		d[i] = rng.NormFloat64() * 2
	}
	x, _ := tensor.FromSlice(d, rows, cols)
	return x
}

// TestFitQuantGate is the accuracy-gate table: a fit on clean
// in-distribution captures passes and stamps the verdict; an
// unreachable rtol fails and yields no calibration; NaN-poisoned
// captures fail the fit outright.
func TestFitQuantGate(t *testing.T) {
	net := quantTestNet(7)
	x := quantSlab(11, 600, 5)

	t.Run("passing", func(t *testing.T) {
		calib, err := FitQuant(net, x, QuantFitConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !calib.GatePassed() {
			t.Fatalf("gate must be stamped passing, got err %g rtol %g", calib.GateErr, calib.GateRTol)
		}
		if calib.GateRTol != 0.05 {
			t.Fatalf("default rtol 0.05, got %g", calib.GateRTol)
		}
		if math.IsNaN(calib.GateErr) || calib.GateErr <= 0 {
			t.Fatalf("gate error must be a measured positive value, got %g", calib.GateErr)
		}
	})

	t.Run("failing-rtol", func(t *testing.T) {
		calib, err := FitQuant(net, x, QuantFitConfig{RTol: 1e-9})
		if err == nil {
			t.Fatalf("int8 cannot hold rtol 1e-9; fit must refuse, got calib %+v", calib)
		}
		if calib != nil {
			t.Fatal("a failed gate must not hand back a calibration")
		}
	})

	t.Run("nan-calibration", func(t *testing.T) {
		bad := quantSlab(13, 64, 5)
		bad.Contiguous().Data()[12] = math.NaN()
		if _, err := FitQuant(net, bad, QuantFitConfig{}); err == nil {
			t.Fatal("NaN captures must fail the fit")
		}
	})

	t.Run("nan-holdout", func(t *testing.T) {
		// NaN only in the holdout rows: calibration ranges fit clean, but
		// the gate replay sees the poison and the metric goes NaN.
		d := quantSlab(17, 100, 5).Contiguous().Data()
		d[99*5] = math.NaN()
		x, _ := tensor.FromSlice(d, 100, 5)
		if _, err := FitQuant(net, x, QuantFitConfig{}); err == nil {
			t.Fatal("NaN holdout must fail the gate")
		}
	})

	t.Run("bad-config", func(t *testing.T) {
		if _, err := FitQuant(net, x, QuantFitConfig{Holdout: 1.5}); err == nil {
			t.Fatal("holdout fraction out of range must fail")
		}
		if _, err := FitQuant(net, x, QuantFitConfig{RTol: -1}); err == nil {
			t.Fatal("negative rtol must fail")
		}
		if _, err := FitQuant(net, quantSlab(1, 1, 5), QuantFitConfig{}); err == nil {
			t.Fatal("a single capture row cannot split into calibration + holdout")
		}
	})
}

// TestFitQuantFromDB runs the full offline fit: captures written to a
// sharded .gh5, fit + gate from the shards, sidecar saved beside the
// model, loaded back, and compiled into a working int8 program.
func TestFitQuantFromDB(t *testing.T) {
	dir := t.TempDir()
	net := quantTestNet(3)
	modelPath := filepath.Join(dir, "m.gmod")
	if err := net.Save(modelPath); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, "caps.gh5")
	w, err := h5.NewShardWriter(base, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		in := make([]float64, 5)
		for j := range in {
			in[j] = rng.NormFloat64() * 2
		}
		x, _ := tensor.FromSlice(in, 1, 5)
		y, err := net.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := w.BeginSet()
		if err != nil {
			t.Fatal(err)
		}
		if err := h5.AppendSample(sw, "stencil", x, y, 1000); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The untrained test net's outputs hover near zero, which inflates
	// the per-row relative metric; rtol 0.1 is the configured gate here.
	calib, err := FitQuantFromDB(base, "stencil", modelPath, QuantFitConfig{Mode: nn.QuantPercentile, Q: 0.001, RTol: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if !calib.GatePassed() || calib.Segments() != 2 {
		t.Fatalf("fit: %d segments, gate err %g rtol %g", calib.Segments(), calib.GateErr, calib.GateRTol)
	}
	sidecar := nn.QuantPath(modelPath)
	if err := calib.SaveQuant(sidecar); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(sidecar); err != nil {
		t.Fatal(err)
	}
	loaded, err := nn.LoadQuant(sidecar)
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := nn.NewForwardI8(net, loaded)
	if err != nil {
		t.Fatal(err)
	}
	in := quantSlab(5, 32, 5).Contiguous().Data()
	ref, err := net.Forward(quantSlab(5, 32, 5))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 32)
	if err := fwd.Forward(got, in, 32); err != nil {
		t.Fatal(err)
	}
	if e := nn.MeanRelL2(got, ref.Contiguous().Data(), 32, 1); !(e < 0.1) {
		t.Fatalf("sidecar-compiled int8 path drifted: mean relative L2 %g", e)
	}

	if _, err := FitQuantFromDB(base, "no-such-region", modelPath, QuantFitConfig{}); err == nil {
		t.Fatal("unknown region must fail")
	}
}

// TestMeanRelL2 pins the gate metric itself.
func TestMeanRelL2(t *testing.T) {
	if e := nn.MeanRelL2([]float64{1, 2}, []float64{1, 2}, 2, 1); e != 0 {
		t.Fatalf("identical slabs: %g", e)
	}
	// Equal-norm rows leave the RMS floor inert: one row 10%% off, one
	// exact, mean 5%%.
	if e := nn.MeanRelL2([]float64{2.2, 2}, []float64{2, 2}, 2, 1); math.Abs(e-0.05) > 1e-12 {
		t.Fatalf("mean of {0.1, 0}: %g", e)
	}
	// A near-zero reference row measures against the holdout's RMS row
	// norm (sqrt(2) here), not its own vanishing norm.
	if e, want := nn.MeanRelL2([]float64{0.2, 2}, []float64{0, 2}, 2, 1), 0.2/math.Sqrt(2)/2; math.Abs(e-want) > 1e-12 {
		t.Fatalf("floored row: %g, want %g", e, want)
	}
	if e := nn.MeanRelL2([]float64{math.NaN(), 2}, []float64{1, 2}, 2, 1); !math.IsNaN(e) {
		t.Fatalf("NaN prediction must poison the mean, got %g", e)
	}
	if e := nn.MeanRelL2([]float64{math.Inf(1), 2}, []float64{1, 2}, 2, 1); !math.IsNaN(e) {
		t.Fatalf("Inf prediction must poison the mean, got %g", e)
	}
	if e := nn.MeanRelL2(nil, nil, 0, 1); !math.IsNaN(e) {
		t.Fatalf("empty holdout must not pass, got %g", e)
	}
}
