package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// The golden losses below were captured from the pre-arena trainer (the
// PR 1 code: per-sample Gather, hand-rolled Dense/Conv1D backward loops,
// map-keyed optimizer state) on the exact seeded runs performed here.
// They freeze the training semantics across every rewrite since:
//
//   - Dense networks must reproduce them exactly: every product,
//     forward and backward, sums each output in ascending order from
//     +0 as the old loops did, so any drift is a real regression.
//   - Conv1D networks must reproduce them within a small relative
//     tolerance: im2col reduces each output in one flat (channel, tap)
//     sweep where the old kernel kept a per-channel accumulator, an
//     FP reassociation documented on the layer.
const (
	goldenDenseTol = 0
	goldenConvTol  = 1e-6
)

var goldenFitLosses = map[string][2]float64{
	"mlp/adam":  {0.41323224205703285, 0.32756936237756895},
	"mlp/sgd":   {0.4352102348919657, 0.2773607446354554},
	"conv/adam": {0.5149884423831846, 0.9346438409527364},
	"conv/sgd":  {0.2539523119546706, 0.1837021214872698},
}

// goldenDataset builds the seeded synthetic regression set shared by the
// golden runs: a smooth nonlinear target over Gaussian features.
func goldenMLPData(t *testing.T) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(101))
	const n = 96
	x := tensor.New(n, 4)
	y := tensor.New(n, 2)
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < 4; j++ {
			v := rng.NormFloat64()
			x.Set(v, i, j)
			s += v
		}
		y.Set(math.Sin(s), i, 0)
		y.Set(s*0.5, i, 1)
	}
	ds, err := NewDataset(x, y)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func goldenConvData(t *testing.T) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(103))
	const n = 64
	x := tensor.New(n, 2, 8)
	y := tensor.New(n, 1)
	for i := 0; i < n; i++ {
		var s float64
		for c := 0; c < 2; c++ {
			for p := 0; p < 8; p++ {
				v := rng.NormFloat64()
				x.Set(v, i, c, p)
				s += v * float64(p+1)
			}
		}
		y.Set(math.Tanh(s/8), i, 0)
	}
	ds, err := NewDataset(x, y)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func checkGolden(t *testing.T, key string, h *History, tol float64) {
	t.Helper()
	want := goldenFitLosses[key]
	got := [2]float64{h.TrainLoss[len(h.TrainLoss)-1], h.ValLoss[len(h.ValLoss)-1]}
	for i, w := range want {
		if math.Abs(got[i]-w) > tol*(1+math.Abs(w)) {
			t.Errorf("%s loss[%d] = %.17g, golden %.17g (tol %g)", key, i, got[i], w, tol)
		}
	}
}

// TestFitGoldenLossesMLP pins Dense-network training (both optimizers)
// to the pre-rewrite trainer bit for bit: goldenDenseTol is 0.
func TestFitGoldenLossesMLP(t *testing.T) {
	for _, opt := range []string{"adam", "sgd"} {
		net := NewNetwork(7)
		net.Add(net.NewDense(4, 16), NewActivation(ActTanh), net.NewDense(16, 2))
		h, err := net.Fit(goldenMLPData(t), nil, TrainConfig{
			Epochs: 8, BatchSize: 32, LR: 1e-2, WeightDecay: 1e-3,
			Optimizer: opt, Momentum: 0.9, Seed: 13,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "mlp/"+opt, h, goldenDenseTol)
	}
}

// TestFitGoldenLossesConv pins Conv1D-network training (both optimizers)
// to the pre-rewrite trainer within the documented im2col tolerance.
func TestFitGoldenLossesConv(t *testing.T) {
	for _, opt := range []string{"adam", "sgd"} {
		net := NewNetwork(9)
		net.Add(net.NewConv1D(2, 4, 3, 1), NewActivation(ActTanh), NewFlatten(), net.NewDense(4*6, 1))
		h, err := net.Fit(goldenConvData(t), nil, TrainConfig{
			Epochs: 8, BatchSize: 16, LR: 1e-2, WeightDecay: 1e-3,
			Optimizer: opt, Momentum: 0.9, Seed: 17,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "conv/"+opt, h, goldenConvTol)
	}
}
