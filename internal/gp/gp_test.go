package gp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFitValidation(t *testing.T) {
	if _, err := Fit(Matern52{1, 1}, 1e-6, nil, nil); err == nil {
		t.Fatal("want error for empty data")
	}
	if _, err := Fit(Matern52{1, 1}, 1e-6, [][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("want error for mismatched lengths")
	}
	if _, err := Fit(Matern52{1, 1}, 0, [][]float64{{1}}, []float64{1}); err == nil {
		t.Fatal("want error for zero noise")
	}
	if _, err := Fit(Matern52{1, 1}, 1e-6, [][]float64{{1}, {1, 2}}, []float64{1, 2}); err == nil {
		t.Fatal("want error for inconsistent dims")
	}
}

func TestInterpolatesTrainingPoints(t *testing.T) {
	x := [][]float64{{0}, {0.25}, {0.5}, {0.75}, {1}}
	y := make([]float64, len(x))
	for i, xi := range x {
		y[i] = math.Sin(3 * xi[0])
	}
	g, err := Fit(Matern52{Sigma2: 1, Length: 0.3}, 1e-8, x, y)
	if err != nil {
		t.Fatal(err)
	}
	for i, xi := range x {
		mu, v := g.Predict(xi)
		if math.Abs(mu-y[i]) > 1e-3 {
			t.Errorf("point %d: predicted %g, want %g", i, mu, y[i])
		}
		if v < 0 {
			t.Errorf("negative variance %g", v)
		}
	}
}

func TestVarianceGrowsAwayFromData(t *testing.T) {
	x := [][]float64{{0.4}, {0.5}, {0.6}}
	y := []float64{1, 2, 1}
	g, err := Fit(Matern52{Sigma2: 1, Length: 0.1}, 1e-6, x, y)
	if err != nil {
		t.Fatal(err)
	}
	_, vNear := g.Predict([]float64{0.5})
	_, vFar := g.Predict([]float64{5})
	if vFar <= vNear {
		t.Fatalf("variance should grow away from data: near %g, far %g", vNear, vFar)
	}
}

func TestPredictionBetweenPoints(t *testing.T) {
	// A smooth function should be reconstructed between samples.
	var x [][]float64
	var y []float64
	for i := 0; i <= 10; i++ {
		v := float64(i) / 10
		x = append(x, []float64{v})
		y = append(y, v*v)
	}
	g, err := FitAuto(x, y)
	if err != nil {
		t.Fatal(err)
	}
	mu, _ := g.Predict([]float64{0.55})
	if math.Abs(mu-0.3025) > 0.05 {
		t.Fatalf("interpolation at 0.55: %g, want ~0.3025", mu)
	}
}

func TestFitAutoSelectsReasonableModel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var x [][]float64
	var y []float64
	for i := 0; i < 30; i++ {
		p := []float64{rng.Float64(), rng.Float64()}
		x = append(x, p)
		y = append(y, math.Sin(4*p[0])+math.Cos(3*p[1]))
	}
	g, err := FitAuto(x, y)
	if err != nil {
		t.Fatal(err)
	}
	var se float64
	for i := range x {
		mu, _ := g.Predict(x[i])
		se += (mu - y[i]) * (mu - y[i])
	}
	if rmse := math.Sqrt(se / float64(len(x))); rmse > 0.2 {
		t.Fatalf("training RMSE too high: %g", rmse)
	}
}

func TestKernelProperties(t *testing.T) {
	kernels := []Kernel{Matern52{Sigma2: 2, Length: 0.5}}
	for _, k := range kernels {
		a, b := []float64{0.1, 0.2}, []float64{0.3, 0.9}
		if k.Eval(a, a) < k.Eval(a, b) {
			t.Errorf("%s: self-covariance must dominate", k.Name())
		}
		if math.Abs(k.Eval(a, b)-k.Eval(b, a)) > 1e-15 {
			t.Errorf("%s: kernel must be symmetric", k.Name())
		}
		if math.Abs(k.Eval(a, a)-2) > 1e-9 {
			t.Errorf("%s: k(a,a) = %g, want sigma2 = 2", k.Name(), k.Eval(a, a))
		}
	}
}

func TestDegenerateConstantTargets(t *testing.T) {
	x := [][]float64{{0}, {0.5}, {1}}
	y := []float64{3, 3, 3}
	g, err := Fit(Matern52{1, 0.3}, 1e-6, x, y)
	if err != nil {
		t.Fatal(err)
	}
	mu, _ := g.Predict([]float64{0.25})
	if math.Abs(mu-3) > 1e-6 {
		t.Fatalf("constant fit = %g, want 3", mu)
	}
}

func TestDuplicatePointsNeedJitter(t *testing.T) {
	// Duplicate inputs make K singular without noise/jitter; Fit must
	// still succeed thanks to the noise term.
	x := [][]float64{{0.5}, {0.5}, {0.5}}
	y := []float64{1, 1.1, 0.9}
	if _, err := Fit(Matern52{1, 0.3}, 1e-6, x, y); err != nil {
		t.Fatalf("duplicate points: %v", err)
	}
}

// Property: the GP posterior mean at a training point approaches the
// target as noise shrinks, for random 1-D datasets.
func TestPropPosteriorInterpolation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		var x [][]float64
		var y []float64
		used := map[int]bool{}
		for len(x) < n {
			// Distinct grid points avoid near-singular kernels.
			gi := rng.Intn(50)
			if used[gi] {
				continue
			}
			used[gi] = true
			x = append(x, []float64{float64(gi) / 50})
			y = append(y, rng.NormFloat64())
		}
		g, err := Fit(Matern52{Sigma2: 1, Length: 0.05}, 1e-9, x, y)
		if err != nil {
			return false
		}
		for i := range x {
			mu, _ := g.Predict(x[i])
			if math.Abs(mu-y[i]) > 0.05*(1+math.Abs(y[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLogMarginalLikelihoodPrefersTrueScale(t *testing.T) {
	// Data generated from a smooth function: a sensible length scale
	// should beat a wildly wrong one.
	var x [][]float64
	var y []float64
	for i := 0; i <= 20; i++ {
		v := float64(i) / 20
		x = append(x, []float64{v})
		y = append(y, math.Sin(2*math.Pi*v))
	}
	good, err := Fit(Matern52{1, 0.2}, 1e-4, x, y)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := Fit(Matern52{1, 1e-3}, 1e-4, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if good.LogMarginalLikelihood() <= bad.LogMarginalLikelihood() {
		t.Fatalf("LML should prefer the smooth fit: good %g, bad %g",
			good.LogMarginalLikelihood(), bad.LogMarginalLikelihood())
	}
}
