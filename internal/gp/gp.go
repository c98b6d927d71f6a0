// Package gp implements Gaussian-process regression: the surrogate model
// inside Bayesian optimization (the paper uses the Adaptive Experimentation
// platform; this is the same mathematics — a GP with Cholesky solves and
// marginal-likelihood-based hyperparameter selection). FitAuto, the fit
// the search uses, fits a Matérn-5/2 kernel.
package gp

import (
	"fmt"
	"math"
)

// Kernel is a positive-definite covariance function on R^d.
type Kernel interface {
	Eval(a, b []float64) float64
	Name() string
}

// Matern52 is the Matérn-5/2 kernel, the default in most BO systems.
type Matern52 struct {
	Sigma2 float64
	Length float64
}

// Eval computes the Matérn-5/2 covariance.
func (k Matern52) Eval(a, b []float64) float64 {
	var d2 float64
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	r := math.Sqrt(d2) / k.Length
	s5r := math.Sqrt(5) * r
	return k.Sigma2 * (1 + s5r + 5*r*r/3) * math.Exp(-s5r)
}

// Name identifies the kernel.
func (k Matern52) Name() string { return "matern52" }

// GP is a fitted Gaussian-process regressor. Construct with Fit.
type GP struct {
	kernel Kernel
	noise  float64

	x     [][]float64
	alpha []float64 // K^{-1} (y - mean)
	chol  [][]float64
	mean  float64
	std   float64
}

// Fit conditions a GP with the given kernel and noise variance on the
// observations. Targets are standardized internally.
func Fit(kernel Kernel, noise float64, x [][]float64, y []float64) (*GP, error) {
	n := len(x)
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("gp: need matching non-empty x (%d) and y (%d)", n, len(y))
	}
	if noise <= 0 {
		return nil, fmt.Errorf("gp: noise variance must be positive, got %g", noise)
	}
	d := len(x[0])
	for i, xi := range x {
		if len(xi) != d {
			return nil, fmt.Errorf("gp: inconsistent input dimension at %d: %d vs %d", i, len(xi), d)
		}
	}
	g := &GP{kernel: kernel, noise: noise, x: x}
	// Standardize targets for numerical stability.
	for _, v := range y {
		g.mean += v
	}
	g.mean /= float64(n)
	for _, v := range y {
		dv := v - g.mean
		g.std += dv * dv
	}
	g.std = math.Sqrt(g.std / float64(n))
	if g.std < 1e-12 {
		g.std = 1
	}
	ys := make([]float64, n)
	for i, v := range y {
		ys[i] = (v - g.mean) / g.std
	}

	// K + noise I, Cholesky, alpha = K^{-1} ys.
	km := make([][]float64, n)
	for i := range km {
		km[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			v := kernel.Eval(x[i], x[j])
			km[i][j] = v
			km[j][i] = v
		}
		km[i][i] += noise
	}
	chol, err := cholesky(km)
	if err != nil {
		return nil, fmt.Errorf("gp: %w", err)
	}
	g.chol = chol
	g.alpha = cholSolve(chol, ys)
	return g, nil
}

// Predict returns the posterior mean and variance at point p.
func (g *GP) Predict(p []float64) (mean, variance float64) {
	n := len(g.x)
	ks := make([]float64, n)
	for i := range ks {
		ks[i] = g.kernel.Eval(g.x[i], p)
	}
	var mu float64
	for i := range ks {
		mu += ks[i] * g.alpha[i]
	}
	// v = L^{-1} k_s; var = k(p,p) - v.v
	v := forwardSolve(g.chol, ks)
	var vv float64
	for _, x := range v {
		vv += x * x
	}
	variance = g.kernel.Eval(p, p) + g.noise - vv
	if variance < 0 {
		variance = 0
	}
	return g.mean + g.std*mu, g.std * g.std * variance
}

// LogMarginalLikelihood returns the LML of the fitted data (up to the
// standardization), used to select kernel hyperparameters.
func (g *GP) LogMarginalLikelihood() float64 {
	n := len(g.x)
	// ys^T alpha term.
	ys := make([]float64, n)
	// Recover standardized targets from alpha: ys = K alpha; cheaper to
	// store? Recompute via chol: ys = L L^T alpha.
	tmp := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for j := i; j < n; j++ {
			s += g.chol[j][i] * g.alpha[j]
		}
		tmp[i] = s
	}
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j <= i; j++ {
			s += g.chol[i][j] * tmp[j]
		}
		ys[i] = s
	}
	var fit float64
	for i := range ys {
		fit += ys[i] * g.alpha[i]
	}
	var logDet float64
	for i := 0; i < n; i++ {
		logDet += math.Log(g.chol[i][i])
	}
	return -0.5*fit - logDet - 0.5*float64(n)*math.Log(2*math.Pi)
}

// FitAuto selects Matérn-5/2 hyperparameters (length scale and noise) from a
// small grid by maximizing the log marginal likelihood, then returns the
// best fitted GP. Inputs are assumed roughly unit-scaled (BO operates on
// the unit hypercube).
func FitAuto(x [][]float64, y []float64) (*GP, error) {
	lengths := []float64{0.05, 0.1, 0.2, 0.5, 1.0, 2.0}
	noises := []float64{1e-6, 1e-4, 1e-2}
	var best *GP
	bestLML := math.Inf(-1)
	var lastErr error
	for _, l := range lengths {
		for _, nz := range noises {
			g, err := Fit(Matern52{Sigma2: 1, Length: l}, nz, x, y)
			if err != nil {
				lastErr = err
				continue
			}
			if lml := g.LogMarginalLikelihood(); lml > bestLML {
				bestLML = lml
				best = g
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("gp: auto fit failed: %w", lastErr)
	}
	return best, nil
}

// cholesky returns the lower-triangular factor of a symmetric positive
// definite matrix, adding progressive jitter on failure.
func cholesky(a [][]float64) ([][]float64, error) {
	n := len(a)
	for _, jitter := range []float64{0, 1e-10, 1e-8, 1e-6, 1e-4} {
		l := make([][]float64, n)
		for i := range l {
			l[i] = make([]float64, n)
		}
		ok := true
		for i := 0; i < n && ok; i++ {
			for j := 0; j <= i; j++ {
				s := a[i][j]
				if i == j {
					s += jitter
				}
				for k := 0; k < j; k++ {
					s -= l[i][k] * l[j][k]
				}
				if i == j {
					if s <= 0 {
						ok = false
						break
					}
					l[i][j] = math.Sqrt(s)
				} else {
					l[i][j] = s / l[j][j]
				}
			}
		}
		if ok {
			return l, nil
		}
	}
	return nil, fmt.Errorf("matrix is not positive definite even with jitter")
}

// forwardSolve solves L z = b for lower-triangular L.
func forwardSolve(l [][]float64, b []float64) []float64 {
	n := len(b)
	z := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= l[i][j] * z[j]
		}
		z[i] = s / l[i][i]
	}
	return z
}

// backSolve solves L^T x = z for lower-triangular L.
func backSolve(l [][]float64, z []float64) []float64 {
	n := len(z)
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := z[i]
		for j := i + 1; j < n; j++ {
			s -= l[j][i] * x[j]
		}
		x[i] = s / l[i][i]
	}
	return x
}

// cholSolve solves (L L^T) x = b.
func cholSolve(l [][]float64, b []float64) []float64 {
	return backSolve(l, forwardSolve(l, b))
}
