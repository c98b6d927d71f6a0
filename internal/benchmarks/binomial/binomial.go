// Package binomial is a Go port of the CUDA-SDK BinomialOptions
// benchmark (Podlozhnyuk): pricing a portfolio of American-style stock
// options by backward induction on a recombining binomial lattice. Each
// option costs O(steps^2) work, which the surrogate replaces with one MLP
// evaluation over the option's three varying parameters.
//
// QoI: the computed option prices. Metric: RMSE (Table I).
package binomial

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
)

// Config sizes the portfolio and the lattice.
type Config struct {
	NumOptions int
	Steps      int
	RiskFree   float64
	Volatility float64
	Seed       int64
}

// DefaultConfig mirrors the CUDA sample's parameters (risk-free rate 2%,
// volatility 30%) at a lattice depth that keeps the accurate path clearly
// compute-bound.
func DefaultConfig() Config {
	return Config{NumOptions: 8192, Steps: 256, RiskFree: 0.02, Volatility: 0.30, Seed: 11}
}

// Instance is one generated portfolio plus its price buffer.
type Instance struct {
	Cfg Config

	// S, X, T are the per-option varying parameters: spot price, strike
	// price, and years to expiry — the region's input arrays.
	S []float64
	X []float64
	T []float64
	// Prices is the computed QoI: the region's output array.
	Prices []float64
}

// New generates a deterministic portfolio: spot in [5, 30), strike in
// [1, 100), expiry in [0.25, 10) years, matching the CUDA sample's
// randomData ranges.
func New(cfg Config) (*Instance, error) {
	if cfg.NumOptions <= 0 || cfg.Steps <= 0 {
		return nil, fmt.Errorf("binomial: sizes must be positive: %+v", cfg)
	}
	if cfg.Volatility <= 0 {
		return nil, fmt.Errorf("binomial: volatility must be positive")
	}
	in := &Instance{
		Cfg:    cfg,
		S:      make([]float64, cfg.NumOptions),
		X:      make([]float64, cfg.NumOptions),
		T:      make([]float64, cfg.NumOptions),
		Prices: make([]float64, cfg.NumOptions),
	}
	in.RandomizeOptions(cfg.Seed + 1)
	return in, nil
}

// RandomizeOptions refreshes the option parameters with new uniform draws.
func (in *Instance) RandomizeOptions(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < in.Cfg.NumOptions; i++ {
		in.S[i] = 5 + 25*rng.Float64()
		in.X[i] = 1 + 99*rng.Float64()
		in.T[i] = 0.25 + 9.75*rng.Float64()
	}
}

// ComputePrices is the accurate execution path: one lattice per option.
func (in *Instance) ComputePrices() {
	steps := in.Cfg.Steps
	parallel.ForRange(in.Cfg.NumOptions, func(lo, hi int) {
		// Per-block scratch reused across the options of this block,
		// mirroring the CUDA kernel's shared-memory call value array.
		scratch := make([]float64, ScratchLen(steps))
		for i := lo; i < hi; i++ {
			in.Prices[i] = PriceAmericanCall(in.S[i], in.X[i], in.T[i],
				in.Cfg.RiskFree, in.Cfg.Volatility, steps, scratch)
		}
	})
}

// ScratchLen is the scratch length PriceAmericanCall needs at a lattice
// depth: steps+1 option values and 2*steps+1 node prices.
func ScratchLen(steps int) int { return 3*steps + 2 }

// PriceAmericanCall prices an American call by CRR backward induction.
// A scratch shorter than ScratchLen(steps), nil included, is replaced by
// a fresh one. At zero expiry the price is the intrinsic value.
func PriceAmericanCall(s, x, t, r, v float64, steps int, scratch []float64) float64 {
	if t == 0 {
		return max(s-x, 0)
	}
	n := ScratchLen(steps)
	if len(scratch) < n {
		scratch = make([]float64, n)
	}
	vals, pw := scratch[:steps+1], scratch[steps+1:n]
	dt := t / float64(steps)
	vDt := v * math.Sqrt(dt)
	u := math.Exp(vDt)
	d := 1 / u
	rInv := math.Exp(-r * dt)
	pu := (math.Exp(r*dt) - d) / (u - d)
	pd := 1 - pu

	// The stock price at node j of a step is s*u^(2j-step), and 2j-step
	// takes only the 2*steps+1 values in [-steps, steps]: pw[m] holds the
	// price for m-steps, computed by the same expression a per-node
	// math.Exp would use, so the table changes no bit of the result.
	for m := range pw {
		pw[m] = s * math.Exp(vDt*float64(m-steps))
	}
	// Terminal payoffs.
	for j := range vals {
		payoff := pw[2*j] - x
		if payoff < 0 {
			payoff = 0
		}
		vals[j] = payoff
	}
	// Backward induction with the early-exercise test; node j of a step
	// reads pw[2j-step+steps].
	for step := steps - 1; step >= 0; step-- {
		price := pw[steps-step:]
		for j := 0; j <= step; j++ {
			cont := rInv * (pu*vals[j+1] + pd*vals[j])
			exercise := price[2*j] - x
			if exercise > cont {
				cont = exercise
			}
			vals[j] = cont
		}
	}
	return vals[0]
}

// EuropeanBlackScholesCall is the closed-form European call price, used
// by the test suite as a convergence oracle (an American call on a
// non-dividend stock equals the European one).
func EuropeanBlackScholesCall(s, x, t, r, v float64) float64 {
	sqrtT := math.Sqrt(t)
	d1 := (math.Log(s/x) + (r+v*v/2)*t) / (v * sqrtT)
	d2 := d1 - v*sqrtT
	return s*cnd(d1) - x*math.Exp(-r*t)*cnd(d2)
}

func cnd(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }

// Directives returns the 4-directive HPAC-ML annotation for the pricing
// region (Table II): the three varying parameters gather into one
// 3-feature tensor; the price scatters back through an inline functor
// application.
func Directives(model, db string) string {
	return fmt.Sprintf(`
#pragma approx tensor functor(opt_in: [i, 0:3] = ([i]))
#pragma approx tensor functor(price_out: [i, 0:1] = ([i]))
#pragma approx tensor map(to: opt_in(S[0:NOPT], X[0:NOPT], T[0:NOPT]))
#pragma approx ml(predicated:useModel) in(S, X, T) out(price_out(prices[0:NOPT])) model(%q) db(%q)
`, model, db)
}
