// Package binomial is a Go port of the CUDA-SDK BinomialOptions
// benchmark (Podlozhnyuk): pricing a portfolio of American-style stock
// options by backward induction on a recombining binomial lattice. Each
// option costs O(steps^2) work, which the surrogate replaces with one MLP
// evaluation over the option's three varying parameters.
//
// PriceAmericanCall prices one option and is the portable path and the
// reference. PriceAmericanCalls, behind ComputePrices, prices a slice:
// on amd64 CPUs with AVX, four options at a time, one per lane of a
// 256-bit register (lattice_amd64.s). Each lane runs the scalar node
// expression's operations on the same operands in the same order,
// without FMA, so every price has PriceAmericanCall's bits.
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

// ComputePrices is the accurate execution path: one lattice per option,
// four options at a time on CPUs with AVX (PriceAmericanCalls).
func (in *Instance) ComputePrices() {
	steps := in.Cfg.Steps
	parallel.ForRange(in.Cfg.NumOptions, func(lo, hi int) {
		// A nil scratch: PriceAmericanCalls allocates one per block and
		// reuses it across the block's options, mirroring the CUDA
		// kernel's shared-memory call value array.
		PriceAmericanCalls(in.Prices[lo:hi], in.S[lo:hi], in.X[lo:hi], in.T[lo:hi],
			in.Cfg.RiskFree, in.Cfg.Volatility, steps, nil)
	})
}

// ScratchLen is the scratch length PriceAmericanCall needs at a lattice
// depth: steps+1 option values and 2*steps+1 node prices.
func ScratchLen(steps int) int { return 3*steps + 2 }

// CallsScratchLen is the scratch length PriceAmericanCalls needs at a
// lattice depth: ScratchLen for each of four options.
func CallsScratchLen(steps int) int { return lanes * ScratchLen(steps) }

// lanes is the number of options the vector lattice prices at once: one
// per float64 lane of a 256-bit register.
const lanes = 4

// PriceAmericanCalls sets dst[i] to PriceAmericanCall(s[i], x[i], t[i],
// r, v, steps, scratch) for every i < len(dst), bit for bit. On a CPU
// with AVX it prices four options per register (priceGroups); the last
// len(dst)%4 options, and any group of four that holds a zero expiry,
// go through PriceAmericanCall. A scratch shorter than
// CallsScratchLen(steps), nil included, is replaced by a fresh one.
func PriceAmericanCalls(dst, s, x, t []float64, r, v float64, steps int, scratch []float64) {
	n := len(dst)
	s, x, t = s[:n], x[:n], t[:n]
	if len(scratch) < CallsScratchLen(steps) {
		scratch = make([]float64, CallsScratchLen(steps))
	}
	i := 0
	if latticeVector {
		i = priceGroups(dst, s, x, t, r, v, steps, scratch)
	}
	for ; i < n; i++ {
		dst[i] = PriceAmericanCall(s[i], x[i], t[i], r, v, steps, scratch)
	}
}

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
	rInv, pu, pd := setup(s, x, t, r, v, steps, vals, pw, 1)
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

// setup writes one option's 2*steps+1 node prices to pw and its steps+1
// terminal payoffs to vals, entry m of each at m*stride, and returns the
// per-step discount and the up and down probabilities. The scalar
// lattice calls it at stride 1; the vector one at stride 4, once per
// lane, so both start each option from the same bits.
func setup(s, x, t, r, v float64, steps int, vals, pw []float64, stride int) (rInv, pu, pd float64) {
	dt := t / float64(steps)
	vDt := v * math.Sqrt(dt)
	u := math.Exp(vDt)
	d := 1 / u
	rInv = math.Exp(-r * dt)
	pu = (math.Exp(r*dt) - d) / (u - d)
	pd = 1 - pu

	// The stock price at node j of a step is s*u^(2j-step), and 2j-step
	// takes only the 2*steps+1 values in [-steps, steps]: pw[m] holds the
	// price for m-steps, computed by the same expression a per-node
	// math.Exp would use, so the table changes no bit of the result.
	for m := 0; m <= 2*steps; m++ {
		pw[m*stride] = s * math.Exp(vDt*float64(m-steps))
	}
	// Terminal payoffs. The clamp keeps a NaN payoff, which VMAXPD
	// against 0 would not, so it stays here for both lattices.
	for j := 0; j <= steps; j++ {
		payoff := pw[2*j*stride] - x
		if payoff < 0 {
			payoff = 0
		}
		vals[j*stride] = payoff
	}
	return rInv, pu, pd
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
