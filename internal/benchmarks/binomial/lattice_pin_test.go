package binomial

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
)

// perNodeExpCall is the lattice as it was first written: one math.Exp
// per node for the exercise price. It is the bitwise oracle for
// PriceAmericanCall, which must produce the same bits. The float64
// conversions round each price before the strike is subtracted, as a
// stored price is; without them Go may fuse the multiply and subtract.
func perNodeExpCall(s, x, t, r, v float64, steps int) float64 {
	vals := make([]float64, steps+1)
	dt := t / float64(steps)
	vDt := v * math.Sqrt(dt)
	u := math.Exp(vDt)
	d := 1 / u
	rInv := math.Exp(-r * dt)
	pu := (math.Exp(r*dt) - d) / (u - d)
	pd := 1 - pu
	for j := 0; j <= steps; j++ {
		payoff := float64(s*math.Exp(vDt*float64(2*j-steps))) - x
		if payoff < 0 {
			payoff = 0
		}
		vals[j] = payoff
	}
	for step := steps - 1; step >= 0; step-- {
		for j := 0; j <= step; j++ {
			cont := rInv * (pu*vals[j+1] + pd*vals[j])
			exercise := float64(s*math.Exp(vDt*float64(2*j-step))) - x
			if exercise > cont {
				cont = exercise
			}
			vals[j] = cont
		}
	}
	return vals[0]
}

// dirtyScratch returns a scratch of n entries filled with values no
// lattice produces, or nil for n < 0.
func dirtyScratch(n int) []float64 {
	if n < 0 {
		return nil
	}
	buf := make([]float64, n)
	for i := range buf {
		buf[i] = math.Inf(1)
		if i%2 == 1 {
			buf[i] = math.NaN()
		}
	}
	return buf
}

func TestLatticeMatchesPerNodeExp(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, steps := range []int{1, 2, 3, 17, 64, 256} {
		for _, n := range []int{-1, steps + 1, 3*steps + 2} {
			for k := 0; k < 40; k++ {
				s := 5 + 25*rng.Float64()
				x := 1 + 99*rng.Float64()
				tt := 1e-3 + 10*rng.Float64()
				r := 0.1 * rng.Float64()
				v := 0.05 + 0.6*rng.Float64()
				want := perNodeExpCall(s, x, tt, r, v, steps)
				got := PriceAmericanCall(s, x, tt, r, v, steps, dirtyScratch(n))
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("steps=%d scratch=%d S=%v X=%v T=%v r=%v v=%v: %v, per-node Exp %v",
						steps, n, s, x, tt, r, v, got, want)
				}
			}
		}
	}

	for seed := int64(1); seed <= 3; seed++ {
		cfg := DefaultConfig()
		cfg.Seed = seed
		in, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		in.ComputePrices()
		want := make([]float64, cfg.NumOptions)
		parallel.For(cfg.NumOptions, func(i int) {
			want[i] = perNodeExpCall(in.S[i], in.X[i], in.T[i], cfg.RiskFree, cfg.Volatility, cfg.Steps)
		})
		for i, p := range in.Prices {
			if math.Float64bits(p) != math.Float64bits(want[i]) {
				t.Fatalf("seed %d option %d: ComputePrices %v, per-node Exp %v", seed, i, p, want[i])
			}
		}
	}
}
