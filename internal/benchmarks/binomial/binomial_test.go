package binomial

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{NumOptions: 0, Steps: 16, Volatility: 0.3}); err == nil {
		t.Fatal("want error for zero options")
	}
	if _, err := New(Config{NumOptions: 4, Steps: 0, Volatility: 0.3}); err == nil {
		t.Fatal("want error for zero steps")
	}
	if _, err := New(Config{NumOptions: 4, Steps: 16, Volatility: 0}); err == nil {
		t.Fatal("want error for zero volatility")
	}
}

func TestConvergesToBlackScholes(t *testing.T) {
	// For a non-dividend-paying stock, the American call equals the
	// European call; a deep lattice must converge to Black-Scholes.
	s, x, tt, r, v := 20.0, 18.0, 2.0, 0.02, 0.30
	want := EuropeanBlackScholesCall(s, x, tt, r, v)
	got := PriceAmericanCall(s, x, tt, r, v, 2048, nil)
	if math.Abs(got-want) > 0.01*want {
		t.Fatalf("lattice %g vs Black-Scholes %g", got, want)
	}
}

func TestConvergenceImprovesWithSteps(t *testing.T) {
	s, x, tt, r, v := 25.0, 30.0, 5.0, 0.02, 0.30
	want := EuropeanBlackScholesCall(s, x, tt, r, v)
	err64 := math.Abs(PriceAmericanCall(s, x, tt, r, v, 64, nil) - want)
	err1024 := math.Abs(PriceAmericanCall(s, x, tt, r, v, 1024, nil) - want)
	if err1024 > err64 {
		t.Fatalf("error grew with lattice depth: %g -> %g", err64, err1024)
	}
}

func TestPriceMonotonicInSpot(t *testing.T) {
	prev := -1.0
	for s := 5.0; s <= 30; s += 2.5 {
		p := PriceAmericanCall(s, 20, 3, 0.02, 0.3, 128, nil)
		if p < prev {
			t.Fatalf("call price decreased in spot: %g -> %g at S=%g", prev, p, s)
		}
		prev = p
	}
}

func TestPriceBounds(t *testing.T) {
	// 0 <= C <= S, and C >= S - X (early exercise bound).
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		s := 5 + 25*rng.Float64()
		x := 1 + 99*rng.Float64()
		tt := 0.25 + 9.75*rng.Float64()
		p := PriceAmericanCall(s, x, tt, 0.02, 0.3, 64, nil)
		if p < 0 || p > s+1e-9 {
			t.Fatalf("price %g out of [0, S=%g]", p, s)
		}
		if intrinsic := s - x; p < intrinsic-1e-9 {
			t.Fatalf("price %g below intrinsic %g", p, intrinsic)
		}
	}
}

func TestComputePricesPortfolio(t *testing.T) {
	cfg := Config{NumOptions: 256, Steps: 64, RiskFree: 0.02, Volatility: 0.3, Seed: 7}
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in.ComputePrices()
	for i, p := range in.Prices {
		if math.IsNaN(p) || p < 0 {
			t.Fatalf("price %d invalid: %g", i, p)
		}
		want := PriceAmericanCall(in.S[i], in.X[i], in.T[i], cfg.RiskFree, cfg.Volatility, cfg.Steps, nil)
		if p != want {
			t.Fatalf("kernel price %g != direct price %g at %d", p, want, i)
		}
	}
}

func TestDeterministicPortfolio(t *testing.T) {
	cfg := Config{NumOptions: 64, Steps: 32, RiskFree: 0.02, Volatility: 0.3, Seed: 9}
	a, _ := New(cfg)
	b, _ := New(cfg)
	a.ComputePrices()
	b.ComputePrices()
	for i := range a.Prices {
		if a.Prices[i] != b.Prices[i] {
			t.Fatal("portfolio not deterministic")
		}
	}
}

func TestScratchReuseMatchesFresh(t *testing.T) {
	scratch := make([]float64, 65)
	a := PriceAmericanCall(20, 18, 1, 0.02, 0.3, 64, scratch)
	b := PriceAmericanCall(20, 18, 1, 0.02, 0.3, 64, nil)
	if a != b {
		t.Fatalf("scratch reuse changed result: %g vs %g", a, b)
	}
	// Dirty scratch must not leak into a second pricing.
	c := PriceAmericanCall(10, 50, 5, 0.02, 0.3, 64, scratch)
	d := PriceAmericanCall(10, 50, 5, 0.02, 0.3, 64, nil)
	if c != d {
		t.Fatalf("dirty scratch leaked: %g vs %g", c, d)
	}
}

func TestDirectiveCount(t *testing.T) {
	src := Directives("m", "d")
	count := 0
	for i := 0; i+1 < len(src); i++ {
		if src[i] == '\n' && src[i+1] == '#' {
			count++
		}
	}
	if count != 4 {
		t.Fatalf("directive count = %d, want 4 (Table II)", count)
	}
}

// Property: longer expiry never cheapens an American call (more optionality).
func TestPropPriceMonotonicInExpiry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := 5 + 25*rng.Float64()
		x := 1 + 99*rng.Float64()
		t1 := 0.25 + 4*rng.Float64()
		t2 := t1 + 0.5 + 4*rng.Float64()
		p1 := PriceAmericanCall(s, x, t1, 0.02, 0.3, 96, nil)
		p2 := PriceAmericanCall(s, x, t2, 0.02, 0.3, 96, nil)
		return p2 >= p1-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the price is homogeneous of degree one: C(kS, kX) = k C(S, X).
func TestPropHomogeneity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := 5 + 25*rng.Float64()
		x := 1 + 99*rng.Float64()
		tt := 0.25 + 9*rng.Float64()
		k := 0.5 + 2*rng.Float64()
		p1 := PriceAmericanCall(s, x, tt, 0.02, 0.3, 96, nil)
		p2 := PriceAmericanCall(k*s, k*x, tt, 0.02, 0.3, 96, nil)
		return math.Abs(p2-k*p1) < 1e-6*(1+k*p1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
