package bonds

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{NumBonds: 0}); err == nil {
		t.Fatal("want error for zero bonds")
	}
}

func TestAccruedInterestFormula(t *testing.T) {
	// Accrued interest prorates the semiannual coupon by the elapsed
	// period fraction, discretized to the synthetic calendar's days.
	acc, _, _, _ := Value(0.06, 0.04, 10, 0.5)
	couponAmt := 100.0 * 0.06 / 2
	want := couponAmt * 0.5
	if math.Abs(acc-want) > couponAmt/100 { // within one day's accrual
		t.Fatalf("accrued = %g, want ~%g", acc, want)
	}
	acc0, _, _, _ := Value(0.06, 0.04, 10, 0)
	if acc0 != 0 {
		t.Fatalf("accrued at period start = %g, want 0", acc0)
	}
}

func TestCleanPlusAccruedIsDirty(t *testing.T) {
	acc, dirty, clean, _ := Value(0.08, 0.05, 7, 0.3)
	if math.Abs(clean+acc-dirty) > 1e-9 {
		t.Fatalf("clean %g + accrued %g != dirty %g", clean, acc, dirty)
	}
}

func TestParAtCouponEqualsRate(t *testing.T) {
	// With continuous compounding at the flat curve, a bond whose coupon
	// equals the rate prices close to par (small compounding mismatch).
	_, dirty, _, _ := Value(0.05, 0.05, 10, 0)
	if dirty < 95 || dirty > 105 {
		t.Fatalf("near-par bond priced at %g", dirty)
	}
}

func TestDiscountRateLowersPrice(t *testing.T) {
	_, lo, _, _ := Value(0.06, 0.02, 10, 0)
	_, hi, _, _ := Value(0.06, 0.09, 10, 0)
	if hi >= lo {
		t.Fatalf("higher rate must lower price: %g vs %g", hi, lo)
	}
}

func TestYTMRecoversFlatRate(t *testing.T) {
	// Under a flat continuous curve the Newton YTM equals the input rate.
	for _, rate := range []float64{0.02, 0.05, 0.08} {
		_, _, _, ytm := Value(0.06, rate, 12, 0.4)
		if math.Abs(ytm-rate) > 1e-6 {
			t.Fatalf("ytm %g, want %g", ytm, rate)
		}
	}
}

func TestPortfolioValuation(t *testing.T) {
	in, err := New(Config{NumBonds: 512, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	in.ComputeValuations()
	for i := 0; i < in.Cfg.NumBonds; i++ {
		if math.IsNaN(in.Accrued[i]) || in.Accrued[i] < 0 {
			t.Fatalf("bond %d accrued invalid: %g", i, in.Accrued[i])
		}
		if in.DirtyPrice[i] <= 0 || in.DirtyPrice[i] > 400 {
			t.Fatalf("bond %d dirty price implausible: %g", i, in.DirtyPrice[i])
		}
		acc, dirty, clean, ytm := Value(in.Coupon[i], in.Rate[i], in.Maturity[i], in.Settle[i])
		if acc != in.Accrued[i] || dirty != in.DirtyPrice[i] || clean != in.CleanPrice[i] || ytm != in.YTM[i] {
			t.Fatalf("kernel result differs from direct valuation at %d", i)
		}
	}
}

func TestDeterministicPortfolio(t *testing.T) {
	a, _ := New(Config{NumBonds: 64, Seed: 5})
	b, _ := New(Config{NumBonds: 64, Seed: 5})
	a.ComputeValuations()
	b.ComputeValuations()
	for i := range a.Accrued {
		if a.Accrued[i] != b.Accrued[i] {
			t.Fatal("portfolio not deterministic")
		}
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

// Property: accrued interest is linear in the settlement fraction up to
// the calendar's one-day discretization.
func TestPropAccruedLinearInSettle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		coupon := 0.02 + 0.08*rng.Float64()
		rate := 0.01 + 0.08*rng.Float64()
		mat := 1 + 29*rng.Float64()
		s := rng.Float64()
		a1, _, _, _ := Value(coupon, rate, mat, s)
		a2, _, _, _ := Value(coupon, rate, mat, s/2)
		dayAccrual := 100 * coupon / 2 / 180
		return math.Abs(a1-2*a2) < 2.5*dayAccrual
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: longer maturity at a coupon above the rate raises the dirty
// price (more above-market coupons to collect).
func TestPropPriceGrowsWithMaturityWhenCouponAboveRate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rate := 0.01 + 0.04*rng.Float64()
		coupon := rate + 0.03 + 0.02*rng.Float64()
		m1 := 1 + 10*rng.Float64()
		m2 := m1 + 1 + 10*rng.Float64()
		_, p1, _, _ := Value(coupon, rate, m1, 0)
		_, p2, _, _ := Value(coupon, rate, m2, 0)
		return p2 >= p1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
