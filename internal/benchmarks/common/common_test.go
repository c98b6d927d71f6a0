package common

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRMSE(t *testing.T) {
	v, err := RMSE([]float64{1, 2, 3}, []float64{1, 2, 3})
	if err != nil || v != 0 {
		t.Fatalf("identical series RMSE = %g, %v", v, err)
	}
	v, err = RMSE([]float64{3, 0}, []float64{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-math.Sqrt(12.5)) > 1e-12 {
		t.Fatalf("RMSE = %g", v)
	}
	if _, err := RMSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("want length mismatch error")
	}
	if _, err := RMSE(nil, nil); err == nil {
		t.Fatal("want empty error")
	}
}

func TestMAPE(t *testing.T) {
	v, err := MAPE([]float64{110, 90}, []float64{100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-10) > 1e-12 {
		t.Fatalf("MAPE = %g, want 10", v)
	}
	// Zero references are skipped.
	v, err = MAPE([]float64{110, 5}, []float64{100, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-10) > 1e-12 {
		t.Fatalf("MAPE with zero ref = %g", v)
	}
	if _, err := MAPE([]float64{1}, []float64{0}); err == nil {
		t.Fatal("want all-zero-reference error")
	}
}

func TestRelativeErrors(t *testing.T) {
	re, err := RelativeErrors([]float64{2, 0.5}, []float64{1, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if re[0] != 1 || re[1] != 0.5 {
		t.Fatalf("relative errors = %v", re)
	}
	// Floor guards near-zero references.
	re, err = RelativeErrors([]float64{1}, []float64{1e-20}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if re[0] > 10.01 {
		t.Fatalf("floored relative error = %g", re[0])
	}
}

func TestCDF(t *testing.T) {
	c, err := NewCDF([]float64{4, 1, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.Quantile(0) != 1 || c.Quantile(1) != 4 {
		t.Fatalf("extremes = %g %g", c.Quantile(0), c.Quantile(1))
	}
	if q := c.Quantile(0.5); math.Abs(q-2.5) > 1e-12 {
		t.Fatalf("median = %g", q)
	}
	if f := c.FractionBelow(2); math.Abs(f-0.5) > 1e-12 {
		t.Fatalf("fraction below 2 = %g", f)
	}
	if f := c.FractionBelow(100); f != 1 {
		t.Fatalf("fraction below max = %g", f)
	}
	if _, err := NewCDF(nil); err == nil {
		t.Fatal("want empty sample error")
	}
}

func TestGeoMean(t *testing.T) {
	v, err := GeoMean([]float64{2, 8})
	if err != nil || v != 4 {
		t.Fatalf("geomean = %g, %v", v, err)
	}
	if _, err := GeoMean([]float64{1, -1}); err == nil {
		t.Fatal("want positivity error")
	}
	if _, err := GeoMean(nil); err == nil {
		t.Fatal("want empty error")
	}
}

func TestCountLoC(t *testing.T) {
	src := `package x

// a comment
/* block
comment */
func f() { // trailing comment counts as code
	return
}
`
	if got := CountLoC(src); got != 4 {
		t.Fatalf("CountLoC = %d, want 4", got)
	}
}

func TestDirectiveStats(t *testing.T) {
	src := `
// commentary
#pragma approx tensor functor(f: [i, 0:1] = ([i]))
#pragma approx ml(infer) inout(x) model("m")
`
	loc, n := DirectiveStats(src)
	if loc != 2 || n != 2 {
		t.Fatalf("stats = %d, %d", loc, n)
	}
}

// Property: RMSE is translation-invariant and scales linearly.
func TestPropRMSEScaling(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		base, err := RMSE(a, b)
		if err != nil {
			return false
		}
		shift := rng.NormFloat64()
		scale := 1 + rng.Float64()*3
		a2 := make([]float64, n)
		b2 := make([]float64, n)
		for i := range a {
			a2[i] = a[i]*scale + shift
			b2[i] = b[i]*scale + shift
		}
		scaled, err := RMSE(a2, b2)
		if err != nil {
			return false
		}
		return math.Abs(scaled-base*scale) < 1e-9*(1+scaled)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: CDF quantiles are monotone non-decreasing in p.
func TestPropCDFMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		sample := make([]float64, n)
		for i := range sample {
			sample[i] = rng.NormFloat64()
		}
		c, err := NewCDF(sample)
		if err != nil {
			return false
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.05 {
			q := c.Quantile(p)
			if q < prev {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
