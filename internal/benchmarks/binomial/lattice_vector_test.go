package binomial

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// forLattices runs f as a "vector" subtest when this CPU has the vector
// lattice and as a "portable" one with it cleared.
func forLattices(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	saved := latticeVector
	defer func() { latticeVector = saved }()
	if saved {
		t.Run("vector", f)
	}
	latticeVector = false
	t.Run("portable", f)
}

// checkCalls fails t unless PriceAmericanCalls prices every option with
// PriceAmericanCall's bits, from a dirty scratch and from none.
func checkCalls(t *testing.T, name string, s, x, tt []float64, r, v float64, steps int) {
	t.Helper()
	for _, n := range []int{-1, CallsScratchLen(steps)} {
		got := make([]float64, len(s))
		PriceAmericanCalls(got, s, x, tt, r, v, steps, dirtyScratch(n))
		for i, p := range got {
			want := PriceAmericanCall(s[i], x[i], tt[i], r, v, steps, nil)
			if math.Float64bits(p) != math.Float64bits(want) {
				t.Fatalf("%s: steps=%d r=%v v=%v option %d of %d (S=%v X=%v T=%v): %v (%#x), PriceAmericanCall %v (%#x)",
					name, steps, r, v, i, len(s), s[i], x[i], tt[i], p, math.Float64bits(p), want, math.Float64bits(want))
			}
		}
	}
}

// earlyExercises counts the nodes where PriceAmericanCall's
// exercise > cont fires: its backward induction with a counter.
func earlyExercises(s, x, t, r, v float64, steps int) int {
	if t == 0 {
		return 0
	}
	vals, pw := make([]float64, steps+1), make([]float64, 2*steps+1)
	rInv, pu, pd := setup(s, x, t, r, v, steps, vals, pw, 1)
	n := 0
	for step := steps - 1; step >= 0; step-- {
		for j := 0; j <= step; j++ {
			cont := rInv * (pu*vals[j+1] + pd*vals[j])
			if exercise := pw[steps-step+2*j] - x; exercise > cont {
				cont = exercise
				n++
			}
			vals[j] = cont
		}
	}
	return n
}

// TestPriceAmericanCallsMatchesScalar holds every lane of the vector
// lattice, and the slice entry without it, to PriceAmericanCall's bits:
// portfolios of 1, 3, 4, 5 and 23 options, a zero expiry inside a group,
// an expiry of 1e-12, lattice depths 1, 2, 17 and 300, NaN, ±Inf and
// negative spots and strikes, and negative rates, under which an
// American call is exercised early.
func TestPriceAmericanCallsMatchesScalar(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	forLattices(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(57))
		exercised := 0
		for _, steps := range []int{1, 2, 17, 300} {
			for _, r := range []float64{0.02, -0.05} {
				for _, n := range []int{1, 3, 4, 5, 23} {
					s, x, tt := make([]float64, n), make([]float64, n), make([]float64, n)
					for i := range s {
						s[i] = 5 + 25*rng.Float64()
						x[i] = 1 + 99*rng.Float64()
						tt[i] = 1e-3 + 10*rng.Float64()
					}
					if n > 2 {
						tt[2] = 1e-12
					}
					if n > 5 {
						tt[5] = 0 // the second group goes through PriceAmericanCall
					}
					checkCalls(t, "portfolio", s, x, tt, r, 0.3, steps)
				}

				// Every pairing of special spots and strikes, at an expiry
				// where the lattice runs, and deep in-the-money calls that
				// a negative rate exercises early.
				specials := []float64{nan, inf, -inf, -20, 0, 20}
				var s, x, tt []float64
				for _, si := range specials {
					for _, xi := range specials {
						s, x, tt = append(s, si), append(x, xi), append(tt, 1)
					}
				}
				for i := range 8 {
					s, x, tt = append(s, 40+10*float64(i)), append(x, 10), append(tt, 2+float64(i))
				}
				checkCalls(t, "specials", s, x, tt, r, 0.3, steps)
				for i := range s[:len(s)/lanes*lanes] {
					exercised += earlyExercises(s[i], x[i], tt[i], r, 0.3, steps)
				}
			}
		}
		if exercised == 0 {
			t.Fatal("no option was exercised early, so nothing tested the early-exercise max")
		}

		// NaN payloads pin the operand order of the multiplies, the add
		// and the max. A NaN spot under a NaN rate keeps the value's NaN
		// through value * pu and sum * rInv. An infinite spot whose low
		// node prices underflow to 0 (Inf * 0, the default NaN) under a
		// NaN strike meets the strike's NaN in the add. A finite spot
		// under a NaN rate has a NaN continuation and a finite exercise
		// value, and the max must keep the NaN. (value * pd cannot show
		// its order: pd is NaN only when pu is, and then the add keeps
		// the first product's NaN.)
		quiet := math.Float64frombits(0x7ff8_0000_0000_0001)
		other := math.Float64frombits(0x7ff8_0000_0000_0002)
		four := func(v float64) []float64 { return []float64{v, v, v, v} }
		checkCalls(t, "nan spot and rate", four(quiet), four(18), four(1), other, 0.3, 17)
		checkCalls(t, "underflow", four(inf), four(quiet), four(10), 0.02, 20, 300)
		checkCalls(t, "nan rate", four(20), four(18), four(1), other, 0.3, 17)
	})
}

// FuzzPriceAmericanCalls holds PriceAmericanCalls, under each lattice
// this CPU has, to PriceAmericanCall bit for bit on raw float64 spots,
// strikes, expiries, rates and volatilities: 1 to 24 options, lattices
// 1 to 80 deep.
func FuzzPriceAmericanCalls(f *testing.F) {
	var specials []byte
	for _, v := range []float64{20, 18, 1, math.NaN(), math.Inf(1), math.Inf(-1), -5, 0,
		math.Copysign(0, -1), 1e-12, 50, 10, 3, math.SmallestNonzeroFloat64, 1e308} {
		specials = binary.LittleEndian.AppendUint64(specials, math.Float64bits(v))
	}
	f.Add(uint8(0), uint8(0), 0.02, 0.3, specials)
	f.Add(uint8(3), uint8(16), 0.02, 0.3, specials)
	f.Add(uint8(4), uint8(63), -0.05, 0.3, specials[8:])
	f.Add(uint8(22), uint8(2), 0.02, 20.0, specials[24:])
	f.Add(uint8(7), uint8(79), math.NaN(), 0.3, specials[40:])
	f.Add(uint8(11), uint8(1), -1.0, 0.05, []byte{})
	f.Fuzz(func(t *testing.T, nb, sb uint8, r, v float64, data []byte) {
		n, steps := 1+int(nb)%24, 1+int(sb)%80
		word := func(i int) float64 {
			var w [8]byte
			for j := range w {
				if len(data) > 0 {
					w[j] = data[(8*i+j)%len(data)]
				}
			}
			return math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
		}
		s, x, tt := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range s {
			s[i], x[i], tt[i] = word(3*i), word(3*i+1), word(3*i+2)
		}
		defer func(saved bool) { latticeVector = saved }(latticeVector)
		for _, vec := range []bool{latticeVector, false} {
			latticeVector = vec
			checkCalls(t, "fuzz", s, x, tt, r, v, steps)
		}
	})
}
