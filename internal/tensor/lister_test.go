package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestListersMatchPortable holds each kernel's selected lister (the
// assembly one on amd64) to its portable Go lister entry for entry, on
// rows of every length up to 70 mixing ±0, NaN, ±Inf, subnormals and
// ordinary values (codes at and off the centre for int8), written over
// lists filled with junk.
func TestListersMatchPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f64s := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0xfff4_0000_0000_0002),
		math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -1.5, 2}
	for n := 0; n <= 70; n++ {
		for trial := 0; trial < 8; trial++ {
			a64, a32, a8 := make([]float64, n), make([]float32, n), make([]int8, n)
			c := int32(rng.Intn(256) - 128)
			for i := range a64 {
				a64[i] = f64s[rng.Intn(len(f64s))]
				a32[i] = float32(a64[i])
				a8[i] = int8(rng.Intn(256) - 128)
				if rng.Intn(2) == 0 {
					a8[i] = int8(c)
				}
			}
			got64, want64 := junkList[float64](n), junkList[float64](n)
			if g, w := listF64(got64, a64), listNonzero(want64, a64); g != w || !sameEntries(got64[:g], want64[:w]) {
				t.Fatalf("f64, n %d: listed %d %v, want %d %v", n, g, got64[:g], w, want64[:w])
			}
			got32, want32 := junkList[float32](n), junkList[float32](n)
			if g, w := listF32(got32, a32), listNonzero(want32, a32); g != w || !sameEntries(got32[:g], want32[:w]) {
				t.Fatalf("f32, n %d: listed %d %v, want %d %v", n, g, got32[:g], w, want32[:w])
			}
			even := a8[:n&^1]
			got8, want8 := make([]i8Entry, n/2), make([]i8Entry, n/2)
			for i := range got8 {
				got8[i], want8[i] = i8Entry{-1, 0xdeadbeef}, i8Entry{-2, 0xfeedface}
			}
			g, w := listEvenPairs(got8, even, c), listPairsGo(want8, even, c)
			if g != w || !slices.Equal(got8[:g], want8[:w]) {
				t.Fatalf("int8, n %d, centre %d: listed %d %v, want %d %v", n, c, g, got8[:g], w, want8[:w])
			}
		}
	}
}

// junkList is an n-entry list whose every entry holds a junk index and
// a NaN, so a lister that skips a store shows.
func junkList[E float](n int) []entry[E] {
	l := make([]entry[E], n)
	for i := range l {
		l[i] = entry[E]{-7, E(math.NaN())}
	}
	return l
}

// sameEntries compares two lists' indices and value bits.
func sameEntries[E float](a, b []entry[E]) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].k != b[i].k || math.Float64bits(float64(a[i].v)) != math.Float64bits(float64(b[i].v)) {
			return false
		}
	}
	return true
}
