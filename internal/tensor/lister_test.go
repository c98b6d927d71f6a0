package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// listGuard is how many junk entries follow a lister's list in
// checkLister's buffer: more than one 128-byte vector store of either
// entry size, so a store that runs past list[:len(a)] lands on them.
const listGuard = 24

// listF64 and listF32 list one row of activations through the f64 and
// f32 kernels' block listers, as a block of one row whose k is len(a),
// and return its count: the per-row view the lister tests and
// BenchmarkListers hold to listNonzero.
func listF64(list []f64Entry, a []float64) int { return listOne(listF64Rows, list, a) }

func listF32(list []f32Entry, a []float32) int { return listOne(listF32Rows, list, a) }

// listOne runs block lister on a one-row block.
func listOne[E float](block func([]entry[E], []E, int, int, *[rowBlock]int), list []entry[E], a []E) int {
	var cnt [rowBlock]int
	block(list, a, len(a), 1, &cnt)
	return cnt[0]
}

// TestListersMatchPortable holds each kernel's lister at every level
// the CPU has (on an AVX-512 host: the 512-bit lister, the 256-bit
// one and the portable one) to its portable Go lister entry for entry,
// on rows of every length up to 70 mixing ±0, NaN, ±Inf, subnormals
// and ordinary values (codes at and off the centre for int8), written
// over lists filled with junk. Each list is the front of a longer
// buffer, whose junk past the list must come back untouched.
func TestListersMatchPortable(t *testing.T) {
	type row struct {
		a64 []float64
		a32 []float32
		a8  []int8
		c   int32
	}
	rng := rand.New(rand.NewSource(5))
	f64s := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0xfff4_0000_0000_0002),
		math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -1.5, 2}
	var rows []row
	for n := 0; n <= 70; n++ {
		for trial := 0; trial < 8; trial++ {
			r := row{make([]float64, n), make([]float32, n), make([]int8, n), int32(rng.Intn(256) - 128)}
			for i := range r.a64 {
				r.a64[i] = f64s[rng.Intn(len(f64s))]
				r.a32[i] = float32(r.a64[i])
				r.a8[i] = int8(rng.Intn(256) - 128)
				if rng.Intn(2) == 0 {
					r.a8[i] = int8(r.c)
				}
			}
			rows = append(rows, r)
		}
	}
	t.Run("f64", func(t *testing.T) {
		forSweeps(t, &f64Sweep, func(t *testing.T) {
			for _, r := range rows {
				checkLister(t, "f64", listF64, r.a64)
			}
		})
	})
	t.Run("f32", func(t *testing.T) {
		forSweeps(t, &f32Sweep, func(t *testing.T) {
			for _, r := range rows {
				checkLister(t, "f32", listF32, r.a32)
			}
		})
	})
	t.Run("int8", func(t *testing.T) {
		forSweeps(t, &i8Sweep, func(t *testing.T) {
			for _, r := range rows {
				n := len(r.a8)
				even := r.a8[:n&^1]
				got8 := slices.Repeat([]i8Entry{{-1, 0xdeadbeef}}, n/2+listGuard)
				want8 := slices.Repeat([]i8Entry{{-2, 0xfeedface}}, n/2)
				g, w := listEvenPairs(got8[:n/2], even, r.c), listPairsGo(want8, even, r.c)
				if g != w || !slices.Equal(got8[:g], want8[:w]) {
					t.Fatalf("int8, n %d, centre %d: listed %d %v, want %d %v", n, r.c, g, got8[:g], w, want8[:w])
				}
				if past := got8[n/2:]; !slices.Equal(past, slices.Repeat([]i8Entry{{-1, 0xdeadbeef}}, listGuard)) {
					t.Fatalf("int8, n %d: stored past the list: %v", n, past)
				}
			}
		})
	})
}

// FuzzListers holds every level's f64 and f32 lister to listNonzero,
// entry for entry and value bit for value bit, on rows of 0 to 70 raw
// float64 and float32 bits (NaN payloads, ±0, ±Inf and subnormals all
// reach them), and checks that none stores past its list. data
// supplies the f64 row eight bytes a value and the f32 row four, each
// cycled byte by byte.
func FuzzListers(f *testing.F) {
	var specials []byte
	for _, v := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8_0000_0000_0001), math.Float64frombits(0xfff4_0000_0000_0002),
		math.SmallestNonzeroFloat64, -0x1p-1040, 1.5, -2} {
		specials = binary.LittleEndian.AppendUint64(specials, math.Float64bits(v))
	}
	var specials32 []byte
	for _, v := range []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)),
		math.Float32frombits(0x7fc0_0001), math.Float32frombits(0xff80_0002),
		math.SmallestNonzeroFloat32, -0x1p-140, 1.5} {
		specials32 = binary.LittleEndian.AppendUint32(specials32, math.Float32bits(v))
	}
	f.Add(uint8(0), specials)
	f.Add(uint8(7), specials)
	f.Add(uint8(17), specials[8:])
	f.Add(uint8(64), specials32)
	f.Add(uint8(70), specials32[4:])
	f.Add(uint8(33), []byte{})
	f.Fuzz(func(t *testing.T, nb uint8, data []byte) {
		n := int(nb) % 71
		word := func(i, size int) uint64 {
			var w [8]byte
			for j := range size {
				if len(data) > 0 {
					w[j] = data[(size*i+j)%len(data)]
				}
			}
			return binary.LittleEndian.Uint64(w[:])
		}
		a64, a32 := make([]float64, n), make([]float32, n)
		for i := range n {
			a64[i] = math.Float64frombits(word(i, 8))
			a32[i] = math.Float32frombits(uint32(word(i, 4)))
		}
		defer func(s64, s32 sweepLevel) { f64Sweep, f32Sweep = s64, s32 }(f64Sweep, f32Sweep)
		for _, level := range sweeps(f64Sweep) {
			f64Sweep = level
			checkLister(t, fmt.Sprintf("f64 %v", level), listF64, a64)
		}
		for _, level := range sweeps(f32Sweep) {
			f32Sweep = level
			checkLister(t, fmt.Sprintf("f32 %v", level), listF32, a32)
		}
	})
}

// checkLister holds lister to listNonzero on row a: the same count and
// the same entries, value bits included, written over junk. The list
// is the front of a buffer listGuard entries longer, whose junk past
// the list must come back untouched.
func checkLister[E float](t *testing.T, what string, lister func([]entry[E], []E) int, a []E) {
	t.Helper()
	n := len(a)
	got, want := junkList[E](n+listGuard), junkList[E](n)
	g, w := lister(got[:n], a), listNonzero(want, a)
	if g != w || !sameEntries(got[:g], want[:w]) {
		t.Fatalf("%s, n %d: listed %d %v, want %d %v", what, n, g, got[:g], w, want[:w])
	}
	if past := got[n:]; !sameEntries(past, junkList[E](listGuard)) {
		t.Fatalf("%s, n %d: stored past the list: %v", what, n, past)
	}
}

// BenchmarkListers times each level's f64 and f32 lister on one ReLU
// row, half of it zero, of 3, 32, 64 and 512 activations: the small
// model's input and hidden widths and the wide model's. ns/op is one
// row.
func BenchmarkListers(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{3, 32, 64, 512} {
		a64, a32 := make([]float64, n), make([]float32, n)
		for i := range a64 {
			if rng.Intn(2) == 0 {
				a64[i] = 0.5 + rng.Float64()
				a32[i] = float32(a64[i])
			}
		}
		benchLister(b, fmt.Sprintf("f64/%d", n), &f64Sweep, listF64, a64)
		benchLister(b, fmt.Sprintf("f32/%d", n), &f32Sweep, listF32, a32)
	}
}

// benchLister runs one lister on row a at each level from *level down.
func benchLister[E float](b *testing.B, name string, level *sweepLevel, lister func([]entry[E], []E) int, a []E) {
	defer func(saved sweepLevel) { *level = saved }(*level)
	list := make([]entry[E], len(a))
	for _, l := range sweeps(*level) {
		b.Run(fmt.Sprintf("%s/%v", name, l), func(b *testing.B) {
			*level = l
			for b.Loop() {
				lister(list, a)
			}
		})
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
		if a[i].k != b[i].k || valueBits(a[i].v) != valueBits(b[i].v) {
			return false
		}
	}
	return true
}

// valueBits is v's bits at its own width, so a float32 NaN's signalling
// bit and payload compare as stored.
func valueBits[E float](v E) uint64 {
	if f, ok := any(v).(float32); ok {
		return uint64(math.Float32bits(f))
	}
	return math.Float64bits(float64(v))
}
