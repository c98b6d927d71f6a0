package tensor

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

// matMulRefI8 is the naive integer reference: widen each int8 operand
// to int32 and accumulate in k-ascending order. Integer addition is
// associative, so the packed pair kernel must reproduce this bit for bit
// on every shape, split, centre and sweep.
func matMulRefI8(a, b []int8, m, k, n int) []int32 {
	out := make([]int32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s int32
			for kk := 0; kk < k; kk++ {
				s += int32(a[i*k+kk]) * int32(b[kk*n+j])
			}
			out[i*n+j] = s
		}
	}
	return out
}

func randSlabI8(rng *rand.Rand, n int) []int8 {
	s := make([]int8, n)
	for i := range s {
		if rng.Intn(8) != 0 { // zeros exercise the skip path
			s[i] = int8(rng.Intn(256) - 128)
		}
	}
	return s
}

// TestPropMatMulInt8MatchesReference checks MatMulInt8Into — pack into
// pooled scratch, row kernel at centre 0 — bitwise against the naive
// reference across shapes that cross the parallel-dispatch threshold,
// back to back so the pooled packing is reused across sizes.
func TestPropMatMulInt8MatchesReference(t *testing.T) {
	forSweeps(t, &i8Sweep, func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		shapes := [][3]int{{1, 1, 1}, {1, 7, 3}, {5, 1, 4}, {3, 300, 2}}
		for trial := 0; trial < 20; trial++ {
			shapes = append(shapes, [3]int{1 + rng.Intn(40), 1 + rng.Intn(40), 1 + rng.Intn(40)})
		}
		// These cross the parallel threshold; the last is the deepest and
		// widest (2100 pairs per row, and n = 2100 leaves a 4-column last
		// panel).
		shapes = append(shapes, [3]int{70, 300, 64}, [3]int{900, 64, 64}, [3]int{2, 4200, 2100})
		for _, s := range shapes {
			m, k, n := s[0], s[1], s[2]
			a := randSlabI8(rng, m*k)
			b := randSlabI8(rng, k*n)
			dst := make([]int32, m*n)
			if err := MatMulInt8Into(dst, a, b, m, k, n); err != nil {
				t.Fatalf("[%d %d %d]: %v", m, k, n, err)
			}
			want := matMulRefI8(a, b, m, k, n)
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("[%d %d %d] element %d: got %d, want %d (kernel must be bit-identical to the widening reference)",
						m, k, n, i, dst[i], want[i])
				}
			}
		}
	})
}

// slabSink collects MatMulRows output into an [m, n] slab and counts
// deliveries per row.
type slabSink struct {
	n    int
	dst  []int32
	seen []atomic.Int32
}

func (s *slabSink) Int8Row(i int, acc []int32) {
	s.seen[i].Add(1)
	copy(s.dst[i*s.n:(i+1)*s.n], acc)
}

// runPackedRows runs a @ b through PackInt8 + MatMulRows at the given
// centre and returns the collected accumulators, failing unless every
// row was delivered exactly once at full width.
func runPackedRows(t *testing.T, a, b []int8, m, k, n int, centre int8) []int32 {
	t.Helper()
	p, err := PackInt8(b, k, n)
	if err != nil {
		t.Fatalf("[%d %d %d]: %v", m, k, n, err)
	}
	sink := &slabSink{n: n, dst: make([]int32, m*n), seen: make([]atomic.Int32, m)}
	if err := p.MatMulRows(a, m, centre, sink); err != nil {
		t.Fatalf("[%d %d %d]: %v", m, k, n, err)
	}
	for i := range sink.seen {
		if c := sink.seen[i].Load(); c != 1 {
			t.Fatalf("[%d %d %d] row %d delivered %d times", m, k, n, i, c)
		}
	}
	return sink.dst
}

// TestPropPackedRowsMatchReference is the differential property of the
// row kernel: for any centre the accumulator handed to the sink is
// sum(q*w) bit for bit. Shapes cover n = 1, n across the 16-column
// panels, odd k (a padded last pair), no rows, no depth, rows across the
// 32-row block, and the parallel split; operands
// cover codes at -128/127, rows entirely at the centre (an empty list)
// and rows with nothing at the centre (a full one); centres cover both
// ends of int8 and their neighbours.
func TestPropPackedRowsMatchReference(t *testing.T) {
	forSweeps(t, &i8Sweep, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		shapes := [][3]int{
			{0, 5, 3}, {4, 0, 3}, {4, 5, 0}, {1, 1, 1}, {3, 2, 1}, {3, 3, 1}, {2, 4, 1},
			{5, 7, 3}, {5, 9, 2}, {6, 13, 17}, {70, 300, 65}, {900, 64, 63},
		}
		for trial := 0; trial < 40; trial++ {
			shapes = append(shapes, [3]int{rng.Intn(12), rng.Intn(70), rng.Intn(40)})
		}
		centres := []int8{-128, -127, -1, 0, 1, 126, 127}
		for si, s := range shapes {
			m, k, n := s[0], s[1], s[2]
			centre := centres[si%len(centres)]
			if si >= len(centres)*2 {
				centre = int8(rng.Intn(256) - 128)
			}
			a := make([]int8, m*k)
			for i := range a {
				switch rng.Intn(6) {
				case 0:
					a[i] = centre
				case 1:
					a[i] = -128
				case 2:
					a[i] = 127
				default:
					a[i] = int8(rng.Intn(256) - 128)
				}
			}
			if m > 1 && k > 0 {
				for kk := 0; kk < k; kk++ {
					a[kk] = centre // row 0: nothing to accumulate
					if a[k+kk] == centre {
						a[k+kk] = centre ^ 0x55 // row 1: nothing to skip
					}
				}
			}
			b := make([]int8, k*n)
			for i := range b {
				switch rng.Intn(5) {
				case 0:
					b[i] = -128
				case 1:
					b[i] = 127
				default:
					b[i] = int8(rng.Intn(256) - 128)
				}
			}
			got := runPackedRows(t, a, b, m, k, n, centre)
			want := matMulRefI8(a, b, m, k, n)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("[%d %d %d] centre %d element %d: got %d, want %d",
						m, k, n, centre, i, got[i], want[i])
				}
			}
		}
		// The list stores every code and advances only past one off the
		// centre, so its ends need rows of their own: all codes at the centre
		// (every store is overwritten), none at it (the list fills to k), and
		// only the last off it (one entry, stored on the final iteration).
		for _, centre := range []int8{-128, -1, 0, 127} {
			for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 9, 64} {
				const m, n = 3, 5
				a := make([]int8, m*k)
				for kk := 0; kk < k; kk++ {
					a[kk] = centre
					a[k+kk] = centre ^ int8(1+rng.Intn(127))
					a[2*k+kk] = centre
				}
				a[3*k-1] = ^centre
				b := randSlabI8(rng, k*n)
				got := runPackedRows(t, a, b, m, k, n, centre)
				want := matMulRefI8(a, b, m, k, n)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("edge rows k = %d centre %d element %d: got %d, want %d",
							k, centre, i, got[i], want[i])
					}
				}
			}
		}
	})
}

// TestMatMulInt8DepthBound pins the exactness bound the kernel
// enforces: with every activation code at -128 against centre 127 the
// centred multiplier is -255, the widest there is, and the row's int32
// accumulator must still be exact at k = MaxInt8Depth for weights at
// either extreme. One deeper and
// packing refuses instead of overflowing the accumulator.
func TestMatMulInt8DepthBound(t *testing.T) {
	forSweeps(t, &i8Sweep, func(t *testing.T) {
		const m, n = 2, 5
		for _, tc := range []struct {
			k  int
			ok bool
		}{{MaxInt8Depth, true}, {MaxInt8Depth + 1, false}} {
			a := make([]int8, m*tc.k)
			for i := range a {
				a[i] = -128
			}
			b := make([]int8, tc.k*n)
			for kk := 0; kk < tc.k; kk++ {
				row := b[kk*n : (kk+1)*n]
				row[0], row[1], row[2], row[3] = 127, -127, -128, 127
				row[4] = int8(127 - 254*(kk%2)) // alternating: the lanes cancel
			}
			_, err := PackInt8(b, tc.k, n)
			if (err == nil) != tc.ok {
				t.Fatalf("k = %d: PackInt8 error %v, want ok = %v", tc.k, err, tc.ok)
			}
			dst := make([]int32, m*n)
			if err := MatMulInt8Into(dst, a, b, m, tc.k, n); (err == nil) != tc.ok {
				t.Fatalf("k = %d: MatMulInt8Into error %v, want ok = %v", tc.k, err, tc.ok)
			}
			if !tc.ok {
				continue
			}
			want := matMulRefI8(a, b, m, tc.k, n)
			for _, centre := range []int8{127, 0, -128} {
				got := runPackedRows(t, a, b, m, tc.k, n, centre)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("k = %d centre %d element %d: got %d, want %d", tc.k, centre, i, got[i], want[i])
					}
				}
			}
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("k = %d wrapper element %d: got %d, want %d", tc.k, i, dst[i], want[i])
				}
			}
		}
	})
}

// TestPackedInt8PairBound drives every multiply-add lane of the sweep
// to its largest magnitude, 2 * 255 * 128 = 65280: every weight at -128
// against codes at the far end from the centre (centred codes -255 or
// +255), at k = MaxInt8Depth and one below it (an odd k, whose last pair
// is padded), so every row's centred sum sits within 2^23 of the int32
// bound. n covers one column, one whole 16-column panel and a partial
// third panel; three rows run one row pair and one row alone. The rows
// must match the widening reference bit for bit, through MatMulRows and
// MatMulInt8Into, under each sweep.
func TestPackedInt8PairBound(t *testing.T) {
	forSweeps(t, &i8Sweep, func(t *testing.T) {
		for _, n := range []int{1, i8PanelWidth, 2*i8PanelWidth + 1} {
			for _, k := range []int{MaxInt8Depth - 1, MaxInt8Depth} {
				b := make([]int8, k*n)
				for i := range b {
					b[i] = -128
				}
				for _, tc := range []struct{ code, centre int8 }{{-128, 127}, {127, -128}} {
					const m = 3
					a := make([]int8, m*k)
					for i := range a {
						a[i] = tc.code
					}
					want := matMulRefI8(a, b, m, k, n)
					got := runPackedRows(t, a, b, m, k, n, tc.centre)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("n = %d k = %d centre %d element %d: got %d, want %d",
								n, k, tc.centre, i, got[i], want[i])
						}
					}
					dst := make([]int32, m*n)
					if err := MatMulInt8Into(dst, a, b, m, k, n); err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if dst[i] != want[i] {
							t.Fatalf("n = %d k = %d wrapper element %d: got %d, want %d", n, k, i, dst[i], want[i])
						}
					}
				}
			}
		}
	})
}

// FuzzPackedRows checks the row kernel bit for bit against the widening
// reference on any shape up to [8, 300] x [300, 40], any centre and any
// codes, under the vector sweep and the portable one: data supplies the
// activations and then the weights, cycled when it is shorter than
// both.
func FuzzPackedRows(f *testing.F) {
	f.Add(uint8(8), uint16(300), uint8(40), int8(127), []byte{0x80, 0x7f, 0x80})
	f.Add(uint8(3), uint16(65), uint8(7), int8(-128), []byte{0x7f, 0x80, 0x7f, 0x80})
	f.Add(uint8(2), uint16(33), uint8(5), int8(0), []byte{0, 1, 0xff, 0x80, 0x7f})
	f.Add(uint8(1), uint16(0), uint8(1), int8(3), []byte{})
	f.Fuzz(func(t *testing.T, mb uint8, kb uint16, nb uint8, centre int8, data []byte) {
		m, k, n := int(mb)%9, int(kb)%301, int(nb)%41
		code := func(i int) int8 {
			if len(data) == 0 {
				return 0
			}
			return int8(data[i%len(data)])
		}
		a, b := make([]int8, m*k), make([]int8, k*n)
		for i := range a {
			a[i] = code(i)
		}
		for i := range b {
			b[i] = code(len(a) + i)
		}
		want := matMulRefI8(a, b, m, k, n)
		defer func(saved sweepLevel) { i8Sweep = saved }(i8Sweep)
		for _, level := range sweeps(i8Sweep) {
			i8Sweep = level
			got := runPackedRows(t, a, b, m, k, n, centre)
			dst := make([]int32, m*n)
			if err := MatMulInt8Into(dst, a, b, m, k, n); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] || dst[i] != want[i] {
					t.Fatalf("[%d %d %d] centre %d sweep %v element %d: rows %d, wrapper %d, want %d",
						m, k, n, centre, level, i, got[i], dst[i], want[i])
				}
			}
		}
	})
}

func TestMatMulInt8Errors(t *testing.T) {
	a, b := make([]int8, 6), make([]int8, 6)
	dst := make([]int32, 4)
	if err := MatMulInt8Into(dst, a, b, 2, 3, 2); err != nil {
		t.Fatal(err)
	}
	if err := MatMulInt8Into(dst, a, b, 2, 2, 2); err == nil {
		t.Fatal("operand size mismatch must fail")
	}
	if err := MatMulInt8Into(dst[:3], a, b, 2, 3, 2); err == nil {
		t.Fatal("dst size mismatch must fail")
	}
	if err := MatMulInt8Into(dst, a, b, -2, -3, -2); err == nil {
		t.Fatal("negative dims must fail")
	}
	if _, err := PackInt8(b, 2, 2); err == nil {
		t.Fatal("packing a mis-sized matrix must fail")
	}
	p, err := PackInt8(b, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.MatMulRows(a, 3, 0, nil); err == nil {
		t.Fatal("activation size mismatch must fail")
	}
}

// BenchmarkMatMulInt8vs32 compares the int8 kernel against the f32 one
// on the same logical product; the int8 side packs b into 16-column
// int16 pair panels on every call, as MatMulInt8Into does. The first
// three cases draw nearly dense operands; sparse40 zeroes 40% of the
// activations — the share ReLU produces on the serve-sized MLP — which
// both kernels skip (the int8 one skips a pair only when both of its
// codes are zero), so it shows whether the int8 pair list keeps pace
// with the f32 zero test. It cycles through 64 seeded activation slabs,
// as a served layer sees fresh rows: a branch predictor that has
// learned where one repeated slab's zeros are would flatter a kernel
// that branches on them. The 16-wide case, one panel, is the one that
// must not pay for the packing.
func BenchmarkMatMulInt8vs32(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		tag     string
		m, k, n int
		zeros   float64 // extra share of activations forced to zero
		slabs   int     // distinct activation slabs the timed loop cycles through
	}{
		{"", 64, 16, 16, 0, 1},
		{"", 256, 256, 256, 0, 1},
		{"", 64, 1024, 1024, 0, 1},
		{"sparse40/", 32, 512, 512, 0.4, 64},
	} {
		m, k, n := tc.m, tc.k, tc.n
		a32s := make([][]float32, tc.slabs)
		a8s := make([][]int8, tc.slabs)
		for s := range a8s {
			a32, a8 := randSlab32(rng, m*k), randSlabI8(rng, m*k)
			for i := range a8 {
				if rng.Float64() < tc.zeros {
					a32[i], a8[i] = 0, 0
				}
			}
			a32s[s], a8s[s] = a32, a8
		}
		b32 := randSlab32(rng, k*n)
		dst32 := make([]float32, m*n)
		b8 := randSlabI8(rng, k*n)
		dst8 := make([]int32, m*n)
		name := func(prec string) string {
			return fmt.Sprintf("%s/%s%dx%dx%d", prec, tc.tag, m, k, n)
		}
		b.Run(name("f32"), func(b *testing.B) {
			b.SetBytes(int64(2 * m * k * n))
			for i := 0; i < b.N; i++ {
				if err := MatMulInto32(dst32, a32s[i%len(a32s)], b32, m, k, n); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name("i8"), func(b *testing.B) {
			b.SetBytes(int64(2 * m * k * n))
			for i := 0; i < b.N; i++ {
				if err := MatMulInt8Into(dst8, a8s[i%len(a8s)], b8, m, k, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPackedInt8 times PackedInt8.MatMulRows on the wide serving
// model's layer shapes (k x n: 512x512, 64x512 and 512x16) at a 32-row
// batch with half the codes at the centre, under each sweep this CPU
// has, cycling through 64 seeded activation slabs. ns/entry is per
// listed pair per 16-column panel: one broadcast, two multiply-adds of
// sixteen pairs and two adds.
func BenchmarkPackedInt8(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const m, slabs, centre = 32, 64, int8(-3)
	paths := sweeps(i8Sweep)
	defer func(saved sweepLevel) { i8Sweep = saved }(i8Sweep)
	for _, s := range [][2]int{{512, 512}, {64, 512}, {512, 16}} {
		k, n := s[0], s[1]
		p, err := PackInt8(randSlabI8(rng, k*n), k, n)
		if err != nil {
			b.Fatal(err)
		}
		as := make([][]int8, slabs)
		listed := make([]int, slabs)
		for i := range as {
			a := randSlabI8(rng, m*k)
			for j := range a {
				if rng.Intn(2) == 0 {
					a[j] = centre
				}
			}
			for j := 0; j < len(a); j += 2 { // k is even: no pair spans two rows
				if a[j] != centre || a[j+1] != centre {
					listed[i]++
				}
			}
			as[i] = a
		}
		sink := &slabSink{n: n, dst: make([]int32, m*n), seen: make([]atomic.Int32, m)}
		for _, level := range paths {
			name := fmt.Sprintf("%dx%d/%v", k, n, level)
			b.Run(name, func(b *testing.B) {
				i8Sweep = level
				entries := 0
				for i := 0; b.Loop(); i++ {
					if err := p.MatMulRows(as[i%slabs], m, centre, sink); err != nil {
						b.Fatal(err)
					}
					entries += listed[i%slabs]
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(entries*p.panels), "ns/entry")
			})
		}
	}
}
