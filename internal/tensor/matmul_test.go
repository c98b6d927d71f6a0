package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// matMulRef is the naive triple-loop reference the blocked kernel must
// reproduce.
func matMulRef(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for kk := 0; kk < k; kk++ {
				s += a.At(i, kk) * b.At(kk, j)
			}
			out.Set(s, i, j)
		}
	}
	return out
}

// matMul returns a @ b in a new tensor through MatMulInto.
func matMul(t testing.TB, a, b *Tensor) *Tensor {
	t.Helper()
	out := New(a.Dim(0), b.Dim(1))
	if err := MatMulInto(out, a, b); err != nil {
		t.Fatal(err)
	}
	return out
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	d := t.Data()
	for i := range d {
		switch rng.Intn(8) {
		case 0:
			d[i] = 0 // exercise the zero-skip path
		default:
			d[i] = rng.NormFloat64()
		}
	}
	return t
}

// TestPropMatMulMatchesReference checks the blocked, parallel kernel
// against the naive reference over random shapes, including shapes large
// enough to cross the block and parallel-dispatch thresholds.
func TestPropMatMulMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := [][3]int{{1, 1, 1}, {1, 7, 3}, {5, 1, 4}, {3, 300, 2}}
	for trial := 0; trial < 20; trial++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(40), 1 + rng.Intn(40), 1 + rng.Intn(40)})
	}
	// Cross parMACs and both parallel splits: by rows, and by
	// panels where n > m. Odd n leaves a partial, zero-padded last panel.
	shapes = append(shapes, [3]int{70, 300, 64}, [3]int{9, 520, 530}, [3]int{3, 1100, 1000}, [3]int{5, 700, 1001})
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n)
		got := matMul(t, a, b)
		want := matMulRef(a, b)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				g, w := got.At(i, j), want.At(i, j)
				if math.Abs(g-w) > 1e-9*(1+math.Abs(w)) {
					t.Fatalf("[%d %d %d] at (%d,%d): got %g, want %g", m, k, n, i, j, g, w)
				}
			}
		}
	}
}

// TestMatMulBitIdenticalAcrossRowSplits verifies that computing a product
// whole gives bit-identical rows to computing any row subset: the batched
// inference path relies on this to match sequential execution exactly.
func TestMatMulBitIdenticalAcrossRowSplits(t *testing.T) {
	forSweeps(t, &f64Sweep, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		const m, k, n = 96, 130, 50
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n)
		whole := matMul(t, a, b)
		for _, rows := range []int{1, 7, 32} {
			for lo := 0; lo < m; lo += rows {
				hi := min(lo+rows, m)
				sub, err := a.Narrow(0, lo, hi-lo)
				if err != nil {
					t.Fatal(err)
				}
				part := matMul(t, sub, b)
				for i := lo; i < hi; i++ {
					for j := 0; j < n; j++ {
						if part.At(i-lo, j) != whole.At(i, j) {
							t.Fatalf("rows=%d: row %d differs from whole product", rows, i)
						}
					}
				}
			}
		}
	})
}

// TestPackedF64MatchesDenseInto checks that a matrix packed once by
// PackF64 gives DenseInto's answer bit for bit, with and without a bias,
// across the serial case and both parallel splits, and that the packed
// copy does not see later writes to the matrix it was packed from.
func TestPackedF64MatchesDenseInto(t *testing.T) {
	forSweeps(t, &f64Sweep, func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		for _, s := range [][3]int{{0, 4, 5}, {1, 1, 1}, {1, 7, 3}, {7, 13, 8}, {9, 30, 17}, {70, 300, 64}, {9, 520, 530}} {
			m, k, n := s[0], s[1], s[2]
			a := randTensor(rng, m, k).Data()
			b := randTensor(rng, k, n).Data()
			for _, bias := range [][]float64{nil, randTensor(rng, n).Data()} {
				want := make([]float64, m*n)
				DenseInto(want, a, b, bias, m, k, n, ActReLU)
				p := PackF64(b, bias, k, n)
				got := make([]float64, m*n)
				for i := range got {
					got[i] = math.NaN()
				}
				p.Into(got, a, m, ActReLU)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("[%d %d %d] bias=%t: element %d = %g, want %g", m, k, n, bias != nil, i, got[i], want[i])
					}
				}
				for i := range b {
					b[i] += 1
				}
				p.Into(got, a, m, ActReLU)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("[%d %d %d]: the packed copy saw a write to b", m, k, n)
					}
				}
			}
		}
	})
}

func TestMatMulStridedOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	at := randTensor(rng, 6, 9)
	a, err := at.Transpose(0, 1) // [9, 6], non-contiguous
	if err != nil {
		t.Fatal(err)
	}
	b := randTensor(rng, 6, 4)
	got := matMul(t, a, b)
	want := matMulRef(a.Contiguous(), b)
	for i := 0; i < 9; i++ {
		for j := 0; j < 4; j++ {
			if math.Abs(got.At(i, j)-want.At(i, j)) > 1e-12 {
				t.Fatalf("strided matmul differs at (%d,%d)", i, j)
			}
		}
	}
}

// TestMatMulInto checks buffer reuse: a dst full of garbage must be fully
// overwritten, and back-to-back calls into the same dst must agree.
func TestMatMulInto(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randTensor(rng, 8, 12)
	b := randTensor(rng, 12, 5)
	dst := Full(math.NaN(), 8, 5)
	if err := MatMulInto(dst, a, b); err != nil {
		t.Fatal(err)
	}
	want := matMulRef(a, b)
	for i := 0; i < 8; i++ {
		for j := 0; j < 5; j++ {
			if dst.At(i, j) != want.At(i, j) {
				t.Fatalf("into result differs at (%d,%d): %g vs %g", i, j, dst.At(i, j), want.At(i, j))
			}
		}
	}
	// Second product into the same buffer.
	a2 := randTensor(rng, 8, 12)
	if err := MatMulInto(dst, a2, b); err != nil {
		t.Fatal(err)
	}
	want2 := matMulRef(a2, b)
	if dst.At(3, 2) != want2.At(3, 2) {
		t.Fatal("dst not refreshed on reuse")
	}
}

func TestMatMulIntoErrors(t *testing.T) {
	a, b := New(3, 4), New(4, 2)
	if err := MatMulInto(New(3, 3), a, b); err == nil {
		t.Fatal("want error for dst shape mismatch")
	}
	bad, err := New(2, 3).Transpose(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := MatMulInto(bad, a, b); err == nil {
		t.Fatal("want error for non-contiguous dst")
	}
	if err := MatMulInto(New(3, 2), New(3), b); err == nil {
		t.Fatal("want error for rank-1 operand")
	}
	if err := MatMulInto(New(3, 2), New(3, 5), b); err == nil {
		t.Fatal("want error for inner-dim mismatch")
	}
}

// TestTransposeInto checks the transposed copy against a materialized
// Transpose view, including single-row and single-column slabs.
func TestTransposeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, s := range [][2]int{{1, 1}, {1, 9}, {9, 1}, {33, 17}, {8, 64}} {
		m, n := s[0], s[1]
		src := randTensor(rng, m, n)
		dst := make([]float64, m*n)
		TransposeInto(dst, src.Data(), m, n)
		view, err := src.Transpose(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range view.Contiguous().Data() {
			if dst[i] != w {
				t.Fatalf("[%d %d]: element %d = %g, want %g", m, n, i, dst[i], w)
			}
		}
	}
}

// BenchmarkMatMul times MatMulInto on square products and on shapes
// either side of parMACs (2^18 multiply-adds): square ones, which
// split by rows, and few-row ones through a 512-wide layer, which split
// by panels. Compare -cpu 1 with -cpu 2 to place the threshold.
func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range [][3]int{{64, 64, 64}, {256, 256, 256},
		{32, 64, 64}, {64, 64, 128}, {64, 128, 128},
		{1, 256, 512}, {1, 512, 512}, {2, 512, 512}, {4, 512, 512}} {
		m, k, n := s[0], s[1], s[2]
		x := randTensor(rng, m, k)
		y := randTensor(rng, k, n)
		b.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(b *testing.B) {
			dst := New(m, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := MatMulInto(dst, x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// forSweeps runs f as one subtest per sweep *level can take on this
// CPU, named after the sweep: the one the CPU selected, each vector
// sweep below it, and the portable one.
func forSweeps(t *testing.T, level *sweepLevel, f func(t *testing.T)) {
	t.Helper()
	defer func(saved sweepLevel) { *level = saved }(*level)
	for _, l := range sweeps(*level) {
		*level = l
		t.Run(l.String(), f)
	}
}

// sweeps lists the levels from top down to sweepPortable, for a fuzz
// target or benchmark that sets a sweep switch to each in turn.
func sweeps(top sweepLevel) []sweepLevel {
	var levels []sweepLevel
	for l := top; l > sweepPortable; l-- {
		levels = append(levels, l)
	}
	return append(levels, sweepPortable)
}

// BenchmarkPackedF64 times PackedF64.Into on the benchmark models' layer
// shapes, at a 32-row batch of nonzero activations, under each sweep
// this CPU has. ns/entry is per listed activation per 8-column panel:
// one broadcast, eight multiplies and eight adds. 32x32x1, the small
// model's last layer, is the one served shape whose only panel is
// partial, so its outputs go through the row scratch.
func BenchmarkPackedF64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	paths := sweeps(f64Sweep)
	defer func(saved sweepLevel) { f64Sweep = saved }(f64Sweep)
	for _, s := range [][3]int{{32, 512, 512}, {32, 64, 32}, {32, 3, 64}, {32, 32, 1}} {
		m, k, n := s[0], s[1], s[2]
		a := make([]float64, m*k)
		for i := range a {
			a[i] = 0.5 + rng.Float64()
		}
		p := PackF64(randTensor(rng, k, n).Data(), randTensor(rng, n).Data(), k, n)
		dst := make([]float64, m*n)
		for _, level := range paths {
			name := fmt.Sprintf("%dx%dx%d/%v", m, k, n, level)
			b.Run(name, func(b *testing.B) {
				f64Sweep = level
				for b.Loop() {
					p.Into(dst, a, m, ActReLU)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m*k*p.panels), "ns/entry")
			})
		}
	}
}

// FuzzPackedF64 checks the f64 row kernel on raw float64 bits, so ±0,
// ±Inf, NaN payloads and subnormals all reach it, at any shape up to
// [70, 40] x [40, 40] (one row, odd rows, rows across the 32-row block,
// n = 1 and partial panels), under every activation, with and without a
// bias. data supplies a, then b, then the bias, eight bytes a value,
// cycled byte by byte. Into and DenseInto under the vector sweep, the
// same under the portable sweep, and a plain row loop must agree bit for
// bit, except that any two NaNs match: which payload survives NaN + NaN
// is whichever operand the compiler makes the destination, and Go treats
// both operations as commutative (the fuzzer's instrumented build of the
// portable sweep adds product + acc where the plain build adds
// acc + product). TestSweepF64AVXOperandOrder pins the vector sweep's.
func FuzzPackedF64(f *testing.F) {
	var specials []byte
	for _, v := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8_0000_0000_0001), math.Float64frombits(0xfff4_0000_0000_0002),
		math.SmallestNonzeroFloat64, -0x1p-1040, 1.5, -2, 1e308, 3} {
		specials = binary.LittleEndian.AppendUint64(specials, math.Float64bits(v))
	}
	f.Add(uint8(0), uint8(1), uint8(0), uint8(0), specials)
	f.Add(uint8(32), uint8(13), uint8(16), uint8(1), specials)
	f.Add(uint8(68), uint8(40), uint8(8), uint8(2), specials[8:])
	f.Add(uint8(6), uint8(7), uint8(12), uint8(3), specials[16:])
	f.Add(uint8(34), uint8(9), uint8(23), uint8(4|8), specials[24:])
	f.Add(uint8(2), uint8(0), uint8(3), uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, mb, kb, nb, ab uint8, data []byte) {
		m, k, n, act := 1+int(mb)%70, int(kb)%41, 1+int(nb)%40, Act(ab%5)
		word := func(i int) float64 {
			var w [8]byte
			for j := range w {
				if len(data) > 0 {
					w[j] = data[(8*i+j)%len(data)]
				}
			}
			return math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
		}
		a, b, bias := make([]float64, m*k), make([]float64, k*n), make([]float64, n)
		for i := range a {
			a[i] = word(i)
		}
		for i := range b {
			b[i] = word(len(a) + i)
		}
		for i := range bias {
			bias[i] = word(len(a) + len(b) + i)
		}
		if ab&8 != 0 {
			bias = nil
		}
		want := rowLoopF64(a, b, bias, m, k, n, act)
		defer func(saved sweepLevel) { f64Sweep = saved }(f64Sweep)
		paths := sweeps(f64Sweep)
		p := PackF64(b, bias, k, n)
		for _, level := range paths {
			f64Sweep = level
			got, dense := make([]float64, m*n), make([]float64, m*n)
			p.Into(got, a, m, act)
			DenseInto(dense, a, b, bias, m, k, n, act)
			for i := range want {
				if !sameBits(got[i], want[i]) || !sameBits(dense[i], want[i]) {
					t.Fatalf("[%d %d %d] act %d bias %t sweep %v element %d: Into %#x, DenseInto %#x, want %#x",
						m, k, n, act, bias != nil, level, i, math.Float64bits(got[i]), math.Float64bits(dense[i]), math.Float64bits(want[i]))
				}
			}
		}
	})
}

// refAct is each activation's formula written out, the oracle the
// kernels' epilogues and MapAct answer to: ReLU and the leaky slope
// computed in E, tanh and sigmoid in float64 rounded back to E.
func refAct[E float32 | float64](act Act, v E) E {
	switch act {
	case ActReLU:
		if v > 0 {
			return v
		}
		return 0
	case ActLeakyReLU:
		if v > 0 {
			return v
		}
		return E(0.01) * v
	case ActTanh:
		return E(math.Tanh(float64(v)))
	case ActSigmoid:
		return E(1 / (1 + math.Exp(-float64(v))))
	}
	return v
}

// rowLoopF64 is the plain row loop the f64 kernel must match bit for
// bit: act(bias + a @ b), each row's nonzero activations added in
// ascending k.
func rowLoopF64(a, b, bias []float64, m, k, n int, act Act) []float64 {
	out := make([]float64, m*n)
	for r := 0; r < m; r++ {
		orow := out[r*n : (r+1)*n]
		copy(orow, bias)
		for kk, v := range a[r*k : (r+1)*k] {
			if v == 0 {
				continue
			}
			for j := range orow {
				orow[j] += v * b[kk*n+j]
			}
		}
		for j, v := range orow {
			orow[j] = refAct(act, v)
		}
	}
	return out
}

// sameBits is bitwise equality, except that any two NaNs match.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// TestSweepF64AVXOperandOrder pins each vector sweep's operand order with
// NaN payloads, which x86 takes from the first operand when both are
// NaN: each product is weight * value and each sum acc + product, in
// the loops rows share and in those a row finishes alone.
func TestSweepF64AVXOperandOrder(t *testing.T) {
	forSweeps(t, &f64Sweep, func(t *testing.T) {
		if f64Sweep == sweepPortable {
			t.Skip("the portable sweep's NaN payloads are the compiler's choice")
		}
		nan := func(payload uint64) float64 { return math.Float64frombits(0x7ff8_0000_0000_0000 | payload) }
		for _, c := range []struct {
			name       string
			bias, w, v float64
			want       float64
		}{
			{"weight*value", 1, nan(2), nan(3), nan(2)},
			{"acc+product", nan(1), nan(2), nan(3), nan(1)},
		} {
			var bias, w [panelWidth]float64
			for j := range bias {
				bias[j], w[j] = c.bias, c.w
			}
			for _, rows := range []int{1, 2, 3, 4, 5, 8} {
				// Rows B and D of the first four-row group, and A and C
				// of the second, first add 1 * the zero panel row 1,
				// which leaves the acc as it is, so they reach the NaN
				// entry alone, after the group's shared count.
				var cnt [f64RowBlock]int
				const k = 2
				list := make([]f64Entry, rows*k)
				for r := 0; r < rows; r++ {
					rl := []f64Entry{{0, c.v}}
					if (r+r/4)%2 == 1 {
						rl = []f64Entry{{1, 1}, {0, c.v}}
					}
					cnt[r] = copy(list[r*k:], rl)
				}
				out := make([]float64, rows*panelWidth)
				sweepF64(out, panelWidth, [][panelWidth]float64{w, {}}, &bias, list, k, &cnt, rows, false)
				for i, got := range out {
					if math.Float64bits(got) != math.Float64bits(c.want) {
						t.Fatalf("%s, %d rows: row %d lane %d = %#x, want %#x", c.name, rows, i/panelWidth, i%panelWidth,
							math.Float64bits(got), math.Float64bits(c.want))
					}
				}
			}
		}
	})
}

// TestSweepF64ReLU pins the ReLU each sweep applies before its store:
// NaN of any payload and sign, both zeros, -Inf and negatives store
// +0's bits, and +Inf and positives store unchanged. The vector sweep's
// VMAXPD gets this only with +0 as its second source, the one x86
// returns for a NaN and for two zeros. Each row's outputs are its bias
// (an empty list) or its bias plus 1 * 0 (one entry, so the value has
// been through the add chain).
func TestSweepF64ReLU(t *testing.T) {
	f := math.Float64frombits
	relus := []float64{f(0x7ff8_0000_0000_0001), f(0xfff8_0000_0000_0000), f(0x7ff0_0000_0000_0001),
		f(0xfff4_0000_0000_0002), math.Copysign(0, -1), 0, math.Inf(-1), -0x1p-1070, -2.5}
	keeps := []float64{math.Inf(1), 1.5, 0x1p-1070, math.MaxFloat64}
	vals := append(append([]float64{}, relus...), keeps...)
	forSweeps(t, &f64Sweep, func(t *testing.T) {
		for base := 0; base < len(vals); base += panelWidth {
			var bias [panelWidth]float64
			want := make([]uint64, panelWidth)
			for j := range bias {
				i := (base + j) % len(vals)
				bias[j] = vals[i]
				if i >= len(relus) {
					want[j] = math.Float64bits(vals[i])
				}
			}
			for _, entries := range []int{0, 1} {
				for _, rows := range []int{1, 2, 3, 4, 5} {
					var cnt [f64RowBlock]int
					list := make([]f64Entry, rows)
					for r := range list {
						list[r], cnt[r] = f64Entry{0, 1}, entries
					}
					const stride = panelWidth + 3
					out := make([]float64, (rows-1)*stride+panelWidth)
					sweepF64(out, stride, [][panelWidth]float64{{}}, &bias, list, 1, &cnt, rows, true)
					for r := 0; r < rows; r++ {
						for j, got := range out[r*stride:][:panelWidth] {
							if math.Float64bits(got) != want[j] {
								t.Fatalf("relu(%#x), %d rows, %d entries: row %d stored %#x, want %#x",
									math.Float64bits(bias[j]), rows, entries, r, math.Float64bits(got), want[j])
							}
						}
					}
				}
			}
		}
	})
}

// TestPackedF64RowsStoreOnlyTheirRange runs rows over sub-ranges
// [lo, hi) x [q0, q1) of a dst filled with a NaN sentinel and checks
// that exactly those rows' panel columns hold the row loop's answer and
// that no other element, and nothing either side of dst, was touched.
// It covers odd row counts (whose paired B row must not be stored), row
// ranges across the 32-row block, a panel split (q0 > 0), a partial
// last panel (n % 8 != 0, which goes through the row scratch) and every
// activation. FuzzPackedF64 compares whole outputs, which a stray write
// into a region a later panel or row overwrites would pass.
func TestPackedF64RowsStoreOnlyTheirRange(t *testing.T) {
	const guard = 16
	sentinel := math.Float64frombits(0x7ff8_dead_beef_0001)
	forSweeps(t, &f64Sweep, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		for _, s := range [][3]int{{5, 3, 8}, {9, 13, 20}, {40, 7, 17}, {70, 33, 1}, {37, 10, 24}} {
			m, k, n := s[0], s[1], s[2]
			a := randTensor(rng, m, k).Data()
			b := randTensor(rng, k, n).Data()
			bias := randTensor(rng, n).Data()
			p := PackF64(b, bias, k, n)
			for act := ActIdentity; act <= ActSigmoid; act++ {
				want := rowLoopF64(a, b, bias, m, k, n, act)
				for _, rr := range [][2]int{{0, m}, {0, 1}, {m - 1, m}, {1, m}, {2, min(m, 35)}, {m / 2, m/2 + 3}} {
					for _, qq := range [][2]int{{0, p.panels}, {p.panels - 1, p.panels}, {p.panels / 2, p.panels}, {0, (p.panels + 1) / 2}} {
						lo, hi, q0, q1 := rr[0], rr[1], qq[0], qq[1]
						if lo >= hi || q0 >= q1 {
							continue
						}
						buf := make([]float64, guard+m*n+guard)
						for i := range buf {
							buf[i] = sentinel
						}
						p.rows(buf[guard:guard+m*n], a, lo, hi, q0, q1, act)
						for i, got := range buf {
							e := i - guard
							r, j := e/n, e%n
							in := e >= 0 && e < m*n && r >= lo && r < hi && j >= q0*panelWidth && j < q1*panelWidth
							wantBits := math.Float64bits(sentinel)
							if in {
								wantBits = math.Float64bits(want[e])
							}
							if math.Float64bits(got) != wantBits {
								t.Fatalf("[%d %d %d] act %d rows [%d,%d) panels [%d,%d): buf[%d] (element %d, in range %t) = %#x, want %#x",
									m, k, n, act, lo, hi, q0, q1, i, e, in, math.Float64bits(got), wantBits)
							}
						}
					}
				}
			}
		}
	})
}

// TestSweepRowGroups holds every sweep of the f64 and f32 kernels to
// sweepGo on blocks of 1 to 9 rows: a whole four-row group, a group and
// one more row, and last groups of one to three rows. Row counts differ
// (empty lists, one entry, the whole list, and gaps wider than a
// group's shared count, so rows finish alone), at a stride of one panel
// width and at a wider one whose gap elements must stay unwritten, with
// and without ReLU.
func TestSweepRowGroups(t *testing.T) {
	t.Run("f64", func(t *testing.T) {
		forSweeps(t, &f64Sweep, func(t *testing.T) { checkRowGroups(t, sweepF64, true, 8, 11) })
	})
	t.Run("f32", func(t *testing.T) {
		forSweeps(t, &f32Sweep, func(t *testing.T) { checkRowGroups(t, sweepF32, false, 16, 19) })
	})
}

// checkRowGroups runs TestSweepRowGroups' blocks through sweep and
// sweepGo at each of strides and compares every element's bits.
func checkRowGroups[E float, P panelRow[E]](t *testing.T,
	sweep func(out []E, stride int, pw []P, bias *P, list []entry[E], k int, cnt *[rowBlock]int, rows int, relu bool),
	biasFirst bool, strides ...int) {
	const k = 13
	rng := rand.New(rand.NewSource(59))
	var bias P
	w := len(bias)
	for j := range w {
		bias[j] = E(rng.NormFloat64())
	}
	pw := make([]P, k)
	for kk := range pw {
		for j := range w {
			pw[kk][j] = E(rng.NormFloat64())
		}
	}
	sentinel := E(math.Float64frombits(0x7ff8_dead_beef_0001))
	for rows := 1; rows <= 9; rows++ {
		for trial := 0; trial < 8; trial++ {
			var cnt [rowBlock]int
			list := make([]entry[E], rows*k)
			for r := 0; r < rows; r++ {
				cnt[r] = []int{0, 1, k, rng.Intn(k + 1)}[rng.Intn(4)]
				if trial == 0 {
					cnt[r] = []int{k, 1, 0, k, 5, k, 2, 0, k}[r]
				}
				for i := range k {
					list[r*k+i] = entry[E]{int32(rng.Intn(k)), E(rng.NormFloat64())}
				}
			}
			for _, stride := range strides {
				for _, relu := range []bool{false, true} {
					got, want := make([]E, (rows-1)*stride+w), make([]E, (rows-1)*stride+w)
					for i := range got {
						got[i], want[i] = sentinel, sentinel
					}
					sweep(got, stride, pw, &bias, list, k, &cnt, rows, relu)
					sweepGo(want, stride, pw, &bias, list, k, &cnt, rows, relu, biasFirst)
					for i := range want {
						if g, x := math.Float64bits(float64(got[i])), math.Float64bits(float64(want[i])); g != x {
							t.Fatalf("%d rows, counts %v, stride %d, relu %t: element %d (row %d) = %#x, want %#x",
								rows, cnt[:rows], stride, relu, i, i/stride, g, x)
						}
					}
				}
			}
		}
	}
}
