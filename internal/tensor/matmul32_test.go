package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// matMulRef32 is the naive float32 reference: f32 storage, f32
// accumulation in k-ascending order — exactly what the blocked kernel
// computes per element, so comparison can be bitwise.
func matMulRef32(a, b []float32, m, k, n int) []float32 {
	out := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for kk := 0; kk < k; kk++ {
				s += a[i*k+kk] * b[kk*n+j]
			}
			out[i*n+j] = s
		}
	}
	return out
}

func randSlab32(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		if rng.Intn(8) != 0 { // zeros exercise the skip path
			s[i] = float32(rng.NormFloat64())
		}
	}
	return s
}

// TestPropMatMul32MatchesReference checks the packed, parallel f32
// kernel bitwise against the naive f32 reference across shapes that
// cross the parallel-dispatch threshold, both splits and partial
// panels, under each sweep.
func TestPropMatMul32MatchesReference(t *testing.T) {
	forSweeps(t, &f32Vector, func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		shapes := [][3]int{{1, 1, 1}, {1, 7, 3}, {5, 1, 4}, {3, 300, 2}}
		for trial := 0; trial < 20; trial++ {
			shapes = append(shapes, [3]int{1 + rng.Intn(40), 1 + rng.Intn(40), 1 + rng.Intn(40)})
		}
		// Past the f32 split threshold (2^20 multiply-adds under the
		// vector sweep, 2^18 under the portable one): split by rows
		// ([70 300 64]) and by panels where n > m, with a partial last
		// panel ([9 520 530]).
		shapes = append(shapes, [3]int{70, 300, 64}, [3]int{9, 520, 530}, [3]int{3, 2100, 1100})
		for _, s := range shapes {
			m, k, n := s[0], s[1], s[2]
			a := randSlab32(rng, m*k)
			b := randSlab32(rng, k*n)
			dst := make([]float32, m*n)
			if err := MatMulInto32(dst, a, b, m, k, n); err != nil {
				t.Fatalf("[%d %d %d]: %v", m, k, n, err)
			}
			want := matMulRef32(a, b, m, k, n)
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("[%d %d %d] element %d: got %g, want %g (kernel must be bit-identical to k-ascending reference)",
						m, k, n, i, dst[i], want[i])
				}
			}
		}
	})
}

// TestMatMul32MatchesFloat64 bounds the precision loss against the f64
// kernel: same inputs rounded to f32 must agree within single-precision
// relative tolerance. This is the kernel-level half of the accuracy
// gate (nn's forward32 test covers the full network).
func TestMatMul32MatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m, k, n := 17, 64, 9
	a64 := randTensor(rng, m, k)
	b64 := randTensor(rng, k, n)
	a32 := make([]float32, m*k)
	for i, v := range a64.Data() {
		a32[i] = float32(v)
	}
	b32 := make([]float32, k*n)
	for i, v := range b64.Data() {
		b32[i] = float32(v)
	}
	want := matMul(t, a64, b64)
	dst := make([]float32, m*n)
	if err := MatMulInto32(dst, a32, b32, m, k, n); err != nil {
		t.Fatal(err)
	}
	for i, w := range want.Data() {
		if diff := math.Abs(float64(dst[i]) - w); diff > 1e-4*(1+math.Abs(w)) {
			t.Fatalf("element %d: f32 %g vs f64 %g", i, dst[i], w)
		}
	}
}

func TestMatMul32Errors(t *testing.T) {
	a, b, dst := make([]float32, 6), make([]float32, 6), make([]float32, 4)
	if err := MatMulInto32(dst, a, b, 2, 3, 2); err != nil {
		t.Fatal(err)
	}
	if err := MatMulInto32(dst, a, b, 2, 2, 2); err == nil {
		t.Fatal("operand size mismatch must fail")
	}
	if err := MatMulInto32(dst[:3], a, b, 2, 3, 2); err == nil {
		t.Fatal("dst size mismatch must fail")
	}
	if err := MatMulInto32(dst, a, b, -2, -3, -2); err == nil {
		t.Fatal("negative dims must fail")
	}
}

// BenchmarkMatMul32vs64 compares the two kernels on the same logical
// product. The f32 path moves half the bytes and packs twice the lanes
// per vector, so it must be measurably faster at every size.
func BenchmarkMatMul32vs64(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, s := range [][3]int{{64, 16, 16}, {256, 256, 256}, {64, 1024, 1024}} {
		m, k, n := s[0], s[1], s[2]
		a64 := randTensor(rng, m, k)
		b64 := randTensor(rng, k, n)
		dst64 := New(m, n)
		a32 := make([]float32, m*k)
		for i, v := range a64.Data() {
			a32[i] = float32(v)
		}
		b32 := make([]float32, k*n)
		for i, v := range b64.Data() {
			b32[i] = float32(v)
		}
		dst32 := make([]float32, m*n)
		name := func(bits int) string {
			return fmt.Sprintf("f%d/%dx%dx%d", bits, m, k, n)
		}
		b.Run(name(64), func(b *testing.B) {
			b.SetBytes(int64(2 * m * k * n))
			for i := 0; i < b.N; i++ {
				if err := MatMulInto(dst64, a64, b64); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name(32), func(b *testing.B) {
			b.SetBytes(int64(2 * m * k * n))
			for i := 0; i < b.N; i++ {
				if err := MatMulInto32(dst32, a32, b32, m, k, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// rowLoopF32 is the plain f32 row loop the f32 kernel must match bit
// for bit: each row's nonzero activations added in ascending k from +0,
// then the bias, then act.
func rowLoopF32(a, b, bias []float32, m, k, n int, act Act) []float32 {
	out := make([]float32, m*n)
	for r := 0; r < m; r++ {
		orow := out[r*n : (r+1)*n]
		for kk, v := range a[r*k : (r+1)*k] {
			if v == 0 {
				continue
			}
			for j := range orow {
				orow[j] += b[kk*n+j] * v
			}
		}
		if bias != nil {
			for j := range orow {
				orow[j] += bias[j]
			}
		}
		for j, v := range orow {
			orow[j] = refAct(act, v)
		}
	}
	return out
}

// sameBits32 is bitwise equality, except that any two NaNs match (see
// FuzzPackedF64 for why NaN payloads are not compared).
func sameBits32(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || a != a && b != b
}

// FuzzPackedF32 checks the f32 row kernel on raw float32 bits, so ±0,
// ±Inf, NaN payloads and subnormals all reach it, at any shape up to
// [70, 40] x [40, 40] (one row, odd rows, rows across the 32-row block,
// n = 1 and partial panels), with and without a bias, under each of the
// five activations: ReLU fused by the sweep, the other three mapped
// after it. data supplies a, then b, then the bias, four bytes a value,
// cycled byte by byte. Into under the vector sweep, the same under the
// portable sweep, and a plain row loop must agree bit for bit, except
// that any two NaNs match; without bias and activation, MatMulInto32
// must too.
func FuzzPackedF32(f *testing.F) {
	var specials []byte
	for _, v := range []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7fc0_0001), math.Float32frombits(0xffa0_0002),
		math.SmallestNonzeroFloat32, -0x1p-140, 1.5, -2, 3e38, 3} {
		specials = binary.LittleEndian.AppendUint32(specials, math.Float32bits(v))
	}
	f.Add(uint8(0), uint8(1), uint8(0), uint8(0), specials)
	f.Add(uint8(32), uint8(13), uint8(16), uint8(1), specials)
	f.Add(uint8(68), uint8(40), uint8(8), uint8(5), specials[4:])
	f.Add(uint8(6), uint8(7), uint8(12), uint8(6), specials[8:])
	f.Add(uint8(34), uint8(9), uint8(39), uint8(2), specials[12:])
	f.Add(uint8(2), uint8(0), uint8(3), uint8(1), []byte{})
	f.Add(uint8(40), uint8(17), uint8(21), uint8(7), specials)
	f.Add(uint8(9), uint8(33), uint8(16), uint8(3), specials[4:])
	f.Add(uint8(3), uint8(5), uint8(7), uint8(9), specials[8:])
	f.Fuzz(func(t *testing.T, mb, kb, nb, flags uint8, data []byte) {
		m, k, n := 1+int(mb)%70, int(kb)%41, 1+int(nb)%40
		act, withBias := Act(flags%5), flags/5%2 != 0
		word := func(i int) float32 {
			var w [4]byte
			for j := range w {
				if len(data) > 0 {
					w[j] = data[(4*i+j)%len(data)]
				}
			}
			return math.Float32frombits(binary.LittleEndian.Uint32(w[:]))
		}
		a, b, bias := make([]float32, m*k), make([]float32, k*n), make([]float32, n)
		for i := range a {
			a[i] = word(i)
		}
		for i := range b {
			b[i] = word(len(a) + i)
		}
		for i := range bias {
			bias[i] = word(len(a) + len(b) + i)
		}
		if !withBias {
			bias = nil
		}
		want := rowLoopF32(a, b, bias, m, k, n, act)
		defer func(saved bool) { f32Vector = saved }(f32Vector)
		p := PackF32(b, bias, k, n)
		for _, vec := range sweeps(f32Vector) {
			f32Vector = vec
			got := make([]float32, m*n)
			p.Into(got, a, m, act)
			for i := range want {
				if !sameBits32(got[i], want[i]) {
					t.Fatalf("[%d %d %d] act %d bias %t vector %t element %d: Into %#x, want %#x",
						m, k, n, act, bias != nil, vec, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
			if act != ActIdentity || bias != nil {
				continue
			}
			if err := MatMulInto32(got, a, b, m, k, n); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !sameBits32(got[i], want[i]) {
					t.Fatalf("[%d %d %d] vector %t element %d: MatMulInto32 %#x, want %#x",
						m, k, n, vec, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
	})
}

// TestSweepF32AVXOperandOrder pins the vector sweep's operand order with
// NaN payloads, which x86 takes from the first operand when both are
// NaN: each product is weight * value, each sum acc + product, and the
// bias is added as sum + bias.
func TestSweepF32AVXOperandOrder(t *testing.T) {
	if !f32Vector {
		t.Skip("no vector sweep on this CPU")
	}
	nan := func(payload uint32) float32 { return math.Float32frombits(0x7fc0_0000 | payload) }
	for _, c := range []struct {
		name          string
		bias, w, v, u float32 // u is a second entry's value, 0 for none
		want          float32
	}{
		{"weight*value", 1, nan(2), nan(3), 0, nan(2)},
		{"sum+bias", nan(1), nan(2), nan(3), 0, nan(2)},
		{"acc+product", 0, nan(2), 1, nan(3), nan(2)},
	} {
		var bias, w [f32PanelWidth]float32
		for j := range bias {
			bias[j], w[j] = c.bias, c.w
		}
		entries := []f32Entry{{0, c.v}}
		if c.u != 0 {
			// The second entry multiplies weight row 1 (all ones) by
			// nan(3) into an acc that already holds nan(2).
			entries = append(entries, f32Entry{1, c.u})
		}
		pw := [][f32PanelWidth]float32{w, {}}
		for j := range pw[1] {
			pw[1][j] = 1
		}
		for _, rows := range []int{1, 2, 3} {
			var cnt [f32RowBlock]int
			k := len(pw)
			list := make([]f32Entry, rows*k)
			for r := 0; r < rows; r++ {
				copy(list[r*k:], entries)
				cnt[r] = len(entries)
			}
			out := make([]float32, rows*f32PanelWidth)
			sweepF32(out, f32PanelWidth, pw, &bias, list, k, &cnt, rows, false)
			for i, got := range out {
				if math.Float32bits(got) != math.Float32bits(c.want) {
					t.Fatalf("%s, %d rows: row %d lane %d = %#x, want %#x", c.name, rows, i/f32PanelWidth, i%f32PanelWidth,
						math.Float32bits(got), math.Float32bits(c.want))
				}
			}
		}
	}
}

// TestSweepF32ReLU pins the ReLU each sweep applies before its store:
// NaN of any payload and sign, both zeros, -Inf and negatives store
// +0's bits, and +Inf and positives store unchanged. The vector sweep's
// VMAXPS gets this only with +0 as its second source. Each row's outputs
// are +0 plus its bias (an empty list) or 1 * 0 plus its bias (one
// entry, so the value has been through the add chain). A last case pins
// that the bias is added after the sum: 2^25 + 1 and then -2^25 is 0,
// as bias first would give, while 2^25 - 2^25 and then + 1 is 1.
func TestSweepF32ReLU(t *testing.T) {
	f := math.Float32frombits
	relus := []float32{f(0x7fc0_0001), f(0xffc0_0000), f(0x7f80_0001), f(0xffa0_0002),
		float32(math.Copysign(0, -1)), 0, float32(math.Inf(-1)), -0x1p-148, -2.5}
	keeps := []float32{float32(math.Inf(1)), 1.5, 0x1p-148, math.MaxFloat32}
	vals := append(append([]float32{}, relus...), keeps...)
	forSweeps(t, &f32Vector, func(t *testing.T) {
		for base := 0; base < len(vals); base += f32PanelWidth {
			var bias [f32PanelWidth]float32
			want := make([]uint32, f32PanelWidth)
			for j := range bias {
				i := (base + j) % len(vals)
				bias[j] = vals[i]
				if i >= len(relus) {
					want[j] = math.Float32bits(vals[i])
				}
			}
			for _, entries := range []int{0, 1} {
				for _, rows := range []int{1, 2, 3} {
					var cnt [f32RowBlock]int
					list := make([]f32Entry, rows)
					for r := range list {
						list[r], cnt[r] = f32Entry{0, 1}, entries
					}
					const stride = f32PanelWidth + 3
					out := make([]float32, (rows-1)*stride+f32PanelWidth)
					sweepF32(out, stride, [][f32PanelWidth]float32{{}}, &bias, list, 1, &cnt, rows, true)
					for r := 0; r < rows; r++ {
						for j, got := range out[r*stride:][:f32PanelWidth] {
							if math.Float32bits(got) != want[j] {
								t.Fatalf("relu(%#x), %d rows, %d entries: row %d stored %#x, want %#x",
									math.Float32bits(bias[j]), rows, entries, r, math.Float32bits(got), want[j])
							}
						}
					}
				}
			}
		}
		var bias, one [f32PanelWidth]float32
		for j := range bias {
			bias[j], one[j] = 1, 1
		}
		for _, rows := range []int{1, 2, 3} {
			var cnt [f32RowBlock]int
			list := make([]f32Entry, 2*rows)
			for r := 0; r < rows; r++ {
				list[2*r], list[2*r+1], cnt[r] = f32Entry{0, 0x1p25}, f32Entry{0, -0x1p25}, 2
			}
			out := make([]float32, rows*f32PanelWidth)
			sweepF32(out, f32PanelWidth, [][f32PanelWidth]float32{one, one}, &bias, list, 2, &cnt, rows, true)
			for i, got := range out {
				if got != 1 {
					t.Fatalf("%d rows: element %d = %g, want 1 (bias added after the sum)", rows, i, got)
				}
			}
		}
	})
}

// TestPackedF32RowsStoreOnlyTheirRange is TestPackedF64RowsStoreOnlyTheirRange
// for the f32 kernel: rows over sub-ranges [lo, hi) x [q0, q1) of a dst
// filled with a NaN sentinel must write exactly those rows' panel
// columns, with and without a fused or mapped activation, partial last
// panels (n % 16 != 0) included.
func TestPackedF32RowsStoreOnlyTheirRange(t *testing.T) {
	const guard = 16
	sentinel := math.Float32frombits(0x7fc0_beef)
	forSweeps(t, &f32Vector, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		for _, s := range [][3]int{{5, 3, 16}, {9, 13, 40}, {40, 7, 33}, {70, 33, 1}, {37, 10, 48}} {
			m, k, n := s[0], s[1], s[2]
			a, b, bias := randSlab32(rng, m*k), randSlab32(rng, k*n), randSlab32(rng, n)
			p := PackF32(b, bias, k, n)
			for _, act := range []Act{ActIdentity, ActReLU, ActLeakyReLU} {
				want := rowLoopF32(a, b, bias, m, k, n, act)
				for _, rr := range [][2]int{{0, m}, {0, 1}, {m - 1, m}, {1, m}, {2, min(m, 35)}, {m / 2, m/2 + 3}} {
					for _, qq := range [][2]int{{0, p.panels}, {p.panels - 1, p.panels}, {p.panels / 2, p.panels}, {0, (p.panels + 1) / 2}} {
						lo, hi, q0, q1 := rr[0], rr[1], qq[0], qq[1]
						if lo >= hi || q0 >= q1 {
							continue
						}
						buf := make([]float32, guard+m*n+guard)
						for i := range buf {
							buf[i] = sentinel
						}
						p.rows(buf[guard:guard+m*n], a, lo, hi, q0, q1, act)
						for i, got := range buf {
							e := i - guard
							r, j := e/n, e%n
							in := e >= 0 && e < m*n && r >= lo && r < hi && j >= q0*f32PanelWidth && j < q1*f32PanelWidth
							wantBits := math.Float32bits(sentinel)
							if in {
								wantBits = math.Float32bits(want[e])
							}
							if math.Float32bits(got) != wantBits {
								t.Fatalf("[%d %d %d] act %d rows [%d,%d) panels [%d,%d): buf[%d] (element %d, in range %t) = %#x, want %#x",
									m, k, n, act, lo, hi, q0, q1, i, e, in, math.Float32bits(got), wantBits)
							}
						}
					}
				}
			}
		}
	})
}

// BenchmarkPackedF32 times PackedF32.Into with ReLU on BenchmarkPackedF64's
// layer shapes, at a 32-row batch of nonzero activations, under each
// sweep this CPU has. ns/entry is per listed activation per 16-column
// panel: one broadcast, sixteen multiplies and sixteen adds. 32x32x1's
// only panel is partial, so its outputs go through the row scratch.
func BenchmarkPackedF32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	paths := sweeps(f32Vector)
	defer func(saved bool) { f32Vector = saved }(f32Vector)
	for _, s := range [][3]int{{32, 512, 512}, {32, 64, 32}, {32, 3, 64}, {32, 32, 1}} {
		m, k, n := s[0], s[1], s[2]
		a := make([]float32, m*k)
		for i := range a {
			a[i] = float32(0.5 + rng.Float64())
		}
		p := PackF32(randSlab32(rng, k*n), randSlab32(rng, n), k, n)
		dst := make([]float32, m*n)
		for _, vec := range paths {
			name := fmt.Sprintf("%dx%dx%d/portable", m, k, n)
			if vec {
				name = fmt.Sprintf("%dx%dx%d/vector", m, k, n)
			}
			b.Run(name, func(b *testing.B) {
				f32Vector = vec
				for b.Loop() {
					p.Into(dst, a, m, ActReLU)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m*k*p.panels), "ns/entry")
			})
		}
	}
}
