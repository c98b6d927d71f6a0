package tensor

import (
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

// TestPropMatMul32MatchesReference checks the blocked, parallel f32
// kernel bitwise against the naive f32 reference across shapes that
// cross the parallel-dispatch, block, and panel-path thresholds.
func TestPropMatMul32MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := [][3]int{{1, 1, 1}, {1, 7, 3}, {5, 1, 4}, {3, 300, 2}}
	for trial := 0; trial < 20; trial++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(40), 1 + rng.Intn(40), 1 + rng.Intn(40)})
	}
	// f32 elements halve B's footprint, so crossing matMulPanelBytes
	// needs k*n > 2M elements.
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
