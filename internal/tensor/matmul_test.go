package tensor

import (
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
	// Cross matMulParFLOPs and both parallel splits: by rows, and by
	// panels where n > m. Odd n leaves a partial last panel; with fewer
	// than packMinRows rows it is read in place, overlapping the panel
	// before it.
	shapes = append(shapes, [3]int{70, 300, 64}, [3]int{9, 520, 530}, [3]int{3, 1100, 1000}, [3]int{5, 700, 1001})
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n)
		got, err := MatMul(a, b)
		if err != nil {
			t.Fatalf("[%d %d %d]: %v", m, k, n, err)
		}
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
	rng := rand.New(rand.NewSource(7))
	const m, k, n = 96, 130, 50
	a := randTensor(rng, m, k)
	b := randTensor(rng, k, n)
	whole, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range []int{1, 7, 32} {
		for lo := 0; lo < m; lo += rows {
			hi := min(lo+rows, m)
			sub, err := a.Narrow(0, lo, hi-lo)
			if err != nil {
				t.Fatal(err)
			}
			part, err := MatMul(sub, b)
			if err != nil {
				t.Fatal(err)
			}
			for i := lo; i < hi; i++ {
				for j := 0; j < n; j++ {
					if part.At(i-lo, j) != whole.At(i, j) {
						t.Fatalf("rows=%d: row %d differs from whole product", rows, i)
					}
				}
			}
		}
	}
}

func TestMatMulStridedOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	at := randTensor(rng, 6, 9)
	a, err := at.Transpose(0, 1) // [9, 6], non-contiguous
	if err != nil {
		t.Fatal(err)
	}
	b := randTensor(rng, 6, 4)
	got, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
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
	want, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
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
	want2, _ := MatMul(a2, b)
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

func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{64, 256} {
		x := randTensor(rng, size, size)
		y := randTensor(rng, size, size)
		b.Run(fmt.Sprintf("n%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := MatMul(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n%d-into", size), func(b *testing.B) {
			dst := New(size, size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := MatMulInto(dst, x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
