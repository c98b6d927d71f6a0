package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The transposed products of training, aᵀb (dW = XᵀG) and abᵀ
// (dX = GWᵀ), have no kernel of their own: a TransposeInto copy of one
// operand feeds DenseInto, as Dense.Backward and the conv layers do.
// These tests pin that composition against plain loops.

// transAInto computes dst = aᵀb for a [r,m] and b [r,n], transposing a
// into at (length m*r).
func transAInto(dst, at []float64, a, b *Tensor) {
	r, m, n := a.Dim(0), a.Dim(1), b.Dim(1)
	TransposeInto(at, a.Data(), r, m)
	DenseInto(dst, at, b.Data(), nil, m, r, n, ActIdentity)
}

// transBInto computes dst = abᵀ for a [m,r] and b [n,r], transposing b
// into bt (length r*n).
func transBInto(dst, bt []float64, a, b *Tensor) {
	m, r, n := a.Dim(0), a.Dim(1), b.Dim(0)
	TransposeInto(bt, b.Data(), n, r)
	DenseInto(dst, a.Data(), bt, nil, m, r, n, ActIdentity)
}

// transARef computes aᵀb the slow, obviously correct way.
func transARef(a, b *Tensor) *Tensor {
	r, m, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for rr := 0; rr < r; rr++ {
				s += a.At(rr, i) * b.At(rr, j)
			}
			out.Set(s, i, j)
		}
	}
	return out
}

// transBRef computes abᵀ the slow, obviously correct way.
func transBRef(a, b *Tensor) *Tensor {
	m, r, n := a.Dim(0), a.Dim(1), b.Dim(0)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for rr := 0; rr < r; rr++ {
				s += a.At(i, rr) * b.At(j, rr)
			}
			out.Set(s, i, j)
		}
	}
	return out
}

// TestPropMatMulTransAMatchesReference covers random shapes plus shapes
// crossing DenseInto's parallel-dispatch and panel-split thresholds. The
// plain loop sums ascending from +0 like DenseInto, so the match is bit
// for bit.
func TestPropMatMulTransAMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	shapes := [][3]int{{1, 1, 1}, {7, 1, 3}, {1, 5, 4}, {300, 3, 2}}
	for trial := 0; trial < 20; trial++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(40), 1 + rng.Intn(40), 1 + rng.Intn(40)})
	}
	shapes = append(shapes, [3]int{300, 70, 64}, [3]int{520, 9, 530}, [3]int{1100, 3, 1000})
	for _, s := range shapes {
		r, m, n := s[0], s[1], s[2]
		a := randTensor(rng, r, m)
		b := randTensor(rng, r, n)
		dst := Full(math.NaN(), m, n)
		transAInto(dst.Data(), make([]float64, m*r), a, b)
		want := transARef(a, b)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if g, w := dst.At(i, j), want.At(i, j); g != w {
					t.Fatalf("[%d %d %d] at (%d,%d): got %g, want %g", r, m, n, i, j, g, w)
				}
			}
		}
	}
}

// TestPropMatMulTransBMatchesReference covers random shapes plus shapes
// crossing DenseInto's parallel-dispatch and panel-split thresholds,
// bit for bit against the plain loop.
func TestPropMatMulTransBMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	shapes := [][3]int{{1, 1, 1}, {3, 7, 1}, {5, 1, 4}, {2, 300, 3}}
	for trial := 0; trial < 20; trial++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(40), 1 + rng.Intn(40), 1 + rng.Intn(40)})
	}
	shapes = append(shapes, [3]int{70, 300, 64}, [3]int{9, 530, 520}, [3]int{3, 1000, 1100})
	for _, s := range shapes {
		m, r, n := s[0], s[1], s[2]
		a := randTensor(rng, m, r)
		b := randTensor(rng, n, r)
		dst := Full(math.NaN(), m, n)
		transBInto(dst.Data(), make([]float64, r*n), a, b)
		want := transBRef(a, b)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if g, w := dst.At(i, j), want.At(i, j); g != w {
					t.Fatalf("[%d %d %d] at (%d,%d): got %g, want %g", m, r, n, i, j, g, w)
				}
			}
		}
	}
}

// TestMatMulTransIntoZeroAlloc asserts the warm training contract: with
// reused scratch below the parallel threshold, neither transposed
// product allocates.
func TestMatMulTransIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc assertions run in the non-race job")
	}
	rng := rand.New(rand.NewSource(31))
	a := randTensor(rng, 24, 16)
	b := randTensor(rng, 24, 8)
	dstA, at := make([]float64, 16*8), make([]float64, 16*24)
	if allocs := testing.AllocsPerRun(100, func() {
		transAInto(dstA, at, a, b)
	}); allocs != 0 {
		t.Fatalf("warm aᵀb allocates %.1f objects/call, want 0", allocs)
	}
	c := randTensor(rng, 8, 16)
	dstB, ct := make([]float64, 24*8), make([]float64, 16*8)
	if allocs := testing.AllocsPerRun(100, func() {
		transBInto(dstB, ct, a, c)
	}); allocs != 0 {
		t.Fatalf("warm abᵀ allocates %.1f objects/call, want 0", allocs)
	}
}

// TestMatMulTransABitIdenticalAcrossRowSplits mirrors the MatMul
// invariant for aᵀb: any split of its output rows (a's columns) must
// reproduce the whole product bit for bit, since workers split dW's rows
// during training.
func TestMatMulTransABitIdenticalAcrossRowSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const r, m, n = 130, 96, 50
	a := randTensor(rng, r, m)
	b := randTensor(rng, r, n)
	whole := New(m, n)
	transAInto(whole.Data(), make([]float64, m*r), a, b)
	for _, rows := range []int{1, 7, 32} {
		for lo := 0; lo < m; lo += rows {
			hi := min(lo+rows, m)
			sub, err := a.Narrow(1, lo, hi-lo)
			if err != nil {
				t.Fatal(err)
			}
			part := New(hi-lo, n)
			transAInto(part.Data(), make([]float64, (hi-lo)*r), sub.Contiguous(), b)
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
