package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// chooser draws the small choices that shape a CopyFlat case: the
// oracle test draws them from a seeded source, the fuzz target from its
// input bytes.
type chooser interface{ intn(n int) int }

type randChooser struct{ r *rand.Rand }

func (c randChooser) intn(n int) int { return c.r.Intn(n) }

type byteChooser struct{ b []byte }

func (c *byteChooser) intn(n int) int {
	if len(c.b) == 0 {
		return 0
	}
	v := int(c.b[0]) % n
	c.b = c.b[1:]
	return v
}

// oracleCopyFlat is CopyFlat element by element: both tensors are
// walked in row-major logical order, and every element is addressed
// from its full multi-index through At and Set.
func oracleCopyFlat(dst, src *Tensor) {
	si, di := make([]int, src.Rank()), make([]int, dst.Rank())
	next := func(idx, shape []int) {
		for d := len(idx) - 1; d >= 0; d-- {
			if idx[d]++; idx[d] < shape[d] {
				return
			}
			idx[d] = 0
		}
	}
	for range src.Len() {
		dst.Set(src.At(si...), di...)
		next(si, src.shape)
		next(di, dst.shape)
	}
}

// factorShape splits n elements into a random shape of rank 0 to 4,
// singleton dims included; a rank-0 shape only when n is 1.
func factorShape(c chooser, n int) []int {
	rank := c.intn(5)
	if n == 0 {
		shape := make([]int, max(rank, 1))
		for i := range shape {
			shape[i] = 1 + c.intn(3)
		}
		shape[c.intn(len(shape))] = 0
		return shape
	}
	if rank == 0 && n != 1 {
		rank = 1
	}
	shape := make([]int, rank)
	m := n
	for i := 0; i < rank-1; i++ {
		var divs []int
		for d := 1; d <= m; d++ {
			if m%d == 0 {
				divs = append(divs, d)
			}
		}
		shape[i] = divs[c.intn(len(divs))]
		m /= shape[i]
	}
	if rank > 0 {
		shape[rank-1] = m
	}
	return shape
}

// stridedView returns a view of the given shape over a larger base
// filled with distinct values tagged by tag: each dim is cut from a
// padded base dim by Narrow or by Slice with a step, so offsets are
// nonzero, and the base dims are laid out in a random order that
// Transposes put back.
func stridedView(c chooser, shape []int, tag float64) (view *Tensor, base []float64) {
	rank := len(shape)
	perm := make([]int, rank) // base dim i holds view dim perm[i]
	for i := range perm {
		perm[i] = i
	}
	for i := rank - 1; i > 0; i-- {
		j := c.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	type cut struct{ start, stop, step int }
	cuts := make([]cut, rank)
	baseShape := make([]int, rank)
	for i, d := range perm {
		step := 1 + c.intn(3)
		start := c.intn(3)
		stop := start + (shape[d]-1)*step + 1
		if shape[d] == 0 {
			stop = start
		}
		cuts[i] = cut{start, stop, step}
		baseShape[i] = stop + c.intn(2)
	}
	base = make([]float64, NumElements(baseShape)+c.intn(3))
	for i := range base {
		base[i] = tag + float64(i)
	}
	v, err := Wrap(base, baseShape...)
	if err != nil {
		panic(err)
	}
	for i, ct := range cuts {
		if ct.step == 1 && c.intn(2) == 0 {
			v, err = v.Narrow(i, ct.start, ct.stop-ct.start)
		} else {
			v, err = v.Slice(i, ct.start, ct.stop, ct.step)
		}
		if err != nil {
			panic(err)
		}
	}
	// Put the view dims back in order: selection by Transpose.
	for i := 0; i < rank; i++ {
		j := i
		for perm[j] != i {
			j++
		}
		if j != i {
			if v, err = v.Transpose(i, j); err != nil {
				panic(err)
			}
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	if !ShapeEqual(v.shape, shape) {
		panic("stridedView: built shape " + v.String())
	}
	return v, base
}

// operand is one side of a case: a contiguous tensor or a strided view.
func operand(c chooser, shape []int, tag float64) (*Tensor, []float64) {
	if c.intn(3) == 0 {
		t := New(shape...)
		for i := range t.data {
			t.data[i] = tag + float64(i)
		}
		return t, t.data
	}
	return stridedView(c, shape, tag)
}

// checkCopyFlat draws a source shape and a destination shape of the
// same element count, builds both sides as views, and compares CopyFlat
// with the oracle in both directions: every element of both backing
// buffers must match bit for bit, so a write outside the destination
// view or into the source fails too.
func checkCopyFlat(t *testing.T, c chooser) {
	t.Helper()
	rank := c.intn(5)
	shapeA := make([]int, rank)
	for i := range shapeA {
		shapeA[i] = c.intn(6) // 0 sometimes: an empty copy
		if shapeA[i] == 0 && c.intn(4) != 0 {
			shapeA[i] = 1
		}
	}
	shapeB := factorShape(c, NumElements(shapeA))
	a, bufA := operand(c, shapeA, 0)
	b, bufB := operand(c, shapeB, 0.5)
	for dir := range 2 {
		dst, src, dstBuf, srcBuf := a, b, bufA, bufB
		if dir == 1 {
			dst, src, dstBuf, srcBuf = b, a, bufB, bufA
		}
		wantDst := append([]float64(nil), dstBuf...)
		srcBefore := append([]float64(nil), srcBuf...)
		oracleCopyFlat(&Tensor{data: wantDst, offset: dst.offset, shape: dst.shape, strides: dst.strides}, src)
		if err := CopyFlat(dst, src); err != nil {
			t.Fatalf("CopyFlat(%v strides %v, %v strides %v): %v", dst.shape, dst.strides, src.shape, src.strides, err)
		}
		for i := range dstBuf {
			if math.Float64bits(dstBuf[i]) != math.Float64bits(wantDst[i]) {
				t.Fatalf("CopyFlat(dst %v strides %v offset %d, src %v strides %v offset %d): buffer[%d] = %v, oracle %v",
					dst.shape, dst.strides, dst.offset, src.shape, src.strides, src.offset, i, dstBuf[i], wantDst[i])
			}
		}
		for i := range srcBuf {
			if math.Float64bits(srcBuf[i]) != math.Float64bits(srcBefore[i]) {
				t.Fatalf("CopyFlat wrote source buffer[%d]", i)
			}
		}
	}
}

// TestCopyFlatMatchesOracle: CopyFlat agrees with the element-by-element
// oracle on ranks 0 to 4, singleton dims, stepped Slices, Narrows,
// Transposes, nonzero offsets and different shapes of one element
// count, in both copy directions, plus the bridge's own layouts.
func TestCopyFlatMatchesOracle(t *testing.T) {
	c := randChooser{rand.New(rand.NewSource(35))}
	for range 3000 {
		checkCopyFlat(t, c)
	}

	// The bridge's gather and scatter: an application array against one
	// feature column of a [rows, features] staging tensor, and an
	// Image2D-style transposed [S0, S1, F] view against a flat array.
	stage := New(64, 3)
	for f := range 3 {
		col, _ := stage.Narrow(1, f, 1)
		app := Full(float64(f+1), 64)
		if err := CopyFlat(col, app); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range stage.data {
		if v != float64(i%3+1) {
			t.Fatalf("staging[%d] = %v after three column gathers", i, v)
		}
	}
	img := New(1, 2, 4, 5)
	for i := range img.data {
		img.data[i] = float64(i)
	}
	v, _ := img.Reshape(2, 4, 5)
	v, _ = v.Transpose(0, 1)
	v, _ = v.Transpose(1, 2)
	flat, want := New(40), New(40)
	if err := CopyFlat(flat, v); err != nil {
		t.Fatal(err)
	}
	oracleCopyFlat(want, v)
	for i := range flat.data {
		if flat.data[i] != want.data[i] {
			t.Fatalf("image gather [%d] = %v, oracle %v", i, flat.data[i], want.data[i])
		}
	}
}

// FuzzCopyFlat: the oracle comparison of TestCopyFlatMatchesOracle on
// cases drawn from the fuzzer's bytes.
func FuzzCopyFlat(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 4, 3, 1, 2, 1, 0, 1, 2, 2, 1, 0, 1, 1, 2, 0})
	f.Add([]byte{4, 5, 1, 3, 2, 3, 2, 2, 1, 1, 2, 2, 0, 1, 2, 1, 1, 0, 2, 1, 0, 1, 1, 2, 0, 2, 1})
	f.Add([]byte{1, 0, 0, 2, 1, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		checkCopyFlat(t, &byteChooser{b})
	})
}

// BenchmarkCopyFlatColumn: the bridge's per-feature transfers, an
// application array into one column of an [8192, 4] staging tensor
// (gather) and back (scatter), four columns per op.
func BenchmarkCopyFlatColumn(b *testing.B) {
	stage, app := New(8192, 4), New(8192)
	cols := make([]*Tensor, 4)
	for f := range cols {
		cols[f], _ = stage.Narrow(1, f, 1)
	}
	b.Run("gather", func(b *testing.B) {
		for range b.N {
			for _, c := range cols {
				CopyFlat(c, app)
			}
		}
	})
	b.Run("scatter", func(b *testing.B) {
		for range b.N {
			for _, c := range cols {
				CopyFlat(app, c)
			}
		}
	})
}
