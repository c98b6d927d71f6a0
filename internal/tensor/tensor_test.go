package tensor

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3)
	if !ShapeEqual(x.Shape(), []int{2, 3}) {
		t.Fatalf("shape = %v, want [2 3]", x.Shape())
	}
	if x.Len() != 6 {
		t.Fatalf("len = %d, want 6", x.Len())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if x.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) = %g, want 0", i, j, x.At(i, j))
			}
		}
	}
}

func TestFromSliceShapeMismatch(t *testing.T) {
	if _, err := FromSlice([]float64{1, 2, 3}, 2, 2); err == nil {
		t.Fatal("want error for 3 elements into shape [2 2]")
	}
}

func TestFromSliceCopies(t *testing.T) {
	src := []float64{1, 2, 3, 4}
	x, err := FromSlice(src, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	src[0] = 99
	if x.At(0, 0) != 1 {
		t.Fatalf("FromSlice must copy; got aliasing")
	}
}

func TestWrapAliases(t *testing.T) {
	buf := []float64{1, 2, 3, 4, 5, 6}
	x, err := Wrap(buf, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	x.Set(42, 1, 2)
	if buf[5] != 42 {
		t.Fatalf("Wrap must alias; buf[5] = %g", buf[5])
	}
	buf[0] = -7
	if x.At(0, 0) != -7 {
		t.Fatalf("Wrap must alias; At(0,0) = %g", x.At(0, 0))
	}
}

func TestWrapTooSmall(t *testing.T) {
	if _, err := Wrap(make([]float64, 5), 2, 3); err == nil {
		t.Fatal("want error wrapping 5-element buffer as [2 3]")
	}
}

func TestWrapStridedBounds(t *testing.T) {
	buf := make([]float64, 10)
	if _, err := WrapStrided(buf, 0, []int{3}, []int{5}); err == nil {
		t.Fatal("want out-of-bounds error: max index 10")
	}
	if _, err := WrapStrided(buf, 9, []int{2}, []int{-10}); err == nil {
		t.Fatal("want out-of-bounds error: negative reach")
	}
	v, err := WrapStrided(buf, 9, []int{2}, []int{-9})
	if err != nil {
		t.Fatalf("valid negative stride rejected: %v", err)
	}
	buf[0], buf[9] = 1, 2
	if v.At(0) != 2 || v.At(1) != 1 {
		t.Fatalf("negative stride view wrong: %g %g", v.At(0), v.At(1))
	}
}

func TestSliceView(t *testing.T) {
	x := New(4, 5)
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			x.Set(float64(10*i+j), i, j)
		}
	}
	s, err := x.Slice(1, 1, 4, 2) // columns 1 and 3
	if err != nil {
		t.Fatal(err)
	}
	if !ShapeEqual(s.Shape(), []int{4, 2}) {
		t.Fatalf("slice shape = %v, want [4 2]", s.Shape())
	}
	if s.At(2, 0) != 21 || s.At(2, 1) != 23 {
		t.Fatalf("slice values wrong: %g %g", s.At(2, 0), s.At(2, 1))
	}
	s.Set(-1, 0, 0)
	if x.At(0, 1) != -1 {
		t.Fatal("slice must be a view")
	}
}

func TestSliceErrors(t *testing.T) {
	x := New(3, 3)
	cases := []struct {
		dim, start, stop, step int
	}{
		{5, 0, 1, 1},  // bad dim
		{0, 0, 4, 1},  // stop out of range
		{0, 2, 1, 1},  // reversed
		{0, 0, 3, 0},  // zero step
		{0, 0, 3, -1}, // negative step
		{0, -1, 2, 1}, // negative start
	}
	for _, c := range cases {
		if _, err := x.Slice(c.dim, c.start, c.stop, c.step); err == nil {
			t.Errorf("Slice(%d,%d,%d,%d): want error", c.dim, c.start, c.stop, c.step)
		}
	}
}

func TestIndexReducesRank(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(7, 1, 2, 3)
	v, err := x.Index(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !ShapeEqual(v.Shape(), []int{2, 4}) {
		t.Fatalf("shape = %v, want [2 4]", v.Shape())
	}
	if v.At(1, 3) != 7 {
		t.Fatalf("At(1,3) = %g, want 7", v.At(1, 3))
	}
}

func TestTransposeView(t *testing.T) {
	x := New(2, 3)
	x.Set(5, 0, 2)
	tr, err := x.Transpose(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ShapeEqual(tr.Shape(), []int{3, 2}) {
		t.Fatalf("shape = %v, want [3 2]", tr.Shape())
	}
	if tr.At(2, 0) != 5 {
		t.Fatalf("At(2,0) = %g, want 5", tr.At(2, 0))
	}
	if tr.IsContiguous() {
		t.Fatal("transposed non-square view should not be contiguous")
	}
}

func TestReshapeContiguousIsView(t *testing.T) {
	x := New(2, 6)
	r, err := x.Reshape(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	r.Set(9, 2, 3)
	if x.At(1, 5) != 9 {
		t.Fatal("reshape of contiguous tensor must share storage")
	}
}

func TestReshapeInferred(t *testing.T) {
	x := New(4, 6)
	r, err := x.Reshape(2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !ShapeEqual(r.Shape(), []int{2, 12}) {
		t.Fatalf("shape = %v, want [2 12]", r.Shape())
	}
	if _, err := x.Reshape(-1, -1); err == nil {
		t.Fatal("want error for two inferred dims")
	}
	if _, err := x.Reshape(5, -1); err == nil {
		t.Fatal("want error when inference impossible")
	}
	if _, err := x.Reshape(7, 7); err == nil {
		t.Fatal("want element count mismatch error")
	}
}

func TestContiguousMaterializesViews(t *testing.T) {
	x := New(3, 4)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			x.Set(float64(i*4+j), i, j)
		}
	}
	tr, _ := x.Transpose(0, 1)
	c := tr.Contiguous()
	if !c.IsContiguous() {
		t.Fatal("Contiguous result must be contiguous")
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			if c.At(i, j) != tr.At(i, j) {
				t.Fatalf("mismatch at (%d,%d)", i, j)
			}
		}
	}
	// Contiguous of an already-contiguous tensor returns the same view.
	if x.Contiguous() != x {
		t.Fatal("Contiguous of contiguous tensor should be identity")
	}
}

func TestCopyFromStrided(t *testing.T) {
	src := New(2, 3)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			src.Set(float64(i*3+j+1), i, j)
		}
	}
	dstBase := New(4, 6)
	dst, _ := dstBase.Slice(0, 1, 3, 1)
	dst, _ = dst.Slice(1, 0, 6, 2)
	if err := dst.CopyFrom(src); err != nil {
		t.Fatal(err)
	}
	if dstBase.At(1, 0) != 1 || dstBase.At(1, 2) != 2 || dstBase.At(2, 4) != 6 {
		t.Fatalf("strided copy wrong: %v", dstBase)
	}

	// Strided source too: the transpose of src into a stride-2 column
	// view of a [3, 4] buffer.
	srcT, _ := src.Transpose(0, 1) // [3, 2]
	base2 := Full(-1, 3, 4)
	dst2, _ := base2.Slice(1, 1, 4, 2) // columns 1 and 3
	if err := dst2.CopyFrom(srcT); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			if got, want := base2.At(i, 1+2*j), src.At(j, i); got != want {
				t.Fatalf("transposed copy (%d,%d) = %g, want %g", i, j, got, want)
			}
			if base2.At(i, 2*j) != -1 {
				t.Fatalf("copy wrote outside the view at (%d,%d)", i, 2*j)
			}
		}
	}
}

func TestCopyFromShapeMismatch(t *testing.T) {
	if err := New(2, 2).CopyFrom(New(4)); err == nil {
		t.Fatal("want shape mismatch error")
	}
}

func TestCopyFlatRankChange(t *testing.T) {
	src := New(2, 3, 2)
	for i := 0; i < src.Len(); i++ {
		src.Data()[i] = float64(i)
	}
	dst := New(2, 6)
	if err := CopyFlat(dst, src); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if dst.Data()[i] != float64(i) {
			t.Fatalf("element %d = %g, want %d", i, dst.Data()[i], i)
		}
	}
}

func TestCopyFlatStridedBothSides(t *testing.T) {
	base := make([]float64, 20)
	for i := range base {
		base[i] = float64(i)
	}
	src, err := WrapStrided(base, 1, []int{3, 2}, []int{6, 3}) // 1,4,7,10,13,16
	if err != nil {
		t.Fatal(err)
	}
	dstBase := New(3, 4)
	dst, _ := dstBase.Slice(1, 0, 4, 2) // [3,2] strided destination
	if err := CopyFlat(dst, src); err != nil {
		t.Fatal(err)
	}
	want := [][2]float64{{1, 4}, {7, 10}, {13, 16}}
	for i := 0; i < 3; i++ {
		if dstBase.At(i, 0) != want[i][0] || dstBase.At(i, 2) != want[i][1] {
			t.Fatalf("row %d: got (%g,%g), want %v", i, dstBase.At(i, 0), dstBase.At(i, 2), want[i])
		}
	}
}

func TestCopyFlatCountMismatch(t *testing.T) {
	if err := CopyFlat(New(3), New(4)); err == nil {
		t.Fatal("want element count mismatch error")
	}
}

func TestStack(t *testing.T) {
	a := Full(1, 3)
	b := Full(2, 3)
	s, err := Stack(0, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !ShapeEqual(s.Shape(), []int{2, 3}) {
		t.Fatalf("shape = %v, want [2 3]", s.Shape())
	}
	if s.At(0, 0) != 1 || s.At(1, 2) != 2 {
		t.Fatal("stack contents wrong")
	}
	s2, err := Stack(1, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !ShapeEqual(s2.Shape(), []int{3, 2}) {
		t.Fatalf("shape = %v, want [3 2]", s2.Shape())
	}
}

func TestMatMul(t *testing.T) {
	a, _ := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b, _ := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{58, 64}, {139, 154}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("c[%d][%d] = %g, want %g", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMatMulErrors(t *testing.T) {
	if _, err := MatMul(New(2, 3), New(2, 3)); err == nil {
		t.Fatal("want inner-dim mismatch error")
	}
	if _, err := MatMul(New(2), New(2, 2)); err == nil {
		t.Fatal("want rank error")
	}
}

func TestReductions(t *testing.T) {
	x, _ := FromSlice([]float64{3, -1, 4, 1}, 4)
	if x.Sum() != 7 {
		t.Fatalf("sum = %g, want 7", x.Sum())
	}
	if x.Max() != 4 || x.Min() != -1 {
		t.Fatalf("max/min = %g/%g", x.Max(), x.Min())
	}
}

// TestFillStridedView: Fill through a strided view only touches the
// view.
func TestFillStridedView(t *testing.T) {
	base := New(2, 4)
	v, _ := base.Slice(1, 0, 4, 2)
	v.Fill(5)
	if base.At(0, 0) != 5 || base.At(0, 2) != 5 {
		t.Fatal("fill missed view elements")
	}
	if base.At(0, 1) != 0 || base.At(0, 3) != 0 {
		t.Fatal("fill leaked outside the view")
	}
}

func TestScalar(t *testing.T) {
	s := Scalar(3.5)
	if s.Rank() != 0 || s.Len() != 1 {
		t.Fatalf("scalar rank/len = %d/%d", s.Rank(), s.Len())
	}
	if s.At() != 3.5 {
		t.Fatalf("At() = %g", s.At())
	}
	c := s.Clone()
	if c.At() != 3.5 {
		t.Fatal("clone of scalar wrong")
	}
}

func TestStringRendering(t *testing.T) {
	small, _ := FromSlice([]float64{1, 2}, 2)
	if got := small.String(); got != "Tensor[2]{1, 2}" {
		t.Fatalf("String() = %q", got)
	}
	big := New(100)
	if got := big.String(); got != "Tensor[100]{… 100 elements}" {
		t.Fatalf("String() = %q", got)
	}
}

// --- property-based tests ---

// randomShape produces small shapes with up to 4 dims.
func randomShape(r *rand.Rand) []int {
	rank := 1 + r.Intn(4)
	s := make([]int, rank)
	for i := range s {
		s[i] = 1 + r.Intn(4)
	}
	return s
}

// Property: Clone equals the original elementwise and does not alias
// (mutating the clone leaves the original unchanged).
func TestPropCloneEqualNoAlias(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		shape := randomShape(r)
		x := New(shape...)
		d := x.Data()
		for i := range d {
			d[i] = r.NormFloat64()
		}
		c := x.Clone()
		if !reflect.DeepEqual(c.Data(), d) {
			return false
		}
		before := d[0]
		c.Data()[0] = before + 1
		return x.Data()[0] == before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Reshape preserves row-major element order.
func TestPropReshapePreservesOrder(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		shape := randomShape(r)
		x := New(shape...)
		for i := range x.Data() {
			x.Data()[i] = float64(i)
		}
		flat := x.Flatten()
		for i := 0; i < flat.Len(); i++ {
			if flat.At(i) != float64(i) {
				return false
			}
		}
		back, err := flat.Reshape(shape...)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(back.Data(), x.Data())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Transpose twice is the identity view.
func TestPropDoubleTranspose(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		shape := randomShape(r)
		if len(shape) < 2 {
			shape = append(shape, 2)
		}
		x := New(shape...)
		for i := range x.Data() {
			x.Data()[i] = r.NormFloat64()
		}
		a, b := r.Intn(len(shape)), r.Intn(len(shape))
		t1, err := x.Transpose(a, b)
		if err != nil {
			return false
		}
		t2, err := t1.Transpose(a, b)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(t2.Clone().Data(), x.Data())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: copying parts into Narrow column blocks of one tensor (the
// bridge's multi-plan composition) and narrowing again recovers them.
func TestPropConcatNarrowRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 1 + r.Intn(3)
		ca, cb := 1+r.Intn(4), 1+r.Intn(4)
		a, b := New(rows, ca), New(rows, cb)
		for i := range a.Data() {
			a.Data()[i] = r.NormFloat64()
		}
		for i := range b.Data() {
			b.Data()[i] = r.NormFloat64()
		}
		c := New(rows, ca+cb)
		pa, err := c.Narrow(1, 0, ca)
		if err != nil {
			return false
		}
		pb, err := c.Narrow(1, ca, cb)
		if err != nil {
			return false
		}
		if pa.CopyFrom(a) != nil || pb.CopyFrom(b) != nil {
			return false
		}
		pa, _ = c.Narrow(1, 0, ca)
		pb, _ = c.Narrow(1, ca, cb)
		return reflect.DeepEqual(pa.Clone().Data(), a.Data()) &&
			reflect.DeepEqual(pb.Clone().Data(), b.Data())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MatMul with the identity matrix is the identity.
func TestPropMatMulIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := 1+r.Intn(5), 1+r.Intn(5)
		a := New(m, n)
		for i := range a.Data() {
			a.Data()[i] = r.NormFloat64()
		}
		id := New(n, n)
		for i := 0; i < n; i++ {
			id.Set(1, i, i)
		}
		c, err := MatMul(a, id)
		if err != nil {
			return false
		}
		for i := range a.Data() {
			if math.Abs(c.Data()[i]-a.Data()[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: CopyFlat(dst, src) followed by CopyFlat(src2, dst) restores
// the original values regardless of layout.
func TestPropCopyFlatRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		shape := randomShape(r)
		n := NumElements(shape)
		src := New(shape...)
		for i := range src.Data() {
			src.Data()[i] = r.NormFloat64()
		}
		mid := New(n)
		if err := CopyFlat(mid, src); err != nil {
			return false
		}
		back := New(shape...)
		if err := CopyFlat(back, mid); err != nil {
			return false
		}
		return reflect.DeepEqual(back.Data(), src.Data())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
