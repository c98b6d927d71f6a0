// Package tensor provides dense, strided, N-dimensional tensors over
// []float64 storage. It is the memory substrate shared by the HPAC-ML data
// bridge and the neural-network engine: tensors can alias application memory
// (zero-copy views) or own their storage.
//
// The design mirrors the slice/view machinery the paper's runtime builds on
// top of Torch: a Tensor is (data, offset, shape, strides). Views created by
// Slice, Narrow, Reshape (on contiguous tensors), and Transpose share
// storage; Contiguous and Clone materialize copies.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a strided view over a []float64 buffer. The zero value is an
// empty scalar-less tensor; use New, FromSlice, or Wrap to construct one.
type Tensor struct {
	data    []float64
	offset  int
	shape   []int
	strides []int
}

// New allocates a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := NumElements(shape)
	return &Tensor{
		data:    make([]float64, n),
		shape:   append([]int(nil), shape...),
		strides: contiguousStrides(shape),
	}
}

// FromSlice builds a tensor that owns a copy of data, interpreted with the
// given shape. It returns an error when the element count does not match.
func FromSlice(data []float64, shape ...int) (*Tensor, error) {
	if n := NumElements(shape); n != len(data) {
		return nil, fmt.Errorf("tensor: shape %v wants %d elements, got %d", shape, n, len(data))
	}
	cp := append([]float64(nil), data...)
	return &Tensor{data: cp, shape: append([]int(nil), shape...), strides: contiguousStrides(shape)}, nil
}

// Wrap builds a zero-copy tensor view over existing application memory.
// Mutating the tensor mutates data and vice versa. This is the "tensor
// wrapping" primitive of the HPAC-ML data bridge: no copy occurs.
func Wrap(data []float64, shape ...int) (*Tensor, error) {
	if n := NumElements(shape); n > len(data) {
		return nil, fmt.Errorf("tensor: shape %v wants %d elements, buffer has %d", shape, n, len(data))
	}
	return &Tensor{data: data, shape: append([]int(nil), shape...), strides: contiguousStrides(shape)}, nil
}

// WrapStrided builds a view with explicit offset and strides over data.
// It validates that every reachable element lies inside the buffer.
func WrapStrided(data []float64, offset int, shape, strides []int) (*Tensor, error) {
	if len(shape) != len(strides) {
		return nil, fmt.Errorf("tensor: shape rank %d != strides rank %d", len(shape), len(strides))
	}
	lo, hi := offset, offset
	for i, s := range shape {
		if s < 0 {
			return nil, fmt.Errorf("tensor: negative dimension %d in shape %v", s, shape)
		}
		if s == 0 {
			lo, hi = 0, 0
			break
		}
		ext := (s - 1) * strides[i]
		if ext > 0 {
			hi += ext
		} else {
			lo += ext
		}
	}
	if lo < 0 || hi >= len(data) && NumElements(shape) > 0 {
		return nil, fmt.Errorf("tensor: view [%d,%d] out of bounds for buffer of %d", lo, hi, len(data))
	}
	return &Tensor{
		data:    data,
		offset:  offset,
		shape:   append([]int(nil), shape...),
		strides: append([]int(nil), strides...),
	}, nil
}

// Full returns a tensor of the given shape with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Scalar returns a rank-0 tensor holding v.
func Scalar(v float64) *Tensor {
	return &Tensor{data: []float64{v}, shape: []int{}, strides: []int{}}
}

// NumElements returns the product of the dims in shape (1 for rank 0).
func NumElements(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

func contiguousStrides(shape []int) []int {
	strides := make([]int, len(shape))
	acc := 1
	for i := len(shape) - 1; i >= 0; i-- {
		strides[i] = acc
		acc *= shape[i]
	}
	return strides
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return NumElements(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// IsContiguous reports whether the elements are laid out in row-major order
// with no gaps, which permits zero-copy Reshape and direct Data access.
func (t *Tensor) IsContiguous() bool {
	acc := 1
	for i := len(t.shape) - 1; i >= 0; i-- {
		if t.shape[i] == 1 {
			continue // stride irrelevant for singleton dims
		}
		if t.strides[i] != acc {
			return false
		}
		acc *= t.shape[i]
	}
	return true
}

// Data returns the raw storage of a contiguous tensor starting at its
// offset, sized to exactly Len() elements. It panics for non-contiguous
// tensors; call Contiguous first.
func (t *Tensor) Data() []float64 {
	if !t.IsContiguous() {
		panic("tensor: Data on non-contiguous tensor; call Contiguous first")
	}
	return t.data[t.offset : t.offset+t.Len()]
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 {
	return t.data[t.flatIndex(idx)]
}

// Set writes v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) {
	t.data[t.flatIndex(idx)] = v
}

func (t *Tensor) flatIndex(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d != tensor rank %d", len(idx), len(t.shape)))
	}
	flat := t.offset
	for i, ix := range idx {
		if ix < 0 || ix >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range [0,%d) in dim %d", ix, t.shape[i], i))
		}
		flat += ix * t.strides[i]
	}
	return flat
}

// Slice returns a half-open view [start, stop) with the given step along
// dim. step must be positive. The view shares storage with t.
func (t *Tensor) Slice(dim, start, stop, step int) (*Tensor, error) {
	if dim < 0 || dim >= len(t.shape) {
		return nil, fmt.Errorf("tensor: slice dim %d out of range for rank %d", dim, len(t.shape))
	}
	if step <= 0 {
		return nil, fmt.Errorf("tensor: slice step must be positive, got %d", step)
	}
	if start < 0 || stop > t.shape[dim] || start > stop {
		return nil, fmt.Errorf("tensor: slice [%d:%d] out of range for dim of size %d", start, stop, t.shape[dim])
	}
	shape := append([]int(nil), t.shape...)
	strides := append([]int(nil), t.strides...)
	shape[dim] = (stop - start + step - 1) / step
	strides[dim] = t.strides[dim] * step
	return &Tensor{
		data:    t.data,
		offset:  t.offset + start*t.strides[dim],
		shape:   shape,
		strides: strides,
	}, nil
}

// Narrow is Slice with step 1.
func (t *Tensor) Narrow(dim, start, length int) (*Tensor, error) {
	return t.Slice(dim, start, start+length, 1)
}

// Index fixes dimension dim to position i, reducing the rank by one.
func (t *Tensor) Index(dim, i int) (*Tensor, error) {
	if dim < 0 || dim >= len(t.shape) {
		return nil, fmt.Errorf("tensor: index dim %d out of range for rank %d", dim, len(t.shape))
	}
	if i < 0 || i >= t.shape[dim] {
		return nil, fmt.Errorf("tensor: index %d out of range [0,%d)", i, t.shape[dim])
	}
	shape := make([]int, 0, len(t.shape)-1)
	strides := make([]int, 0, len(t.shape)-1)
	for d := range t.shape {
		if d == dim {
			continue
		}
		shape = append(shape, t.shape[d])
		strides = append(strides, t.strides[d])
	}
	return &Tensor{data: t.data, offset: t.offset + i*t.strides[dim], shape: shape, strides: strides}, nil
}

// Transpose swaps two dimensions without copying.
func (t *Tensor) Transpose(a, b int) (*Tensor, error) {
	if a < 0 || a >= len(t.shape) || b < 0 || b >= len(t.shape) {
		return nil, fmt.Errorf("tensor: transpose dims (%d,%d) out of range for rank %d", a, b, len(t.shape))
	}
	shape := append([]int(nil), t.shape...)
	strides := append([]int(nil), t.strides...)
	shape[a], shape[b] = shape[b], shape[a]
	strides[a], strides[b] = strides[b], strides[a]
	return &Tensor{data: t.data, offset: t.offset, shape: shape, strides: strides}, nil
}

// Reshape returns a view with a new shape. For contiguous tensors this is
// zero-copy; otherwise the tensor is materialized first. A single -1 entry
// is inferred from the element count.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	shape = append([]int(nil), shape...)
	infer := -1
	known := 1
	for i, d := range shape {
		switch {
		case d == -1:
			if infer >= 0 {
				return nil, fmt.Errorf("tensor: multiple -1 dims in reshape %v", shape)
			}
			infer = i
		case d < 0:
			return nil, fmt.Errorf("tensor: negative dim %d in reshape %v", d, shape)
		default:
			known *= d
		}
	}
	if infer >= 0 {
		if known == 0 || t.Len()%known != 0 {
			return nil, fmt.Errorf("tensor: cannot infer dim in reshape %v of %d elements", shape, t.Len())
		}
		shape[infer] = t.Len() / known
		known *= shape[infer]
	}
	if known != t.Len() {
		return nil, fmt.Errorf("tensor: reshape %v wants %d elements, tensor has %d", shape, known, t.Len())
	}
	src := t
	if !t.IsContiguous() {
		src = t.Contiguous()
	}
	return &Tensor{data: src.data, offset: src.offset, shape: shape, strides: contiguousStrides(shape)}, nil
}

// Flatten returns a rank-1 view (copying if non-contiguous).
func (t *Tensor) Flatten() *Tensor {
	r, err := t.Reshape(t.Len())
	if err != nil {
		panic("tensor: flatten: " + err.Error()) // cannot happen: Len always divides
	}
	return r
}

// Contiguous returns t itself when already contiguous, otherwise a freshly
// allocated row-major copy.
func (t *Tensor) Contiguous() *Tensor {
	if t.IsContiguous() {
		return t
	}
	out := New(t.shape...)
	t.iterate(func(flatDst int, src float64) {
		out.data[flatDst] = src
	})
	return out
}

// Clone always returns a freshly allocated row-major copy.
func (t *Tensor) Clone() *Tensor {
	out := New(t.shape...)
	t.iterate(func(flatDst int, src float64) {
		out.data[flatDst] = src
	})
	return out
}

// iterate walks elements in row-major logical order, calling fn with the
// destination flat index and the source value.
func (t *Tensor) iterate(fn func(flat int, v float64)) {
	n := t.Len()
	if n == 0 {
		return
	}
	if len(t.shape) == 0 {
		fn(0, t.data[t.offset])
		return
	}
	idx := make([]int, len(t.shape))
	src := t.offset
	for flat := 0; flat < n; flat++ {
		fn(flat, t.data[src])
		for d := len(t.shape) - 1; d >= 0; d-- {
			idx[d]++
			src += t.strides[d]
			if idx[d] < t.shape[d] {
				break
			}
			idx[d] = 0
			src -= t.shape[d] * t.strides[d]
		}
	}
}

// CopyFrom copies src's elements into t; shapes must match exactly.
func (t *Tensor) CopyFrom(src *Tensor) error {
	if !ShapeEqual(t.shape, src.shape) {
		return fmt.Errorf("tensor: copy shape mismatch %v vs %v", t.shape, src.shape)
	}
	return CopyFlat(t, src)
}

// CopyFlat copies src into dst in row-major logical order. The shapes may
// differ (e.g. [4,3,2] into [4,6]) but the element counts must match. This
// is the workhorse of the data bridge's tensor-composition step: it walks
// both tensors with incremental odometers, so strided views are traversed
// without materializing either side.
func CopyFlat(dst, src *Tensor) error {
	n := src.Len()
	if dst.Len() != n {
		return fmt.Errorf("tensor: CopyFlat element count mismatch: dst %d, src %d", dst.Len(), n)
	}
	if n == 0 {
		return nil
	}
	// Fast path: both contiguous.
	if dst.IsContiguous() && src.IsContiguous() {
		copy(dst.data[dst.offset:dst.offset+n], src.data[src.offset:src.offset+n])
		return nil
	}
	// Chunked path: both sides advance by `chunk` elements at a time,
	// where chunk divides both innermost unit-stride extents, so each
	// block is served by copy().
	chunk := gcd(innerRun(dst), innerRun(src))
	sIdx := make([]int, len(src.shape))
	dIdx := make([]int, len(dst.shape))
	sPos, dPos := src.offset, dst.offset
	if chunk > 1 {
		for i := 0; i < n; i += chunk {
			copy(dst.data[dPos:dPos+chunk], src.data[sPos:sPos+chunk])
			sPos = advanceBy(src, sIdx, sPos, chunk)
			dPos = advanceBy(dst, dIdx, dPos, chunk)
		}
		return nil
	}
	for i := 0; i < n; i++ {
		dst.data[dPos] = src.data[sPos]
		sPos = advanceBy(src, sIdx, sPos, 1)
		dPos = advanceBy(dst, dIdx, dPos, 1)
	}
	return nil
}

// innerRun returns the extent of the innermost non-singleton dim when it
// has unit stride, else 1.
func innerRun(t *Tensor) int {
	for d := len(t.shape) - 1; d >= 0; d-- {
		if t.shape[d] == 1 {
			continue
		}
		if t.strides[d] == 1 {
			return t.shape[d]
		}
		return 1
	}
	return 1
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	if a < 1 {
		return 1
	}
	return a
}

// advanceBy moves a row-major odometer forward by `chunk` elements along
// the innermost non-singleton dim, whose extent chunk must divide, and
// carries upward exactly.
func advanceBy(t *Tensor, idx []int, pos, chunk int) int {
	d := len(t.shape) - 1
	for d >= 0 && t.shape[d] == 1 {
		d--
	}
	if d < 0 {
		return pos
	}
	idx[d] += chunk
	pos += chunk * t.strides[d]
	if idx[d] < t.shape[d] {
		return pos
	}
	idx[d] = 0
	pos -= t.shape[d] * t.strides[d]
	for d--; d >= 0; d-- {
		idx[d]++
		pos += t.strides[d]
		if idx[d] < t.shape[d] {
			return pos
		}
		idx[d] = 0
		pos -= t.shape[d] * t.strides[d]
	}
	return pos
}

// SameShape reports whether two tensors have identical shapes. Unlike
// ShapeEqual(a.Shape(), b.Shape()) it copies neither shape, so hot-path
// validation (the loss functions, called every training step) stays
// allocation-free.
func SameShape(a, b *Tensor) bool {
	return ShapeEqual(a.shape, b.shape)
}

// ShapeEqual reports whether two shapes are identical.
func ShapeEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Fill sets every element of t to v.
func (t *Tensor) Fill(v float64) {
	if t.IsContiguous() {
		d := t.data[t.offset : t.offset+t.Len()]
		for i := range d {
			d[i] = v
		}
		return
	}
	t.applyInPlace(func(float64) float64 { return v })
}

// applyInPlace applies fn to every stored element of the view.
func (t *Tensor) applyInPlace(fn func(float64) float64) {
	n := t.Len()
	if n == 0 {
		return
	}
	if len(t.shape) == 0 {
		t.data[t.offset] = fn(t.data[t.offset])
		return
	}
	idx := make([]int, len(t.shape))
	pos := t.offset
	for flat := 0; flat < n; flat++ {
		t.data[pos] = fn(t.data[pos])
		for d := len(t.shape) - 1; d >= 0; d-- {
			idx[d]++
			pos += t.strides[d]
			if idx[d] < t.shape[d] {
				break
			}
			idx[d] = 0
			pos -= t.shape[d] * t.strides[d]
		}
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	var s float64
	t.iterate(func(_ int, v float64) { s += v })
	return s
}

// Max returns the maximum element; it panics on empty tensors.
func (t *Tensor) Max() float64 {
	if t.Len() == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := math.Inf(-1)
	t.iterate(func(_ int, v float64) {
		if v > m {
			m = v
		}
	})
	return m
}

// Min returns the minimum element; it panics on empty tensors.
func (t *Tensor) Min() float64 {
	if t.Len() == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := math.Inf(1)
	t.iterate(func(_ int, v float64) {
		if v < m {
			m = v
		}
	})
	return m
}

// Stack stacks tensors along a new leading dimension at position dim.
func Stack(dim int, ts ...*Tensor) (*Tensor, error) {
	if len(ts) == 0 {
		return nil, fmt.Errorf("tensor: stack of zero tensors")
	}
	base := ts[0].Shape()
	for _, t := range ts {
		if !ShapeEqual(t.shape, ts[0].shape) {
			return nil, fmt.Errorf("tensor: stack shape mismatch %v vs %v", t.shape, ts[0].shape)
		}
	}
	if dim < 0 || dim > len(base) {
		return nil, fmt.Errorf("tensor: stack dim %d out of range for rank %d", dim, len(base))
	}
	newShape := make([]int, 0, len(base)+1)
	newShape = append(newShape, base[:dim]...)
	newShape = append(newShape, len(ts))
	newShape = append(newShape, base[dim:]...)
	out := New(newShape...)
	for i, t := range ts {
		slot, err := out.Index(dim, i)
		if err != nil {
			return nil, err
		}
		if err := slot.CopyFrom(t); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// String renders small tensors fully and large tensors as a summary.
func (t *Tensor) String() string {
	const maxRender = 64
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if t.Len() <= maxRender {
		b.WriteString("{")
		first := true
		t.iterate(func(_ int, v float64) {
			if !first {
				b.WriteString(", ")
			}
			first = false
			fmt.Fprintf(&b, "%g", v)
		})
		b.WriteString("}")
	} else {
		fmt.Fprintf(&b, "{… %d elements}", t.Len())
	}
	return b.String()
}
