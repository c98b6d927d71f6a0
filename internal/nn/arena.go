package nn

import "repro/internal/tensor"

// scratch is a reusable tensor backed by a grow-only buffer: the backing
// slice is reallocated only when it must grow and the tensor header is
// rebuilt only when the requested shape changes, so steady-state reuse
// (same shapes every training step) performs no heap allocation. It is
// the training counterpart of the f64 plan's pooled buffers: layers own
// one scratch per training intermediate (forward output, im2col matrix,
// input gradient, weight-gradient staging), and the trainer owns the
// minibatch and loss-gradient scratches. Scratches are not safe for
// concurrent use; training is layer-serial by contract.
type scratch struct {
	buf   []float64
	t     *tensor.Tensor
	shape [4]int
	rank  int
}

// grow returns (*buf)[:n], reallocating *buf only when it is too short:
// the flat counterpart of scratch for intermediates no caller sees as a
// tensor. Contents are unspecified.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// maxScratchRank bounds the shapes a scratch can cache; higher-rank
// tensors fall back to the allocating paths.
const maxScratchRank = 4

// get returns a contiguous tensor of the given shape backed by the
// scratch buffer. Contents are unspecified: callers must fully overwrite
// (or zero) it. rank must be in [1, maxScratchRank].
func (s *scratch) get(rank int, shape [4]int) *tensor.Tensor {
	if s.t != nil && s.rank == rank && s.shape == shape {
		return s.t
	}
	n := 1
	for i := 0; i < rank; i++ {
		n *= shape[i]
	}
	if cap(s.buf) < n {
		s.buf = make([]float64, n)
	}
	var t *tensor.Tensor
	var err error
	switch rank {
	case 1:
		t, err = tensor.Wrap(s.buf[:n], shape[0])
	case 2:
		t, err = tensor.Wrap(s.buf[:n], shape[0], shape[1])
	case 3:
		t, err = tensor.Wrap(s.buf[:n], shape[0], shape[1], shape[2])
	case 4:
		t, err = tensor.Wrap(s.buf[:n], shape[0], shape[1], shape[2], shape[3])
	default:
		panic("nn: scratch rank out of range")
	}
	if err != nil {
		panic("nn: scratch wrap: " + err.Error()) // cannot happen: buffer sized above
	}
	s.t = t
	s.rank = rank
	s.shape = shape
	return t
}

// get2 returns a [r, c] scratch tensor.
func (s *scratch) get2(r, c int) *tensor.Tensor {
	return s.get(2, [4]int{r, c})
}

// like returns a scratch tensor with x's shape, or nil when x's rank
// exceeds maxScratchRank (callers then fall back to allocating).
func (s *scratch) like(x *tensor.Tensor) *tensor.Tensor {
	r := x.Rank()
	if r < 1 || r > maxScratchRank {
		return nil
	}
	var shape [4]int
	for i := 0; i < r; i++ {
		shape[i] = x.Dim(i)
	}
	return s.get(r, shape)
}

// batchOf returns a scratch tensor of shape [rows, x.Dim(1), ...]: a
// minibatch slot shaped like rows samples of x. It returns nil when x's
// rank exceeds maxScratchRank.
func (s *scratch) batchOf(x *tensor.Tensor, rows int) *tensor.Tensor {
	r := x.Rank()
	if r < 1 || r > maxScratchRank {
		return nil
	}
	shape := [4]int{rows}
	for i := 1; i < r; i++ {
		shape[i] = x.Dim(i)
	}
	return s.get(r, shape)
}
