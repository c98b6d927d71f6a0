package tensor

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/parallel"
)

const (
	// matMulPanelBytes approximates the last-level cache share available
	// to B; beyond it the f32 and transpose kernels block B into panels.
	matMulPanelBytes = 8 << 20
	// matMulBlockK bounds the depth of a B panel.
	matMulBlockK = 256
	// matMulBlockJ bounds a panel's column window so one panel
	// (matMulBlockK x matMulBlockJ float64s, ~1 MB) fits in L2.
	matMulBlockJ = 512
	// matMulParFLOPs is the multiply-accumulate count below which the
	// goroutine fan-out costs more than it saves and the kernel runs
	// serially on the calling goroutine.
	matMulParFLOPs = 1 << 18
)

// MatMul computes a @ b for rank-2 tensors [m,k] x [k,n] -> [m,n] with
// the packed f64 row kernel (see DenseInto).
func MatMul(a, b *Tensor) (*Tensor, error) {
	m, n, err := matMulDims(a, b)
	if err != nil {
		return nil, err
	}
	out := New(m, n)
	matMulKernel(out, a, b)
	return out, nil
}

// MatMulInto computes a @ b into dst, which must be a contiguous [m,n]
// tensor whose storage does not overlap a or b. dst's previous contents
// are overwritten, letting hot paths (the NN engine's dense layers, the
// batched region-inference staging) reuse one output buffer across calls
// instead of allocating per invocation.
func MatMulInto(dst, a, b *Tensor) error {
	m, n, err := matMulDims(a, b)
	if err != nil {
		return err
	}
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("tensor: matmul dst shape %v, want [%d %d]", dst.shape, m, n)
	}
	if !dst.IsContiguous() {
		return fmt.Errorf("tensor: matmul dst must be contiguous")
	}
	matMulKernel(dst, a, b)
	return nil
}

func matMulDims(a, b *Tensor) (m, n int, err error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return 0, 0, fmt.Errorf("tensor: matmul wants rank-2 operands, got %d and %d", a.Rank(), b.Rank())
	}
	if a.shape[1] != b.shape[0] {
		return 0, 0, fmt.Errorf("tensor: matmul inner dims differ: %d vs %d", a.shape[1], b.shape[0])
	}
	return a.shape[0], b.shape[1], nil
}

// matMulKernel assumes shapes were validated and dst is contiguous.
func matMulKernel(dst, a, b *Tensor) {
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	ac, bc := a.Contiguous(), b.Contiguous()
	DenseInto(dst.data[dst.offset:dst.offset+m*n], ac.data[ac.offset:ac.offset+m*k],
		bc.data[bc.offset:bc.offset+k*n], nil, m, k, n, ActIdentity)
}

// DenseInto computes dst = act(a @ b + bias) over flat row-major slabs:
// a is [m,k], b is [k,n], bias is [n] (nil adds nothing) and dst is
// [m,n]; dst must not overlap the operands, and its previous contents are
// overwritten. It is the one f64 GEMM: MatMul and MatMulInto run it too.
// Callers validate the shapes; a slab shorter than its dims panics.
//
// b is read in 8-column panels of [k][8] float64s. From packMinRows rows
// on, each call packs them into pooled scratch, the last one
// zero-padded. With fewer rows a pack would cost more than it saves, so
// the panels are read in place, n elements between rows: from b, the
// last one shifted left to end at column n, or for n < 8 from a copy of
// b with zeros after it. Rows are taken a block at a time: each row's
// nonzero activations are listed as (weight-row offset, value) pairs,
// then the panels are swept in the outer loop and the block's rows in
// the inner one, so a panel stays in L1 across the block while each row
// keeps its eight outputs in registers across its list. act is applied
// to those registers before they are stored.
//
// Every output element is bias[j] followed by x_k*b[k][j] added for each
// nonzero x_k in ascending k, one rounded multiply and one rounded add
// each, exactly what a plain row loop computes — so the result is
// bitwise independent of packing, blocking and the parallel split.
// Zero activations (either sign) are skipped, so a zero row leaves the
// bias, -0 included, and a 0 * Inf weight never turns an output into
// NaN.
//
// A large product is split across workers by rows, after one pack. When
// it has more columns than rows, a row split would leave the pack — as
// much work as a row per column — serial, so the workers split the
// panels instead and each packs its own.
func DenseInto(dst, a, b, bias []float64, m, k, n int, act Act) {
	if m == 0 || n == 0 {
		return
	}
	p := packedF64Pool.Get().(*packedF64)
	defer p.release()
	p.init(b, bias, m, k, n)
	switch {
	case m*k*n < matMulParFLOPs:
		p.pack(b, 0, p.panels)
		p.rows(dst, a, 0, m, 0, p.panels, act)
	case n > m:
		parallel.ForRange(p.panels, func(q0, q1 int) {
			p.pack(b, q0, q1)
			p.rows(dst, a, 0, m, q0, q1, act)
		})
	default:
		p.pack(b, 0, p.panels)
		parallel.ForRange(m, func(lo, hi int) {
			p.rows(dst, a, lo, hi, 0, p.panels, act)
		})
	}
}

// panelWidth is the column count of a packed panel: the accumulators one
// row keeps in registers.
const panelWidth = 8

// f64RowBlock is how many rows list their activations before the panels
// sweep them. A larger block reuses each L1-resident panel across more
// rows; the block's lists (16 bytes per nonzero) stay in L2.
const f64RowBlock = 32

// packMinRows is the row count from which DenseInto packs its panels.
// Below it a panel is read too few times to repay the copy, so the rows
// read it in place, n elements between panel rows.
const packMinRows = 8

// packedF64 is a [k, n] f64 matrix read as 8-column panels, packed or in
// place, plus the bias of each panel's columns. It lives for one
// DenseInto call.
type packedF64 struct {
	k, n, panels int
	inPlace      bool                  // panels are read from src, n elements between rows
	stride       int                   // elements between a panel's rows: panelWidth packed, n in place
	src          []float64             // in place: b, or the copy of it in w
	w            []float64             // packed: [panels][k][8], columns past n 0; in place with n < 8: b and 8 zeros
	bias         [][panelWidth]float64 // [panels]; 0 past n, or everywhere without a bias
}

var packedF64Pool = sync.Pool{New: func() any { return new(packedF64) }}

// init sets p up for an m-row product with the [k, n] matrix b, reusing
// its buffers when they are large enough, and fills the panel biases.
func (p *packedF64) init(b, bias []float64, m, k, n int) {
	p.k, p.n, p.panels = k, n, (n+panelWidth-1)/panelWidth
	p.inPlace = m < packMinRows
	switch {
	case !p.inPlace:
		p.stride, p.src = panelWidth, nil
		p.w = growSlice(p.w, p.panels*k*panelWidth)
	case n >= panelWidth:
		p.stride, p.src = n, b
	default:
		// The one panel's rows run past b's end: read a copy with zeros
		// after it. Columns past n read the next row's weights and are
		// never stored.
		p.stride = n
		p.w = growSlice(p.w, k*n+panelWidth)
		copy(p.w, b)
		clear(p.w[k*n:])
		p.src = p.w
	}
	p.bias = growSlice(p.bias, p.panels)
	if p.inPlace && n >= panelWidth && bias != nil {
		for q := range p.bias {
			p.bias[q] = [panelWidth]float64(bias[p.col(q):])
		}
		return
	}
	clear(p.bias)
	for j, v := range bias {
		p.bias[j/panelWidth][j%panelWidth] = v
	}
}

// release drops the caller's matrix and returns p to the pool.
func (p *packedF64) release() {
	p.src = nil
	packedF64Pool.Put(p)
}

// col returns the first column of panel q: q*8, except that a last panel
// read in place ends at column n rather than run past b's rows, so it
// overlaps the panel before it.
func (p *packedF64) col(q int) int {
	if p.inPlace {
		return min(q*panelWidth, max(p.n-panelWidth, 0))
	}
	return q * panelWidth
}

// panel returns panel q's weights: row k's eight columns are
// w[k*p.stride:][:8].
func (p *packedF64) panel(q int) []float64 {
	if p.inPlace {
		return p.src[p.col(q):]
	}
	return p.w[q*p.k*panelWidth : (q+1)*p.k*panelWidth]
}

// pack fills panels [q0, q1) from b, panel by panel so the writes
// stream; each read is one 64-byte run of a row of b. Panels read in
// place need no packing.
func (p *packedF64) pack(b []float64, q0, q1 int) {
	if p.inPlace {
		return
	}
	k, n := p.k, p.n
	for q := q0; q < q1; q++ {
		pw, j0 := p.panel(q), q*panelWidth
		if j0+panelWidth <= n {
			for kk := 0; kk < k; kk++ {
				*(*[panelWidth]float64)(pw[kk*panelWidth:]) = [panelWidth]float64(b[kk*n+j0:])
			}
			continue
		}
		// The last, partial panel: its row is b's last n-j0 columns.
		clear(pw)
		for kk := 0; kk < k; kk++ {
			for c, v := range b[kk*n+j0 : (kk+1)*n] {
				pw[kk*panelWidth+c] = v
			}
		}
	}
}

// f64Entry is one listed activation: the offset of its weight row in a
// panel (its index times the panel stride) and its value.
type f64Entry struct {
	off int
	v   float64
}

// f64RowScratch is one worker's row-block lists.
type f64RowScratch struct {
	list []f64Entry // [f64RowBlock][k]
	cnt  [f64RowBlock]int
}

var f64RowPool = sync.Pool{New: func() any { return new(f64RowScratch) }}

// rows is the one f64 inner loop: output rows [lo, hi) of panels
// [q0, q1). Each panel stores only columns q*8 on, so two workers
// splitting the panels never write the same element.
func (p *packedF64) rows(dst, a []float64, lo, hi, q0, q1 int, act Act) {
	k, n, stride := p.k, p.n, p.stride
	s := f64RowPool.Get().(*f64RowScratch)
	defer f64RowPool.Put(s)
	s.list = growSlice(s.list, min(f64RowBlock, hi-lo)*k)
	for r0 := lo; r0 < hi; r0 += f64RowBlock {
		r1 := min(r0+f64RowBlock, hi)
		// (a) List each row's nonzero activations.
		for r := r0; r < r1; r++ {
			list := s.list[(r-r0)*k:][:k]
			cnt := 0
			for kk, v := range a[r*k : (r+1)*k] {
				// Store unconditionally and advance only past a nonzero:
				// no branch to mispredict on ReLU-sparse rows.
				list[cnt] = f64Entry{kk * stride, v}
				if v != 0 {
					cnt++
				}
			}
			s.cnt[r-r0] = cnt
		}
		// (b) Sweep the panels over the block.
		for q := q0; q < q1; q++ {
			pw := p.panel(q)
			bias := &p.bias[q]
			j0, own := p.col(q), q*panelWidth
			for r := r0; r < r1; r++ {
				c0, c1, c2, c3 := bias[0], bias[1], bias[2], bias[3]
				c4, c5, c6, c7 := bias[4], bias[5], bias[6], bias[7]
				for _, e := range s.list[(r-r0)*k:][:s.cnt[r-r0]] {
					w := (*[panelWidth]float64)(pw[e.off : e.off+panelWidth])
					c0 += e.v * w[0]
					c1 += e.v * w[1]
					c2 += e.v * w[2]
					c3 += e.v * w[3]
					c4 += e.v * w[4]
					c5 += e.v * w[5]
					c6 += e.v * w[6]
					c7 += e.v * w[7]
				}
				switch act {
				case ActIdentity:
				case ActReLU:
					c0, c1, c2, c3 = relu(c0), relu(c1), relu(c2), relu(c3)
					c4, c5, c6, c7 = relu(c4), relu(c5), relu(c6), relu(c7)
				default:
					c0, c1, c2, c3 = act.Of(c0), act.Of(c1), act.Of(c2), act.Of(c3)
					c4, c5, c6, c7 = act.Of(c4), act.Of(c5), act.Of(c6), act.Of(c7)
				}
				orow := dst[r*n+own : (r+1)*n]
				if len(orow) >= panelWidth {
					*(*[panelWidth]float64)(orow) = [panelWidth]float64{c0, c1, c2, c3, c4, c5, c6, c7}
				} else {
					tail := [panelWidth]float64{c0, c1, c2, c3, c4, c5, c6, c7}
					copy(orow, tail[own-j0:])
				}
			}
		}
	}
}

// Act is an elementwise activation: DenseInto applies it to each output
// as it is stored, and Map applies it to a slice.
type Act uint8

// The activations. ActIdentity is the zero value.
const (
	ActIdentity Act = iota
	ActReLU
	ActLeakyReLU
	ActTanh
	ActSigmoid
)

// Of returns a applied to v.
func (a Act) Of(v float64) float64 {
	switch a {
	case ActReLU:
		return relu(v)
	case ActLeakyReLU:
		return leakyReLU(v)
	case ActTanh:
		return math.Tanh(v)
	case ActSigmoid:
		return sigmoid(v)
	}
	return v
}

// Map sets dst[i] = a.Of(src[i]); src may alias dst. It chooses the loop
// once per call, not per element.
func (a Act) Map(dst, src []float64) {
	src = src[:len(dst)]
	switch a {
	case ActReLU:
		for i, v := range src {
			dst[i] = relu(v)
		}
	case ActLeakyReLU:
		for i, v := range src {
			dst[i] = leakyReLU(v)
		}
	case ActTanh:
		for i, v := range src {
			dst[i] = math.Tanh(v)
		}
	case ActSigmoid:
		for i, v := range src {
			dst[i] = sigmoid(v)
		}
	default:
		copy(dst, src)
	}
}

// relu is max(v, 0) with every zero, and NaN, mapped to +0.
func relu(v float64) float64 {
	if v > 0 {
		return v
	}
	return 0
}

func leakyReLU(v float64) float64 {
	if v > 0 {
		return v
	}
	return 0.01 * v
}

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }
