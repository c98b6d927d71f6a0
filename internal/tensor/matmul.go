package tensor

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/parallel"
)

// matMulParFLOPs is the multiply-accumulate count below which the
// goroutine fan-out costs more than it saves and the kernel runs
// serially on the calling goroutine.
const matMulParFLOPs = 1 << 18

// MatMulInto computes a @ b for rank-2 tensors [m,k] x [k,n] into dst,
// which must be a contiguous [m,n] tensor whose storage does not overlap
// a or b. dst's previous contents are overwritten, so a caller (int8
// calibration, the benchmark's GEMM replay) reuses one output buffer
// across calls.
func MatMulInto(dst, a, b *Tensor) error {
	if a.Rank() != 2 || b.Rank() != 2 {
		return fmt.Errorf("tensor: matmul wants rank-2 operands, got %d and %d", a.Rank(), b.Rank())
	}
	if a.shape[1] != b.shape[0] {
		return fmt.Errorf("tensor: matmul inner dims differ: %d vs %d", a.shape[1], b.shape[0])
	}
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("tensor: matmul dst shape %v, want [%d %d]", dst.shape, m, n)
	}
	if !dst.IsContiguous() {
		return fmt.Errorf("tensor: matmul dst must be contiguous")
	}
	ac, bc := a.Contiguous(), b.Contiguous()
	DenseInto(dst.data[dst.offset:dst.offset+m*n], ac.data[ac.offset:ac.offset+m*k],
		bc.data[bc.offset:bc.offset+k*n], nil, m, k, n, ActIdentity)
	return nil
}

// TransposeInto writes the row-major [m,n] slab src into dst as [n,m].
// Training runs its transposed products, XᵀG and GWᵀ, as DenseInto over
// a transposed copy of one operand.
func TransposeInto(dst, src []float64, m, n int) {
	for i := 0; i < m; i++ {
		for j, v := range src[i*n : (i+1)*n] {
			dst[j*m+i] = v
		}
	}
}

// DenseInto computes dst = act(a @ b + bias) over flat row-major slabs:
// a is [m,k], b is [k,n], bias is [n] (nil adds nothing) and dst is
// [m,n]; dst must not overlap the operands, and its previous contents are
// overwritten. It is the one f64 GEMM: MatMulInto, every Dense and conv
// forward, and every training product (Dense and conv dW and dX) run it.
// Callers validate the shapes; a slab shorter than its dims panics.
//
// It packs b into pooled scratch and runs PackedF64.Into on it, so a
// caller that multiplies by the same b repeatedly (a frozen network, see
// nn.Network.Freeze) should pack it once with PackF64 instead. When the
// product's panels split across workers, each worker packs its own, so
// the pack is not left serial.
func DenseInto(dst, a, b, bias []float64, m, k, n int, act Act) {
	if m == 0 || n == 0 {
		return
	}
	p := packedF64Pool.Get().(*PackedF64)
	defer packedF64Pool.Put(p)
	p.init(bias, k, n)
	// Reslicing panics on a short b, as promised; a nil b survives only
	// when k*n is 0, where into has nothing to pack.
	p.into(dst, a, m, act, b[:k*n])
}

// panelWidth is the column count of a packed panel: the accumulators one
// row keeps in registers.
const panelWidth = 8

// f64RowBlock is how many rows list their activations before the panels
// sweep them. A larger block reuses each L1-resident panel across more
// rows; the block's lists (16 bytes per nonzero) stay in L2.
const f64RowBlock = 32

// PackedF64 is a [k, n] f64 matrix and its bias packed for the f64 row
// kernel, the f64 twin of PackedInt8: panel q holds columns 8q to 8q+7
// of every row as [k][8] float64s, the last panel zero-padded. A
// PackedF64 is immutable once packed and safe for concurrent use.
type PackedF64 struct {
	k, n, panels int
	w            [][panelWidth]float64 // [panels*k]: panel q is w[q*k:(q+1)*k]; columns past n 0
	bias         [][panelWidth]float64 // [panels]; 0 past n, or everywhere without a bias
}

var packedF64Pool = sync.Pool{New: func() any { return new(PackedF64) }}

// PackF64 packs the row-major [k, n] matrix b and its [n] bias (nil adds
// nothing). The packed copy does not alias b or bias: writes to them
// afterwards are not seen.
func PackF64(b, bias []float64, k, n int) *PackedF64 {
	p := new(PackedF64)
	p.init(bias, k, n)
	p.pack(b, 0, p.panels)
	return p
}

// Into computes dst = act(a @ p) for the [m, k] slab a into the [m, n]
// slab dst, bit for bit what DenseInto computes from p's matrix and
// bias. Output element j is bias[j] followed by x_k*b[k][j] added for
// each nonzero x_k in ascending k, one rounded multiply and one rounded
// add each, exactly what a plain row loop computes — so the result is
// bitwise independent of packing, blocking and the parallel split. Zero
// activations (either sign) are skipped, so a zero row leaves the bias,
// -0 included, and a 0 * Inf weight never turns an output into NaN.
//
// Rows are taken a block at a time: each row's nonzero activations are
// listed as (index, value) pairs, then the panels are swept in the outer
// loop and the block's rows in the inner one, so a panel stays in L1
// across the block while each row keeps its eight outputs in registers
// across its list (two 256-bit registers on amd64 with AVX). The sweep
// applies identity and ReLU in registers and stores the outputs
// straight into dst; any other act maps them in place afterwards.
func (p *PackedF64) Into(dst, a []float64, m int, act Act) {
	if m == 0 || p.n == 0 {
		return
	}
	p.into(dst, a, m, act, nil)
}

// into is the one split policy. Products below matMulParFLOPs run
// serially on the calling goroutine. Larger ones split their panels
// across workers when they have more columns than rows (a 32-row batch
// through a 512-wide layer), and their rows otherwise. A non-nil b is
// packed into p first: by each worker into its own panels when the
// panels split, so a pack as large as the product's rows is not left
// serial.
func (p *PackedF64) into(dst, a []float64, m int, act Act, b []float64) {
	switch {
	case m*p.k*p.n < matMulParFLOPs:
		p.pack(b, 0, p.panels)
		p.rows(dst, a, 0, m, 0, p.panels, act)
	case p.n > m:
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

// init sizes p for a [k, n] matrix, reusing its buffers when they are
// large enough, and packs the bias.
func (p *PackedF64) init(bias []float64, k, n int) {
	p.k, p.n, p.panels = k, n, (n+panelWidth-1)/panelWidth
	p.w = growSlice(p.w, p.panels*k)
	p.bias = growSlice(p.bias, p.panels)
	clear(p.bias)
	for j, v := range bias {
		p.bias[j/panelWidth][j%panelWidth] = v
	}
}

// pack fills panels [q0, q1) from b, panel by panel so the writes
// stream; each read is one 64-byte run of a row of b. A nil b means the
// panels are already packed.
func (p *PackedF64) pack(b []float64, q0, q1 int) {
	if b == nil {
		return
	}
	k, n := p.k, p.n
	for q := q0; q < q1; q++ {
		pw, j0 := p.w[q*k:(q+1)*k], q*panelWidth
		if j0+panelWidth <= n {
			for kk := range pw {
				pw[kk] = [panelWidth]float64(b[kk*n+j0:])
			}
			continue
		}
		for kk := range pw {
			pw[kk] = [panelWidth]float64{}
			copy(pw[kk][:], b[kk*n+j0:(kk+1)*n])
		}
	}
}

// f64Entry is one listed activation: its index k and its value.
type f64Entry struct {
	k int
	v float64
}

// f64RowScratch is one worker's row-block lists, and the outputs of a
// partial last panel, which has no eight columns of dst to sweep into.
type f64RowScratch struct {
	list []f64Entry // [f64RowBlock][k]
	cnt  [f64RowBlock]int
	acc  [f64RowBlock * panelWidth]float64
}

var f64RowPool = sync.Pool{New: func() any { return new(f64RowScratch) }}

// rows is the one f64 inner loop: output rows [lo, hi) of panels
// [q0, q1). Each panel stores only its own columns, so two workers
// splitting the panels never write the same element. A full panel
// sweeps straight into dst at stride n; a partial last panel sweeps
// into s.acc at stride 8 and its first n%8 columns are copied out.
// Identity and ReLU run inside the sweep; any other act is mapped over
// each row's stored outputs.
func (p *PackedF64) rows(dst, a []float64, lo, hi, q0, q1 int, act Act) {
	k, n := p.k, p.n
	s := f64RowPool.Get().(*f64RowScratch)
	defer f64RowPool.Put(s)
	s.list = growSlice(s.list, min(f64RowBlock, hi-lo)*k)
	relu, post := act == ActReLU, act
	if act == ActIdentity || relu {
		post = ActIdentity
	}
	for r0 := lo; r0 < hi; r0 += f64RowBlock {
		r1 := min(r0+f64RowBlock, hi)
		// (a) List each row's nonzero activations.
		for r := r0; r < r1; r++ {
			list := s.list[(r-r0)*k:][:k]
			cnt := 0
			for kk, v := range a[r*k : (r+1)*k] {
				// Store unconditionally and advance only past a nonzero:
				// no branch to mispredict on ReLU-sparse rows.
				list[cnt] = f64Entry{kk, v}
				if v != 0 {
					cnt++
				}
			}
			s.cnt[r-r0] = cnt
		}
		// (b) Sweep each panel over the block into dst, then (c) map
		// the activations the sweep does not fuse.
		for q := q0; q < q1; q++ {
			pw, j0 := p.w[q*k:(q+1)*k], q*panelWidth
			if j0+panelWidth > n {
				sweepF64(s.acc[:], panelWidth, pw, &p.bias[q], s.list, k, &s.cnt, r1-r0, relu)
				for r := r0; r < r1; r++ {
					post.Map(dst[r*n+j0:(r+1)*n], s.acc[(r-r0)*panelWidth:])
				}
				continue
			}
			sweepF64(dst[r0*n+j0:], n, pw, &p.bias[q], s.list, k, &s.cnt, r1-r0, relu)
			if post != ActIdentity {
				for r := r0; r < r1; r++ {
					o := dst[r*n+j0:][:panelWidth]
					post.Map(o, o)
				}
			}
		}
	}
}

// sweepF64Go is the portable panel sweep, the only one off amd64 and
// the reference the vector sweep is tested against. For each of the
// block's rows r < rows it computes the panel's bias plus v * pw[kk]
// for each of the row's cnt[r] listed entries (kk, v) in list[r*k:], in
// list order, maps it through ReLU when relu is set, and stores the
// eight outputs at out[r*stride:]. A row keeps its eight outputs in
// registers across its list.
func sweepF64Go(out []float64, stride int, pw [][panelWidth]float64, bias *[panelWidth]float64,
	list []f64Entry, k int, cnt *[f64RowBlock]int, rows int, relu bool) {
	for r := 0; r < rows; r++ {
		c0, c1, c2, c3 := bias[0], bias[1], bias[2], bias[3]
		c4, c5, c6, c7 := bias[4], bias[5], bias[6], bias[7]
		for _, e := range list[r*k:][:cnt[r]] {
			w := &pw[e.k]
			c0 += e.v * w[0]
			c1 += e.v * w[1]
			c2 += e.v * w[2]
			c3 += e.v * w[3]
			c4 += e.v * w[4]
			c5 += e.v * w[5]
			c6 += e.v * w[6]
			c7 += e.v * w[7]
		}
		o := (*[panelWidth]float64)(out[r*stride:])
		o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = c0, c1, c2, c3, c4, c5, c6, c7
		if relu {
			for i, v := range o {
				if !(v > 0) { // relu: every zero, NaN and negative to +0
					o[i] = 0
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
