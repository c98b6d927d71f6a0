package tensor

import (
	"fmt"
	"sync"

	"repro/internal/parallel"
)

// MatMulInto32 computes a @ b into dst over flat row-major float32
// slabs: a is [m,k], b is [k,n], dst is [m,n]. It works on raw slices
// because the float32 path has no Tensor type: it exists for engines
// that keep weights converted once (nn.Forward32) and need the halved
// element size for bandwidth and SIMD width, not a second tensor
// algebra. It packs b into pooled scratch and runs PackedF32.Into on
// it, as DenseInto does for f64, so a caller that multiplies by the
// same b repeatedly should pack it once with PackF32 instead. dst must
// not overlap a or b; its previous contents are overwritten.
func MatMulInto32(dst, a, b []float32, m, k, n int) error {
	if m < 0 || k < 0 || n < 0 {
		return fmt.Errorf("tensor: matmul32 dims [%d %d %d] negative", m, k, n)
	}
	if len(a) != m*k || len(b) != k*n {
		return fmt.Errorf("tensor: matmul32 operands %d and %d floats, want [%d %d] x [%d %d]", len(a), len(b), m, k, k, n)
	}
	if len(dst) != m*n {
		return fmt.Errorf("tensor: matmul32 dst %d floats, want [%d %d]", len(dst), m, n)
	}
	if m == 0 || n == 0 {
		return nil
	}
	p := packedF32Pool.Get().(*PackedF32)
	defer packedF32Pool.Put(p)
	p.init(nil, k, n)
	p.into(dst, a, m, false, b)
	return nil
}

// f32PanelWidth is the column count of a packed f32 panel: the
// accumulators one row keeps in registers (two 256-bit registers on
// amd64 with AVX), so one panel row is 64 bytes.
const f32PanelWidth = 16

// f32RowBlock is how many rows list their activations before the
// panels sweep them, as f64RowBlock is for the f64 kernel.
const f32RowBlock = 32

// PackedF32 is a [k, n] f32 matrix and its bias packed for the f32 row
// kernel, the f32 twin of PackedF64: panel q holds columns 16q to
// 16q+15 of every row as [k][16] float32s, the last panel zero-padded.
// A PackedF32 is immutable once packed and safe for concurrent use.
type PackedF32 struct {
	k, n, panels int
	w            [][f32PanelWidth]float32 // [panels*k]: panel q is w[q*k:(q+1)*k]; columns past n 0
	bias         [][f32PanelWidth]float32 // [panels]; 0 past n, or everywhere without a bias
}

var packedF32Pool = sync.Pool{New: func() any { return new(PackedF32) }}

// PackF32 packs the row-major [k, n] matrix b and its [n] bias (nil adds
// nothing). The packed copy does not alias b or bias: writes to them
// afterwards are not seen.
func PackF32(b, bias []float32, k, n int) *PackedF32 {
	p := new(PackedF32)
	p.init(bias, k, n)
	p.pack(b, 0, p.panels)
	return p
}

// Into computes dst = a @ p + bias for the [m, k] slab a into the
// [m, n] slab dst, then maps every output through ReLU when relu is
// set. Output element j starts at +0; x_k*b[k][j] is added for each
// nonzero x_k in ascending k, one rounded multiply and one rounded add
// each, and bias[j] is added last: the op order of a plain f32 row loop
// followed by a bias pass, so the result is bitwise independent of
// packing, blocking and the parallel split. Zero activations (either
// sign) are skipped, so a 0 * Inf weight never turns an output into
// NaN. A sum that starts at +0 is never -0, so without a bias the zero
// bias it adds leaves every output's bits alone. ReLU maps every zero,
// NaN and negative to +0.
//
// Rows are taken a block at a time as in PackedF64.Into, each row
// keeping its sixteen outputs in registers across its list.
func (p *PackedF32) Into(dst, a []float32, m int, relu bool) {
	if m == 0 || p.n == 0 {
		return
	}
	p.into(dst, a, m, relu, nil)
}

// into is PackedF64.into's split policy: serial below matMulParFLOPs,
// panels across workers when they outnumber the rows, rows otherwise. A
// non-nil b is packed into p first, by each worker into its own panels
// when the panels split.
func (p *PackedF32) into(dst, a []float32, m int, relu bool, b []float32) {
	switch {
	case m*p.k*p.n < matMulParFLOPs:
		p.pack(b, 0, p.panels)
		p.rows(dst, a, 0, m, 0, p.panels, relu)
	case p.n > m:
		parallel.ForRange(p.panels, func(q0, q1 int) {
			p.pack(b, q0, q1)
			p.rows(dst, a, 0, m, q0, q1, relu)
		})
	default:
		p.pack(b, 0, p.panels)
		parallel.ForRange(m, func(lo, hi int) {
			p.rows(dst, a, lo, hi, 0, p.panels, relu)
		})
	}
}

// init sizes p for a [k, n] matrix, reusing its buffers when they are
// large enough, and packs the bias.
func (p *PackedF32) init(bias []float32, k, n int) {
	p.k, p.n, p.panels = k, n, (n+f32PanelWidth-1)/f32PanelWidth
	p.w = growSlice(p.w, p.panels*k)
	p.bias = growSlice(p.bias, p.panels)
	clear(p.bias)
	for j, v := range bias {
		p.bias[j/f32PanelWidth][j%f32PanelWidth] = v
	}
}

// pack fills panels [q0, q1) from b, panel by panel so the writes
// stream; each read is one 64-byte run of a row of b. A nil b means the
// panels are already packed.
func (p *PackedF32) pack(b []float32, q0, q1 int) {
	if b == nil {
		return
	}
	k, n := p.k, p.n
	for q := q0; q < q1; q++ {
		pw, j0 := p.w[q*k:(q+1)*k], q*f32PanelWidth
		if j0+f32PanelWidth <= n {
			for kk := range pw {
				pw[kk] = [f32PanelWidth]float32(b[kk*n+j0:])
			}
			continue
		}
		for kk := range pw {
			pw[kk] = [f32PanelWidth]float32{}
			copy(pw[kk][:], b[kk*n+j0:(kk+1)*n])
		}
	}
}

// f32Entry is one listed activation: its index k and its value.
type f32Entry struct {
	k int32
	v float32
}

// f32RowScratch is one worker's row-block lists, and the outputs of a
// partial last panel, which has no sixteen columns of dst to sweep into.
type f32RowScratch struct {
	list []f32Entry // [f32RowBlock][k]
	cnt  [f32RowBlock]int
	acc  [f32RowBlock * f32PanelWidth]float32
}

var f32RowPool = sync.Pool{New: func() any { return new(f32RowScratch) }}

// rows is the one f32 inner loop: output rows [lo, hi) of panels
// [q0, q1), as PackedF64.rows is for f64. Each panel stores only its
// own columns; a full panel sweeps straight into dst at stride n, a
// partial last panel into s.acc at stride 16, whose first n%16 columns
// are copied out.
func (p *PackedF32) rows(dst, a []float32, lo, hi, q0, q1 int, relu bool) {
	k, n := p.k, p.n
	s := f32RowPool.Get().(*f32RowScratch)
	defer f32RowPool.Put(s)
	s.list = growSlice(s.list, min(f32RowBlock, hi-lo)*k)
	for r0 := lo; r0 < hi; r0 += f32RowBlock {
		r1 := min(r0+f32RowBlock, hi)
		for r := r0; r < r1; r++ {
			list := s.list[(r-r0)*k:][:k]
			cnt := 0
			for kk, v := range a[r*k : (r+1)*k] {
				// Store unconditionally and advance only past a nonzero:
				// no branch to mispredict on ReLU-sparse rows.
				list[cnt] = f32Entry{int32(kk), v}
				if v != 0 {
					cnt++
				}
			}
			s.cnt[r-r0] = cnt
		}
		for q := q0; q < q1; q++ {
			pw, j0 := p.w[q*k:(q+1)*k], q*f32PanelWidth
			if j0+f32PanelWidth > n {
				sweepF32(s.acc[:], f32PanelWidth, pw, &p.bias[q], s.list, k, &s.cnt, r1-r0, relu)
				for r := r0; r < r1; r++ {
					copy(dst[r*n+j0:(r+1)*n], s.acc[(r-r0)*f32PanelWidth:])
				}
				continue
			}
			sweepF32(dst[r0*n+j0:], n, pw, &p.bias[q], s.list, k, &s.cnt, r1-r0, relu)
		}
	}
}

// sweepF32Go is the portable panel sweep, the only one off amd64 and
// the reference the vector sweep is tested against. For each of the
// block's rows r < rows it computes +0 plus v * pw[kk] for each of the
// row's cnt[r] listed entries (kk, v) in list[r*k:], in list order,
// adds the panel's bias, maps the sum through ReLU when relu is set,
// and stores the sixteen outputs at out[r*stride:]. It runs each row's
// list twice, once per eight-column half, so the half's accumulators
// stay in registers.
func sweepF32Go(out []float32, stride int, pw [][f32PanelWidth]float32, bias *[f32PanelWidth]float32,
	list []f32Entry, k int, cnt *[f32RowBlock]int, rows int, relu bool) {
	for r := 0; r < rows; r++ {
		rl := list[r*k:][:cnt[r]]
		o := (*[f32PanelWidth]float32)(out[r*stride:])
		for half := range 2 {
			var c0, c1, c2, c3, c4, c5, c6, c7 float32
			for _, e := range rl {
				w := (*[8]float32)(pw[e.k][8*half:])
				c0 += w[0] * e.v
				c1 += w[1] * e.v
				c2 += w[2] * e.v
				c3 += w[3] * e.v
				c4 += w[4] * e.v
				c5 += w[5] * e.v
				c6 += w[6] * e.v
				c7 += w[7] * e.v
			}
			b := (*[8]float32)(bias[8*half:])
			*(*[8]float32)(o[8*half:]) = [8]float32{c0 + b[0], c1 + b[1], c2 + b[2], c3 + b[3],
				c4 + b[4], c5 + b[5], c6 + b[6], c7 + b[7]}
		}
		if relu {
			for i, v := range o {
				if !(v > 0) { // relu: every zero, NaN and negative to +0
					o[i] = 0
				}
			}
		}
	}
}
