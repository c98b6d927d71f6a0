package tensor

import (
	"sync"

	"repro/internal/parallel"
)

// The packed-panel driver: the one loop nest behind the f64 and f32 row
// kernels (PackedF64 and PackedF32 are packed over float64 and float32),
// and the split policy of all three row kernels.

// parMACs is the multiply-add count, weighed by a kernel's cost, below
// which the goroutine fan-out costs more than it saves and a product
// runs serially on the calling goroutine.
const parMACs = 1 << 18

// The row kernels' costs per multiply-add, in quarters of the unit
// parMACs is counted in; split weighs a product by them. Each was
// measured as the size at which a split starts to beat the serial
// kernel on two cores: 2^18 multiply-adds for the f64 kernel under
// either sweep, 2^20 for the f32 and int8 vector sweeps, and at most
// 2^18 for their portable sweeps.
const (
	costF64       = 4
	costF32Vector = 1
	costI8Vector  = 1
	costPortable  = 4
)

// sweepLevel is the sweep a row kernel runs: its portable Go loop, or
// its assembly in 256-bit (AVX, AVX2 for the int8 kernel) or 512-bit
// (AVX-512) registers. Each kernel's level is set once, from the CPU;
// tests lower it to run every sweep below.
type sweepLevel uint8

const (
	sweepPortable sweepLevel = iota
	sweepAVX
	sweepAVX512
)

// String names a level as the kernels' subtests and benchmarks do:
// "vector" is the 256-bit sweep, the one vector sweep each kernel had
// before the 512-bit ones.
func (l sweepLevel) String() string {
	return [...]string{"portable", "vector", "avx512"}[l]
}

// macCost is a kernel's cost per multiply-add: cost under a vector
// sweep, costPortable under the portable one.
func macCost(level sweepLevel, cost int) int {
	if level != sweepPortable {
		return cost
	}
	return costPortable
}

// splitMode is how a product runs: on the calling goroutine, or across
// workers by panels or by rows.
type splitMode uint8

const (
	serial splitMode = iota
	byPanels
	byRows
)

// split is the one split policy of the row kernels. An [m, k] x [k, n]
// product whose multiply-adds, weighed by cost, fall below parMACs runs
// serially. A larger one splits its panels across workers when it has
// more columns than rows (a 32-row batch through a 512-wide layer), and
// its rows otherwise or when the kernel needs whole rows (the int8
// kernel hands each finished row to a sink).
func split(m, k, n, cost int, wholeRows bool) splitMode {
	switch {
	case m*k*n*cost < 4*parMACs:
		return serial
	case n > m && !wholeRows:
		return byPanels
	}
	return byRows
}

// float is the element type of a packed-panel kernel.
type float interface{ float32 | float64 }

// panelRow is one row of a packed panel: 64 bytes, the outputs one row
// keeps in registers (one 512-bit register on amd64 with AVX-512, two
// 256-bit ones with AVX), so eight float64 or sixteen float32 columns.
type panelRow[E float] interface{ [8]E | [16]E }

// entry is one listed activation: its index k and its value. An f64
// entry is 16 bytes, the value at 8; an f32 entry 8, the value at 4.
type entry[E float] struct {
	k int32
	v E
}

type (
	f64Entry = entry[float64]
	f32Entry = entry[float32]
)

// rowBlock is how many rows list their activations before the panels
// sweep them. A larger block reuses each L1-resident panel across more
// rows; the block's lists stay in L2.
const rowBlock = 32

// kernel describes one element type's row kernel to the driver. Its
// panel width is P's length and its entry is entry[E]. list is
// listRows' contract: it lists a row block's activations in one call
// and fills cnt itself. sweep is sweepGo's, with the bias where the
// kernel puts it, and pair is two sweeps of adjacent full panels, pw[:k]
// and pw[k:2k] with biases bias[0] and bias[1], whose outputs sit side
// by side in each output row. Above *level's sweepPortable the lister
// and the sweeps run in assembly; at the top level, AVX-512, pair runs
// each row's list once over both panels. cost is the vector sweeps'
// cost per multiply-add in split.
type kernel[E float, P panelRow[E]] struct {
	list    func(list []entry[E], a []E, k, rows int, cnt *[rowBlock]int)
	sweep   func(out []E, stride int, pw []P, bias *P, list []entry[E], k int, cnt *[rowBlock]int, rows int, relu bool)
	pair    func(out []E, stride int, pw []P, bias *[2]P, list []entry[E], k int, cnt *[rowBlock]int, rows int, relu bool)
	level   *sweepLevel
	cost    int
	scratch sync.Pool // *rowScratch[E]
}

// packed is a [k, n] matrix and its bias packed for a row kernel: panel
// q holds columns wq to wq+w-1 of every row as [k]P, w = len(P), the
// last panel zero-padded. It is immutable once packed and safe for
// concurrent use.
type packed[E float, P panelRow[E]] struct {
	kern         *kernel[E, P]
	k, n, panels int
	w            []P // [panels*k]: panel q is w[q*k:(q+1)*k]; columns past n 0
	bias         []P // [panels]; 0 past n, or everywhere without a bias
}

// init sizes p for kern and a [k, n] matrix, reusing its buffers when
// they are large enough, and packs the bias.
func (p *packed[E, P]) init(kern *kernel[E, P], bias []E, k, n int) {
	var row P
	w := len(row)
	p.kern, p.k, p.n, p.panels = kern, k, n, (n+w-1)/w
	p.w = growSlice(p.w, p.panels*k)
	p.bias = growSlice(p.bias, p.panels)
	clear(p.bias)
	for j, v := range bias {
		p.bias[j/w][j%w] = v
	}
}

// pack fills panels [q0, q1) from b, panel by panel so the writes
// stream; each read is one 64-byte run of a row of b. A nil b means the
// panels are already packed.
func (p *packed[E, P]) pack(b []E, q0, q1 int) {
	if b == nil {
		return
	}
	k, n := p.k, p.n
	var row P
	w := len(row)
	for q := q0; q < q1; q++ {
		pw, j0 := p.w[q*k:(q+1)*k], q*w
		if j0+w <= n {
			for kk := range pw {
				pw[kk] = P(b[kk*n+j0:])
			}
			continue
		}
		for kk := range pw {
			pw[kk] = row
			for j, v := range b[kk*n+j0 : (kk+1)*n] {
				pw[kk][j] = v
			}
		}
	}
}

// into computes dst = act(a @ p) under split's policy. A non-nil b is
// packed into p first: by each worker into its own panels when the
// panels split, so a pack as large as the product's rows is not left
// serial. A panel split hands out whole panel pairs, so every worker's
// range starts at an even panel and only the product's last panel can
// be swept alone.
func (p *packed[E, P]) into(dst, a []E, m int, act Act, b []E) {
	switch split(m, p.k, p.n, macCost(*p.kern.level, p.kern.cost), false) {
	case serial:
		p.pack(b, 0, p.panels)
		p.rows(dst, a, 0, m, 0, p.panels, act)
	case byPanels:
		parallel.ForRange((p.panels+1)/2, func(h0, h1 int) {
			q0, q1 := 2*h0, min(2*h1, p.panels)
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

// rowScratch is one worker's row-block lists, and the outputs of a
// partial last panel, which has no full panel of dst columns to sweep
// into.
type rowScratch[E float] struct {
	list []entry[E] // [rowBlock][k]
	cnt  [rowBlock]int
	acc  []E // [rowBlock][len(P)]
}

// rows is the one row loop: output rows [lo, hi) of panels [q0, q1).
// Rows are taken a block at a time: (a) one list call lists the block's
// nonzero activations, row by row, (b) the panels are swept in the
// outer loop and the block's rows in the inner one, two adjacent full
// panels per pair call, so a panel is reused from cache across the
// block while each row keeps its outputs in registers across its list
// (a 512-deep f64 pair is 64 KB, more than many an L1d), and (c) any
// act the sweep does not fuse (it fuses identity and ReLU) is mapped
// over the stored outputs. A last panel of an odd range, and one before
// a partial last panel, is swept alone. Each panel stores only its own
// columns, so two workers splitting the panels never write the same
// element. A full panel sweeps straight into dst at stride n; a partial
// last panel sweeps into s.acc at stride len(P), and its first columns
// are copied out.
func (p *packed[E, P]) rows(dst, a []E, lo, hi, q0, q1 int, act Act) {
	k, n := p.k, p.n
	var row P
	w := len(row)
	s, _ := p.kern.scratch.Get().(*rowScratch[E])
	if s == nil {
		s = new(rowScratch[E])
	}
	defer p.kern.scratch.Put(s)
	s.list = growSlice(s.list, min(rowBlock, hi-lo)*k)
	s.acc = growSlice(s.acc, rowBlock*w)
	relu, post := act == ActReLU, act
	if act == ActIdentity || relu {
		post = ActIdentity
	}
	for r0 := lo; r0 < hi; r0 += rowBlock {
		r1 := min(r0+rowBlock, hi)
		p.kern.list(s.list, a[r0*k:r1*k], k, r1-r0, &s.cnt)
		for q := q0; q < q1; q++ {
			j0, cols := q*w, w
			switch {
			case j0+w > n:
				p.kern.sweep(s.acc, w, p.w[q*k:(q+1)*k], &p.bias[q], s.list, k, &s.cnt, r1-r0, relu)
				for r := r0; r < r1; r++ {
					MapAct(post, dst[r*n+j0:(r+1)*n], s.acc[(r-r0)*w:])
				}
				continue
			case q+1 < q1 && j0+2*w <= n:
				p.kern.pair(dst[r0*n+j0:], n, p.w[q*k:(q+2)*k], (*[2]P)(p.bias[q:q+2]), s.list, k, &s.cnt, r1-r0, relu)
				q, cols = q+1, 2*w
			default:
				p.kern.sweep(dst[r0*n+j0:], n, p.w[q*k:(q+1)*k], &p.bias[q], s.list, k, &s.cnt, r1-r0, relu)
			}
			if post != ActIdentity {
				for r := r0; r < r1; r++ {
					o := dst[r*n+j0:][:cols]
					MapAct(post, o, o)
				}
			}
		}
	}
}

// listRows is the block lister's contract, in portable Go: for each
// of the block's rows r < rows it lists row a[r*k:][:k]'s nonzero
// activations into list[r*k:][:k] with listNonzero and stores their
// count at cnt[r].
func listRows[E float](list []entry[E], a []E, k, rows int, cnt *[rowBlock]int) {
	for r := range rows {
		cnt[r] = listNonzero(list[r*k:][:k], a[r*k:][:k])
	}
}

// sweepPairGo is the pair contract in portable Go: sweepGo on panel
// pw[:k] with bias[0] into out's first len(P) columns, then on pw[k:2k]
// with bias[1] into the next len(P).
func sweepPairGo[E float, P panelRow[E]](out []E, stride int, pw []P, bias *[2]P,
	list []entry[E], k int, cnt *[rowBlock]int, rows int, relu, biasFirst bool) {
	sweepGo(out, stride, pw[:k], &bias[0], list, k, cnt, rows, relu, biasFirst)
	sweepGo(out[len(bias[0]):], stride, pw[k:2*k], &bias[1], list, k, cnt, rows, relu, biasFirst)
}

// listNonzero is the portable lister, the only one off amd64 and the
// reference the assembly listers are tested against. It lists row a's
// nonzero activations into list (len(a) long) and returns how many
// there are. It stores every entry unconditionally and advances the
// count only past a nonzero: no branch to mispredict on ReLU-sparse
// rows.
func listNonzero[E float](list []entry[E], a []E) int {
	cnt := 0
	for kk, v := range a {
		list[cnt] = entry[E]{int32(kk), v}
		if v != 0 {
			cnt++
		}
	}
	return cnt
}

// sweepGo is the portable panel sweep, the only one off amd64 and the
// reference the vector sweeps are tested against. For each of the
// block's rows r < rows it sums v * pw[kk] over the row's cnt[r] listed
// entries (kk, v) in list[r*k:], in list order, starting from the
// panel's bias when biasFirst is set (the f64 kernel) and from +0
// otherwise, then adding the bias last (the f32 kernel). It maps the
// sum through ReLU when relu is set and stores the len(P) outputs at
// out[r*stride:]. It runs each row's list once per eight columns, so
// their accumulators stay in registers.
func sweepGo[E float, P panelRow[E]](out []E, stride int, pw []P, bias *P,
	list []entry[E], k int, cnt *[rowBlock]int, rows int, relu, biasFirst bool) {
	b := *bias
	for r := 0; r < rows; r++ {
		rl := list[r*k:][:cnt[r]]
		o := out[r*stride:][:len(b)]
		for j := 0; j < len(o); j += 8 {
			var c0, c1, c2, c3, c4, c5, c6, c7 E
			if biasFirst {
				c0, c1, c2, c3, c4, c5, c6, c7 = b[j], b[j+1], b[j+2], b[j+3], b[j+4], b[j+5], b[j+6], b[j+7]
			}
			for _, e := range rl {
				w := &pw[e.k]
				c0 += (*w)[j] * e.v
				c1 += (*w)[j+1] * e.v
				c2 += (*w)[j+2] * e.v
				c3 += (*w)[j+3] * e.v
				c4 += (*w)[j+4] * e.v
				c5 += (*w)[j+5] * e.v
				c6 += (*w)[j+6] * e.v
				c7 += (*w)[j+7] * e.v
			}
			if !biasFirst {
				c0, c1, c2, c3 = c0+b[j], c1+b[j+1], c2+b[j+2], c3+b[j+3]
				c4, c5, c6, c7 = c4+b[j+4], c5+b[j+5], c6+b[j+6], c7+b[j+7]
			}
			o[j], o[j+1], o[j+2], o[j+3], o[j+4], o[j+5], o[j+6], o[j+7] = c0, c1, c2, c3, c4, c5, c6, c7
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

// growSlice returns s resized to n elements, reallocating only when its
// capacity is too small; contents are unspecified.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
