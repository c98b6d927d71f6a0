package tensor

import (
	"fmt"
	"sync"

	"repro/internal/parallel"
)

// MaxInt8Depth is the largest inner dimension k the int8 kernel
// accepts. Activations enter centred (|q - c| <= 255) against weights
// of magnitude at most 128, so a row's int32 accumulator holds any
// centred sum of up to 65536 such products (65536 * 255 * 128 < 2^31)
// and nothing past it; packing refuses deeper matrices instead of
// overflowing silently. One pair of products, the unit the sweep adds,
// is at most 2 * 255 * 128 = 65280 in magnitude, far inside an int32
// lane.
const MaxInt8Depth = 1 << 16

// i8PanelWidth is the column count of a packed int8 panel: the int32
// accumulators one row keeps in registers (two 256-bit registers on
// amd64 with AVX2).
const i8PanelWidth = 16

// i8RowBlock is how many rows list their activations before the panels
// sweep them, as rowBlock is for the float kernels.
const i8RowBlock = 32

// i8PanelRow is one pair row of a panel: for each of the panel's
// columns j, the weights at depths 2p and 2p+1 as an int16 pair, so one
// pair row is 64 bytes and one multiply-add of a pair of centred codes
// against it performs two MACs per column. Its two halves, columns 0-7
// and 8-15, are one 256-bit register each.
type i8PanelRow [i8PanelWidth][2]int16

// PackedInt8 is a [k, n] int8 weight matrix packed for the int8 row
// kernel: panel q holds columns 16q to 16q+15 as [ceil(k/2)] pair rows,
// the last panel's columns past n zero, and an odd k's last pair padded
// with a zero weight row. The packed form is 2 bytes per weight. A
// PackedInt8 is immutable once packed and safe for concurrent use.
type PackedInt8 struct {
	k, n, pairs, panels int
	w                   []i8PanelRow          // [panels*pairs]: panel q is w[q*pairs:(q+1)*pairs]
	colSum              [][i8PanelWidth]int32 // [panels] per-column weight sums, for the centring identity; 0 past n
}

// PackInt8 packs the row-major [k, n] int8 matrix b.
func PackInt8(b []int8, k, n int) (*PackedInt8, error) {
	p := new(PackedInt8)
	if err := p.pack(b, k, n); err != nil {
		return nil, err
	}
	return p, nil
}

// pack fills p from b, reusing p's buffers when they are large enough,
// panel by panel so the writes stream.
func (p *PackedInt8) pack(b []int8, k, n int) error {
	if k < 0 || n < 0 || len(b) != k*n {
		return fmt.Errorf("tensor: packing %d int8 elems as [%d %d]", len(b), k, n)
	}
	if k > MaxInt8Depth {
		return fmt.Errorf("tensor: int8 depth %d exceeds %d, past which the int32 accumulator is no longer exact", k, MaxInt8Depth)
	}
	p.k, p.n = k, n
	p.pairs, p.panels = (k+1)/2, (n+i8PanelWidth-1)/i8PanelWidth
	p.w = growSlice(p.w, p.panels*p.pairs)
	p.colSum = growSlice(p.colSum, p.panels)
	clear(p.w) // the pads: columns past n and an odd k's last weight row
	clear(p.colSum)
	for q := range p.colSum {
		pw := p.w[q*p.pairs : (q+1)*p.pairs]
		j0 := q * i8PanelWidth
		cs := p.colSum[q][:min(i8PanelWidth, n-j0)]
		for kk := 0; kk < k; kk++ {
			row, pr, h := b[kk*n+j0:][:len(cs)], pw[kk/2][:len(cs)], kk%2
			for j, v := range row {
				pr[j][h] = int16(v)
				cs[j] += int32(v)
			}
		}
	}
	return nil
}

// Int8RowSink receives each finished output row of MatMulRows: acc is
// the exact [n] int32 accumulator of row i, valid only for the duration
// of the call. Rows arrive from several goroutines at once, each row
// exactly once.
type Int8RowSink interface {
	Int8Row(i int, acc []int32)
}

// MatMulRows computes a @ p, a being [m, k] row-major int8 activation
// codes, and hands each row's int32 accumulator to sink as soon as its
// row block is complete — the caller's epilogue runs on an L1-resident
// row inside the same parallel row split, and no [m, n] accumulator
// slab exists.
//
// centre is the code the kernel skips: per row it lists the depth pairs
// whose two codes are not both at centre as (pair, (q0-c, q1-c))
// entries, accumulates only those, and starts each output from
// centre * colSum[j], which is exact in integers because
// sum((q-c) * w) = sum(q * w) - c * colSum. Passing the (clamped) zero
// point of an asymmetric encoding therefore skips every pair of
// activations that encode a real 0.0 — what ReLU produces in bulk —
// whatever code that zero happens to land on; a row with nothing to
// skip takes the same loop with a full list. The accumulator handed to
// sink is sum(q * w) bit for bit, independent of centre, blocking,
// sweep and split.
func (p *PackedInt8) MatMulRows(a []int8, m int, centre int8, sink Int8RowSink) error {
	if m < 0 || len(a) != m*p.k {
		return fmt.Errorf("tensor: matmul-i8 activations %d elems, want [%d %d]", len(a), m, p.k)
	}
	p.matMul(nil, a, m, centre, sink)
	return nil
}

// matMul runs the row kernel over split's ranges, always of whole rows,
// into dst when it is non-nil and through sink otherwise.
func (p *PackedInt8) matMul(dst []int32, a []int8, m int, centre int8, sink Int8RowSink) {
	if split(m, p.k, p.n, macCost(i8Sweep, costI8Vector), true) == serial {
		p.rows(dst, a, 0, m, centre, sink)
		return
	}
	parallel.ForRange(m, func(lo, hi int) {
		p.rows(dst, a, lo, hi, centre, sink)
	})
}

// i8Entry is one listed pair: its index p and its two centred codes,
// q[2p]-c in the low 16 bits of v and q[2p+1]-c in the high 16, as
// two's-complement int16s.
type i8Entry struct {
	p int32
	v uint32
}

// i8RowScratch is one worker's row-block lists, the sweep's starting
// values, and the block's finished rows.
type i8RowScratch struct {
	list []i8Entry             // [i8RowBlock][pairs]
	cnt  [i8RowBlock]int       // listed entries per row
	base [][i8PanelWidth]int32 // [panels]: centre * colSum
	out  []int32               // [i8RowBlock][panels*i8PanelWidth]
}

var i8RowPool = sync.Pool{New: func() any { return new(i8RowScratch) }}

// rows is the one int8 inner loop: output rows [lo, hi). Rows are
// taken a block at a time: (a) each row lists its pairs, (b) the panels
// are swept in the outer loop and the block's rows in the inner one, so
// a panel stays in L1 across the block while each row keeps its sixteen
// outputs in registers across its list, and (c) each finished row goes
// to dst or sink.
func (p *PackedInt8) rows(dst []int32, a []int8, lo, hi int, centre int8, sink Int8RowSink) {
	k, n, pairs := p.k, p.n, p.pairs
	width := p.panels * i8PanelWidth
	s := i8RowPool.Get().(*i8RowScratch)
	defer i8RowPool.Put(s)
	block := min(i8RowBlock, hi-lo)
	s.list = growSlice(s.list, block*pairs)
	s.out = growSlice(s.out, block*width)
	s.base = growSlice(s.base, p.panels)
	c := int32(centre)
	for q, cs := range p.colSum {
		for j, v := range cs {
			s.base[q][j] = c * v
		}
	}
	for r0 := lo; r0 < hi; r0 += i8RowBlock {
		r1 := min(r0+i8RowBlock, hi)
		for r := r0; r < r1; r++ {
			s.cnt[r-r0] = listPairs(s.list[(r-r0)*pairs:][:pairs], a[r*k:(r+1)*k], c)
		}
		for q := range p.panels {
			sweepI8(s.out[q*i8PanelWidth:], width, p.w[q*pairs:(q+1)*pairs], &s.base[q],
				s.list, pairs, &s.cnt, r1-r0)
		}
		for r := r0; r < r1; r++ {
			acc := s.out[(r-r0)*width:][:n]
			if dst != nil {
				copy(dst[r*n:(r+1)*n], acc)
			}
			if sink != nil {
				sink.Int8Row(r, acc)
			}
		}
	}
}

// listPairs lists the depth pairs of row a whose codes are not both at
// centre c into list (ceil(len(a)/2) long) and returns how many there
// are; an odd row's last pair takes c as its missing second code.
func listPairs(list []i8Entry, a []int8, c int32) int {
	cnt := listEvenPairs(list, a[:len(a)&^1], c)
	if len(a)%2 != 0 {
		pp := len(a) / 2
		d0 := int32(a[2*pp]) - c
		list[cnt] = i8Entry{int32(pp), uint32(uint16(d0))}
		if d0 != 0 {
			cnt++
		}
	}
	return cnt
}

// listPairsGo is the portable pair lister, the only one off amd64 and
// the reference listPairsAsm is tested against: listPairs over an
// even-length row. It stores every pair unconditionally and advances
// the count only past one off the centre: ReLU leaves a large share of
// the hidden codes at the centre in no order, and a branch on each
// would mispredict.
func listPairsGo(list []i8Entry, even []int8, c int32) int {
	cnt := 0
	for pp := range len(even) / 2 {
		d0, d1 := int32(even[2*pp])-c, int32(even[2*pp+1])-c
		v := uint32(uint16(d0)) | uint32(d1)<<16
		list[cnt] = i8Entry{int32(pp), v}
		if v != 0 {
			cnt++
		}
	}
	return cnt
}

// sweepI8Go is the portable panel sweep, the only one off amd64 and the
// reference the vector sweep is tested against. For each of the block's
// rows r < rows it sets out[r*stride:][:16] to base plus, for each of
// the row's cnt[r] listed entries (p, v) in list[r*pairs:], the two
// centred codes of v times pw[p]'s weight pair in every column. It runs
// each row's list twice, once per eight-column half, so the half's
// accumulators stay in registers.
func sweepI8Go(out []int32, stride int, pw []i8PanelRow, base *[i8PanelWidth]int32,
	list []i8Entry, pairs int, cnt *[i8RowBlock]int, rows int) {
	for r := 0; r < rows; r++ {
		rl := list[r*pairs:][:cnt[r]]
		o := (*[i8PanelWidth]int32)(out[r*stride:])
		for half := range 2 {
			b := (*[8]int32)(base[8*half:])
			c0, c1, c2, c3, c4, c5, c6, c7 := b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]
			for _, e := range rl {
				lo, hi := int32(int16(e.v)), int32(int16(e.v>>16))
				w := (*[8][2]int16)(pw[e.p][8*half:])
				c0 += lo*int32(w[0][0]) + hi*int32(w[0][1])
				c1 += lo*int32(w[1][0]) + hi*int32(w[1][1])
				c2 += lo*int32(w[2][0]) + hi*int32(w[2][1])
				c3 += lo*int32(w[3][0]) + hi*int32(w[3][1])
				c4 += lo*int32(w[4][0]) + hi*int32(w[4][1])
				c5 += lo*int32(w[5][0]) + hi*int32(w[5][1])
				c6 += lo*int32(w[6][0]) + hi*int32(w[6][1])
				c7 += lo*int32(w[7][0]) + hi*int32(w[7][1])
			}
			*(*[8]int32)(o[8*half:]) = [8]int32{c0, c1, c2, c3, c4, c5, c6, c7}
		}
	}
}

var packedInt8Pool = sync.Pool{New: func() any { return new(PackedInt8) }}

// MatMulInt8Into computes a @ b into dst over flat row-major slabs of
// quantized integers: a is [m,k] int8, b is [k,n] int8, dst is [m,n]
// int32. It packs b into pooled scratch and runs the same row kernel as
// PackedInt8.MatMulRows with centre 0 (zero pairs are skipped), so a
// caller that multiplies by the same b repeatedly should pack it once
// with PackInt8 instead. Accumulation is exact — integer addition is
// associative, and k is refused past MaxInt8Depth, the depth up to
// which the int32 accumulator cannot overflow — so the result is
// bitwise deterministic regardless of blocking, sweep or parallel
// split, which is what the property tests pin down. Requantization
// (scales, zero-point correction) is the caller's business:
// nn.ForwardI8 folds it into a per-column multiplier applied to these
// raw accumulators. dst must not overlap a or b; its previous contents
// are overwritten.
func MatMulInt8Into(dst []int32, a, b []int8, m, k, n int) error {
	if m < 0 || k < 0 || n < 0 {
		return fmt.Errorf("tensor: matmul-i8 dims [%d %d %d] negative", m, k, n)
	}
	if len(a) != m*k || len(b) != k*n {
		return fmt.Errorf("tensor: matmul-i8 operands %d and %d elems, want [%d %d] x [%d %d]", len(a), len(b), m, k, k, n)
	}
	if len(dst) != m*n {
		return fmt.Errorf("tensor: matmul-i8 dst %d elems, want [%d %d]", len(dst), m, n)
	}
	p := packedInt8Pool.Get().(*PackedInt8)
	defer packedInt8Pool.Put(p)
	if err := p.pack(b, k, n); err != nil {
		return err
	}
	p.matMul(dst, a, m, 0, nil)
	return nil
}
