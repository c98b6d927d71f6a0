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
// overflowing silently. The 21-bit lanes never see a sum that long:
// they are flushed into the accumulator every flushEvery products.
const MaxInt8Depth = 1 << 16

// laneBits is the width of one accumulator lane of a packed word, and
// flushEvery the number of listed activations the lanes accumulate
// before they are separated into the int32 accumulator. A lane sums at
// most flushEvery products of magnitude 255 * 128, and
// flushEvery * 255 * 128 = 1044480 < 2^20, so the low and middle lanes
// stay exact as signed 21-bit fields and the top lane stays far below
// 2^63. flushEvery is a multiple of the four-row unroll.
const (
	laneBits   = 21
	flushEvery = 32
)

// PackedInt8 is a [k, n] int8 weight matrix packed for the int8 row
// kernel: columns 3j, 3j+1 and 3j+2 of row kk share one int64 word,
// w[kk][3j] + w[kk][3j+1]<<21 + w[kk][3j+2]<<42, so one 64-bit
// multiply-add by a widened activation performs three MACs with no
// per-element sign extension (when 3 does not divide n, the last word's
// upper lanes are empty). The three lanes accumulate independently for
// up to flushEvery activations and are then separated into the row's
// int32 accumulator. The packed form is 8/3 bytes per weight. A
// PackedInt8 is immutable once packed and safe for concurrent use.
type PackedInt8 struct {
	k, n   int
	words  int     // ceil(n/3) int64 words per row
	w      []int64 // [k, words]
	colSum []int32 // per-column weight sums, for the centring identity; 3*words long, zero past n
}

// PackInt8 packs the row-major [k, n] int8 matrix b.
func PackInt8(b []int8, k, n int) (*PackedInt8, error) {
	p := new(PackedInt8)
	if err := p.pack(b, k, n); err != nil {
		return nil, err
	}
	return p, nil
}

// pack fills p from b, reusing p's buffers when they are large enough.
func (p *PackedInt8) pack(b []int8, k, n int) error {
	if k < 0 || n < 0 || len(b) != k*n {
		return fmt.Errorf("tensor: packing %d int8 elems as [%d %d]", len(b), k, n)
	}
	if k > MaxInt8Depth {
		return fmt.Errorf("tensor: int8 depth %d exceeds %d, past which the int32 accumulator is no longer exact", k, MaxInt8Depth)
	}
	words := (n + 2) / 3
	p.k, p.n, p.words = k, n, words
	p.w = growSlice(p.w, k*words)
	p.colSum = growSlice(p.colSum, 3*words)
	clear(p.colSum)
	colSum := p.colSum
	for kk := 0; kk < k; kk++ {
		brow := b[kk*n : (kk+1)*n]
		wrow := p.w[kk*words : (kk+1)*words]
		j := 0
		for ; j+3 <= n; j += 3 {
			l, m, h := brow[j], brow[j+1], brow[j+2]
			colSum[j] += int32(l)
			colSum[j+1] += int32(m)
			colSum[j+2] += int32(h)
			wrow[j/3] = int64(l) + int64(m)<<laneBits + int64(h)<<(2*laneBits)
		}
		if j < n {
			wrow[words-1] = 0
		}
		for ; j < n; j++ {
			colSum[j] += int32(brow[j])
			wrow[words-1] += int64(brow[j]) << (laneBits * (j % 3))
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

// MatMulRows computes a @ p one output row at a time, a being [m, k]
// row-major int8 activation codes, and hands each row's int32
// accumulator to sink as soon as it is complete — the caller's epilogue
// runs on an L1-resident row inside the same parallel row split, and no
// [m, n] accumulator slab exists.
//
// centre is the code the kernel skips: per row it lists the activations
// that differ from centre as (index, q - centre) pairs, accumulates only
// those, and adds centre * colSum[j] back, which is exact in integers
// because sum((q-c) * w) = sum(q * w) - c * colSum. Passing the
// (clamped) zero point of an asymmetric encoding therefore skips every
// activation that encodes a real 0.0 — what ReLU produces in bulk —
// whatever code that zero happens to land on; a row with nothing to skip
// takes the same loop with a full list. The accumulator handed to sink
// is sum(q * w) bit for bit, independent of centre, blocking and split.
func (p *PackedInt8) MatMulRows(a []int8, m int, centre int8, sink Int8RowSink) error {
	if m < 0 || len(a) != m*p.k {
		return fmt.Errorf("tensor: matmul-i8 activations %d elems, want [%d %d]", len(a), m, p.k)
	}
	p.matMul(nil, a, m, centre, sink)
	return nil
}

// matMul splits the rows like the float kernels do and runs the row
// kernel on each range, into dst when it is non-nil and through sink
// otherwise.
func (p *PackedInt8) matMul(dst []int32, a []int8, m int, centre int8, sink Int8RowSink) {
	if m*p.k*p.n < matMulParFLOPs {
		p.rows(dst, a, 0, m, centre, sink)
		return
	}
	parallel.ForRange(m, func(lo, hi int) {
		p.rows(dst, a, lo, hi, centre, sink)
	})
}

// int8RowScratch is one worker's per-row state: the compacted
// activation list, the three-lane words, and the int32 accumulator the
// lanes are flushed into (3*words long, so the flush needs no tail).
type int8RowScratch struct {
	idx   []int32
	val   []int64
	lanes []int64
	acc   []int32
}

var int8RowPool = sync.Pool{New: func() any { return new(int8RowScratch) }}

// rows is the one int8 inner loop: output rows [lo, hi).
func (p *PackedInt8) rows(dst []int32, a []int8, lo, hi int, centre int8, sink Int8RowSink) {
	k, n, words := p.k, p.n, p.words
	s := int8RowPool.Get().(*int8RowScratch)
	defer int8RowPool.Put(s)
	s.idx = growSlice(s.idx, k)
	s.val = growSlice(s.val, k)
	s.lanes = growSlice(s.lanes, words)
	s.acc = growSlice(s.acc, 3*words)
	idx, val, lanes, acc := s.idx, s.val, s.lanes, s.acc
	clear(lanes) // every flush leaves them zero again
	c := int32(centre)
	for i := lo; i < hi; i++ {
		// (a) List the activations that differ from the centre.
		cnt := listRow(idx, val, a[i*k:(i+1)*k], c)
		// (b) Start from the centring correction, then accumulate the
		// list in chunks of flushEvery: four listed weight rows per pass
		// over the lanes (one load and one store of each word per twelve
		// MACs), and the lanes flushed into acc after each chunk.
		for j, cs := range p.colSum {
			acc[j] = c * cs
		}
		for t0 := 0; t0 < cnt; t0 += flushEvery {
			t1 := min(t0+flushEvery, cnt)
			t := t0
			for ; t+4 <= t1; t += 4 {
				lanes4(lanes, p.w[int(idx[t])*words:], p.w[int(idx[t+1])*words:],
					p.w[int(idx[t+2])*words:], p.w[int(idx[t+3])*words:],
					val[t], val[t+1], val[t+2], val[t+3])
			}
			for ; t < t1; t++ {
				v0 := val[t]
				r0 := p.w[int(idx[t])*words:][:len(lanes)]
				for j := range lanes {
					lanes[j] += v0 * r0[j]
				}
			}
			flushLanes(acc, lanes)
		}
		if dst != nil {
			copy(dst[i*n:(i+1)*n], acc)
		}
		if sink != nil {
			sink.Int8Row(i, acc[:n])
		}
	}
}

// listRow lists the codes of row a that differ from centre c as
// (index, q - c) pairs in idx and val and returns how many there are.
// It stores every code unconditionally and advances the count only past
// one off the centre: ReLU leaves a large share of the hidden codes at
// the centre in no order, and a branch on each would mispredict. Like
// lanes4 and flushLanes it stays out of line, where its loop keeps
// everything in registers.
//
//go:noinline
func listRow(idx []int32, val []int64, a []int8, c int32) int {
	cnt := 0
	for kk, q := range a {
		d := int32(q) - c
		idx[cnt], val[cnt] = int32(kk), int64(d)
		if d != 0 {
			cnt++
		}
	}
	return cnt
}

// lanes4 adds v0*r0 + v1*r1 + v2*r2 + v3*r3 into lanes. Kept out of
// line so the pass runs with its pointers in registers: inlined into
// rows, the loop reloaded two of them from the stack on every word.
//
//go:noinline
func lanes4(lanes, r0, r1, r2, r3 []int64, v0, v1, v2, v3 int64) {
	r0, r1, r2, r3 = r0[:len(lanes)], r1[:len(lanes)], r2[:len(lanes)], r3[:len(lanes)]
	for j := range lanes {
		lanes[j] += v0*r0[j] + v1*r1[j] + v2*r2[j] + v3*r3[j]
	}
}

// flushLanes separates each word of lanes into its three lane sums,
// adds them into acc[3j], acc[3j+1] and acc[3j+2], and zeroes the word.
// The low lane is the word's low 21 bits sign-extended; subtracting it
// back out removes the borrow a negative low lane took from the lanes
// above, so the shift that follows is exact. The middle lane comes off
// the same way and what is left is the top lane. Out of line for the
// same reason as lanes4.
//
//go:noinline
func flushLanes(acc []int32, lanes []int64) {
	acc = acc[:3*len(lanes)]
	for j, v := range lanes {
		l := v << (64 - laneBits) >> (64 - laneBits)
		v = (v - l) >> laneBits
		m := v << (64 - laneBits) >> (64 - laneBits)
		h := (v - m) >> laneBits
		a := acc[3*j : 3*j+3 : 3*j+3]
		a[0] += int32(l)
		a[1] += int32(m)
		a[2] += int32(h)
		lanes[j] = 0
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

var packedInt8Pool = sync.Pool{New: func() any { return new(PackedInt8) }}

// MatMulInt8Into computes a @ b into dst over flat row-major slabs of
// quantized integers: a is [m,k] int8, b is [k,n] int8, dst is [m,n]
// int32. It packs b into pooled scratch and runs the same row kernel as
// PackedInt8.MatMulRows with centre 0 (zero codes are skipped), so a
// caller that multiplies by the same b repeatedly should pack it once
// with PackInt8 instead. Accumulation is exact — integer addition is
// associative, the three 21-bit lanes of each packed word are flushed
// into an int32 accumulator before any can overflow, and k is refused
// past MaxInt8Depth, the depth up to which that accumulator cannot — so
// the result is bitwise
// deterministic regardless of blocking or parallel split, which is what
// the property tests pin down. Requantization (scales, zero-point
// correction) is the caller's business: nn.ForwardI8 folds it into a
// per-column multiplier applied to these raw accumulators. dst must not
// overlap a or b; its previous contents are overwritten.
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
