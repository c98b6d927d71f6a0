package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestSweepPairs holds each kernel's pair sweep to two sweepGo calls, one
// per panel, at every level, and the driver's pairing of panels to the
// plain row loop.
//
// The sweep subtests run blocks of 1 to 9 rows (whole four-row groups,
// a group and more, and the one to three rows a block ends with) whose
// counts are 0, 1, k or random, so rows finish alone past a group's
// shared count, with and without ReLU. The two panels get different
// weights and biases. Each block is stored at a stride of the pair's
// width and at a wider one, into a buffer of sentinels that runs past
// the last row: every element past a row's 16 (f64) or 32 (f32)
// outputs must keep its sentinel.
//
// The rows subtests run packed.rows over shapes with an odd panel count
// (whose last full panel is swept alone), a partial last panel (after a
// pair and after a lone panel) and an even count, over the whole panel
// range and ranges that start at an odd panel, and check every element
// of dst and of guards either side of it.
func TestSweepPairs(t *testing.T) {
	t.Run("f64", func(t *testing.T) {
		forSweeps(t, &f64Sweep, func(t *testing.T) { checkPairs(t, sweepF64Pair, true, 16, 19) })
	})
	t.Run("f32", func(t *testing.T) {
		forSweeps(t, &f32Sweep, func(t *testing.T) { checkPairs(t, sweepF32Pair, false, 32, 37) })
	})
	t.Run("rows/f64", func(t *testing.T) {
		forSweeps(t, &f64Sweep, func(t *testing.T) {
			for _, n := range []int{40, 35, 27, 19, 16} { // 5 full, 4 full + partial, 3 + partial, 2 + partial, 2 full
				checkPairedRows(t, n, panelWidth, func(rng *rand.Rand, m, k int) ([]float64, func(dst []float64, q0, q1 int)) {
					a, b, bias := randTensor(rng, m, k).Data(), randTensor(rng, k, n).Data(), randTensor(rng, n).Data()
					for i := range a {
						if rng.Intn(4) == 0 {
							a[i] = 0
						}
					}
					p := PackF64(b, bias, k, n)
					return rowLoopF64(a, b, bias, m, k, n, ActReLU), func(dst []float64, q0, q1 int) { p.rows(dst, a, 0, m, q0, q1, ActReLU) }
				})
			}
		})
	})
	t.Run("rows/f32", func(t *testing.T) {
		forSweeps(t, &f32Sweep, func(t *testing.T) {
			for _, n := range []int{80, 70, 54, 38, 32} {
				checkPairedRows(t, n, f32PanelWidth, func(rng *rand.Rand, m, k int) ([]float32, func(dst []float32, q0, q1 int)) {
					a, b, bias := randSlab32(rng, m*k), randSlab32(rng, k*n), randSlab32(rng, n)
					p := PackF32(b, bias, k, n)
					return rowLoopF32(a, b, bias, m, k, n, ActReLU), func(dst []float32, q0, q1 int) { p.rows(dst, a, 0, m, q0, q1, ActReLU) }
				})
			}
		})
	})
}

// checkPairs runs TestSweepPairs' blocks through pair and through two
// sweepGo calls at each of strides and compares every element's bits.
func checkPairs[E float, P panelRow[E]](t *testing.T,
	pair func(out []E, stride int, pw []P, bias *[2]P, list []entry[E], k int, cnt *[rowBlock]int, rows int, relu bool),
	biasFirst bool, strides ...int) {
	const k, guard = 13, 40
	rng := rand.New(rand.NewSource(61))
	var bias [2]P
	w := len(bias[0])
	for c := range bias {
		for j := range w {
			bias[c][j] = E(rng.NormFloat64())
		}
	}
	pw := make([]P, 2*k)
	for kk := range pw {
		for j := range w {
			pw[kk][j] = E(rng.NormFloat64())
		}
	}
	sentinel := E(math.Float64frombits(0x7ff8_dead_beef_0001))
	for rows := 1; rows <= 9; rows++ {
		for trial := 0; trial < 8; trial++ {
			var cnt [rowBlock]int
			list := make([]entry[E], rows*k)
			for r := 0; r < rows; r++ {
				cnt[r] = []int{0, 1, k, rng.Intn(k + 1)}[rng.Intn(4)]
				if trial == 0 {
					cnt[r] = []int{k, 1, 0, k, 5, k, 2, 0, k}[r]
				}
				for i := range k {
					list[r*k+i] = entry[E]{int32(rng.Intn(k)), E(rng.NormFloat64())}
				}
			}
			for _, stride := range strides {
				for _, relu := range []bool{false, true} {
					size := (rows-1)*stride + 2*w + guard
					got, want := slices.Repeat([]E{sentinel}, size), slices.Repeat([]E{sentinel}, size)
					pair(got, stride, pw, &bias, list, k, &cnt, rows, relu)
					sweepPairGo(want, stride, pw, &bias, list, k, &cnt, rows, relu, biasFirst)
					for i := range want {
						if g, x := math.Float64bits(float64(got[i])), math.Float64bits(float64(want[i])); g != x {
							t.Fatalf("%d rows, counts %v, stride %d, relu %t: element %d (row %d, column %d) = %#x, want %#x",
								rows, cnt[:rows], stride, relu, i, i/stride, i%stride, g, x)
						}
					}
				}
			}
		}
	}
}

// checkPairedRows runs rows m of 1 to 9 and 37 (a block and a part)
// of an [m, 9] x [9, n] product, with w-column panels, over panel
// ranges from 0 and from 1, and holds the stored panels to the row
// loop's answer with ReLU fused and every other element of a
// sentinel-filled buffer untouched. product builds an m-row product
// and returns its answer and a call of packed.rows on its panels
// [q0, q1).
func checkPairedRows[E float](t *testing.T, n, w int,
	product func(rng *rand.Rand, m, k int) (want []E, rows func(dst []E, q0, q1 int))) {
	t.Helper()
	const k, guard = 9, 40
	panels := (n + w - 1) / w
	sentinel := E(math.Float64frombits(0x7ff8_dead_beef_0001))
	rng := rand.New(rand.NewSource(int64(n)))
	for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 37} {
		want, rows := product(rng, m, k)
		for _, qq := range [][2]int{{0, panels}, {1, panels}, {0, panels - 1}, {1, panels - 1}} {
			q0, q1 := qq[0], qq[1]
			if q0 >= q1 {
				continue
			}
			buf := slices.Repeat([]E{sentinel}, guard+m*n+guard)
			rows(buf[guard:guard+m*n], q0, q1)
			for i, got := range buf {
				e := i - guard
				j := e % n
				in := e >= 0 && e < m*n && j >= q0*w && j < q1*w
				wantBits := math.Float64bits(float64(sentinel))
				if in {
					wantBits = math.Float64bits(float64(want[e]))
				}
				if g := math.Float64bits(float64(got)); g != wantBits {
					t.Fatalf("[%d %d %d] panels [%d,%d): buf[%d] (element %d, in range %t) = %#x, want %#x",
						m, k, n, q0, q1, i, e, in, g, wantBits)
				}
			}
		}
	}
}

// TestSweepF64PairOperandOrder is TestSweepF64AVXOperandOrder for the
// f64 pair sweep, with each panel's own NaN payloads: each product must
// be weight * value and each sum acc + product, in the loop a group's
// rows share and in the loop a row finishes alone, in both panels.
func TestSweepF64PairOperandOrder(t *testing.T) {
	forSweeps(t, &f64Sweep, func(t *testing.T) {
		if f64Sweep == sweepPortable {
			t.Skip("the portable sweep's NaN payloads are the compiler's choice")
		}
		nan := func(payload uint64) float64 { return math.Float64frombits(0x7ff8_0000_0000_0000 | payload) }
		for _, c := range []struct {
			name    string
			bias, w [2]float64 // per panel
			v       float64
			want    [2]float64
		}{
			{"weight*value", [2]float64{1, 1}, [2]float64{nan(2), nan(4)}, nan(3), [2]float64{nan(2), nan(4)}},
			{"acc+product", [2]float64{nan(1), nan(5)}, [2]float64{nan(2), nan(4)}, nan(3), [2]float64{nan(1), nan(5)}},
		} {
			var bias [2][panelWidth]float64
			const k = 2
			pw := make([][panelWidth]float64, 2*k) // rows 1 and k+1 stay zero
			for p := range 2 {
				for j := range panelWidth {
					bias[p][j], pw[p*k][j] = c.bias[p], c.w[p]
				}
			}
			for _, rows := range []int{1, 2, 3, 4, 5, 8} {
				// Rows B and D of the first four-row group, and A and C
				// of the second, first add 1 * the zero panel rows 1,
				// which leaves the accs as they are, so they reach the
				// NaN entry alone, after the group's shared count.
				var cnt [f64RowBlock]int
				list := make([]f64Entry, rows*k)
				for r := 0; r < rows; r++ {
					rl := []f64Entry{{0, c.v}}
					if (r+r/4)%2 == 1 {
						rl = []f64Entry{{1, 1}, {0, c.v}}
					}
					cnt[r] = copy(list[r*k:], rl)
				}
				out := make([]float64, rows*2*panelWidth)
				sweepF64Pair(out, 2*panelWidth, pw, &bias, list, k, &cnt, rows, false)
				for i, got := range out {
					if want := c.want[i/panelWidth%2]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s, %d rows: row %d panel %d lane %d = %#x, want %#x", c.name, rows, i/(2*panelWidth),
							i/panelWidth%2, i%panelWidth, math.Float64bits(got), math.Float64bits(want))
					}
				}
			}
		}
	})
}

// TestSweepF32PairOperandOrder is TestSweepF32AVXOperandOrder for the
// f32 pair sweep, with each panel's own NaN payloads: each product must
// be weight * value, each sum acc + product, and each panel's bias
// added as sum + bias, in the shared loop and the lone one.
func TestSweepF32PairOperandOrder(t *testing.T) {
	forSweeps(t, &f32Sweep, func(t *testing.T) {
		if f32Sweep == sweepPortable {
			t.Skip("the portable sweep's NaN payloads are the compiler's choice")
		}
		nan := func(payload uint32) float32 { return math.Float32frombits(0x7fc0_0000 | payload) }
		for _, c := range []struct {
			name    string
			bias, w [2]float32 // per panel
			v, u    float32    // u is a second entry's value, 0 for none
			want    [2]float32
		}{
			{"weight*value", [2]float32{1, 1}, [2]float32{nan(2), nan(4)}, nan(3), 0, [2]float32{nan(2), nan(4)}},
			{"sum+bias", [2]float32{nan(1), nan(5)}, [2]float32{nan(2), nan(4)}, nan(3), 0, [2]float32{nan(2), nan(4)}},
			{"acc+product", [2]float32{0, 0}, [2]float32{nan(2), nan(4)}, 1, nan(3), [2]float32{nan(2), nan(4)}},
		} {
			var bias [2][f32PanelWidth]float32
			const k = 3
			// Panel row 0 holds the weights, row 1 ones (the second
			// entry multiplies them by nan(3) into an acc that already
			// holds a NaN), row 2 zeros.
			pw := make([][f32PanelWidth]float32, 2*k)
			for p := range 2 {
				for j := range f32PanelWidth {
					bias[p][j], pw[p*k][j], pw[p*k+1][j] = c.bias[p], c.w[p], 1
				}
			}
			entries := []f32Entry{{0, c.v}}
			if c.u != 0 {
				entries = append(entries, f32Entry{1, c.u})
			}
			for _, rows := range []int{1, 2, 3, 4, 5, 8} {
				// As in TestSweepF32AVXOperandOrder, rows B and D of the
				// first group and A and C of the second first add 1 *
				// the zero panel rows 2, so they reach the NaN entries
				// alone.
				var cnt [f32RowBlock]int
				list := make([]f32Entry, rows*k)
				for r := 0; r < rows; r++ {
					rl := entries
					if (r+r/4)%2 == 1 {
						rl = append([]f32Entry{{2, 1}}, entries...)
					}
					cnt[r] = copy(list[r*k:], rl)
				}
				out := make([]float32, rows*2*f32PanelWidth)
				sweepF32Pair(out, 2*f32PanelWidth, pw, &bias, list, k, &cnt, rows, false)
				for i, got := range out {
					if want := c.want[i/f32PanelWidth%2]; math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("%s, %d rows: row %d panel %d lane %d = %#x, want %#x", c.name, rows, i/(2*f32PanelWidth),
							i/f32PanelWidth%2, i%f32PanelWidth, math.Float32bits(got), math.Float32bits(want))
					}
				}
			}
		}
	})
}

// TestBlockListersMatchRows holds each level's f64 and f32 block lister
// to listRows on blocks of 1 to 32 rows of 0 to 70 activations, mixing
// ±0, NaN, ±Inf and ordinary values: every row's count and entries,
// value bits included, written over junk. Each block's list is the
// front of a longer buffer whose junk past rows*k must come back
// untouched, as must the counts past the block's rows.
func TestBlockListersMatchRows(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	vals := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0xfff4_0000_0000_0002),
		math.Inf(1), math.Inf(-1), -1.5, 2, 0, 0}
	type block struct {
		k, rows int
		a64     []float64
		a32     []float32
	}
	var blocks []block
	for _, k := range []int{0, 1, 3, 7, 8, 9, 15, 16, 17, 32, 64, 70} {
		for _, rows := range []int{1, 2, 5, 31, 32} {
			b := block{k, rows, make([]float64, k*rows), make([]float32, k*rows)}
			for i := range b.a64 {
				b.a64[i] = vals[rng.Intn(len(vals))]
				b.a32[i] = float32(b.a64[i])
			}
			blocks = append(blocks, b)
		}
	}
	t.Run("f64", func(t *testing.T) {
		forSweeps(t, &f64Sweep, func(t *testing.T) {
			for _, b := range blocks {
				checkBlockLister(t, listF64Rows, b.a64, b.k, b.rows)
			}
		})
	})
	t.Run("f32", func(t *testing.T) {
		forSweeps(t, &f32Sweep, func(t *testing.T) {
			for _, b := range blocks {
				checkBlockLister(t, listF32Rows, b.a32, b.k, b.rows)
			}
		})
	})
}

// checkBlockLister runs one block through lister and listRows and
// compares them as TestBlockListersMatchRows says.
func checkBlockLister[E float](t *testing.T, lister func([]entry[E], []E, int, int, *[rowBlock]int), a []E, k, rows int) {
	t.Helper()
	got, want := junkList[E](rows*k+listGuard), junkList[E](rows*k)
	var gotCnt, wantCnt [rowBlock]int
	for r := range gotCnt {
		gotCnt[r], wantCnt[r] = -1, -1
	}
	lister(got[:rows*k], a, k, rows, &gotCnt)
	listRows(want, a, k, rows, &wantCnt)
	if gotCnt != wantCnt {
		t.Fatalf("k %d, %d rows: counts %v, want %v", k, rows, gotCnt, wantCnt)
	}
	for r := range rows {
		g, w := got[r*k:][:gotCnt[r]], want[r*k:][:wantCnt[r]]
		if !sameEntries(g, w) {
			t.Fatalf("k %d, %d rows: row %d listed %v, want %v", k, rows, r, g, w)
		}
	}
	if past := got[rows*k:]; !sameEntries(past, junkList[E](listGuard)) {
		t.Fatalf("k %d, %d rows: stored past the block's lists: %v", k, rows, past)
	}
}

// BenchmarkBlockListers times each level's f64 and f32 block lister on
// a 32-row block of BenchmarkListers' half-zero ReLU rows. ns/row is
// one row of the block, to set beside BenchmarkListers' one-row calls.
func BenchmarkBlockListers(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{3, 32, 64, 512} {
		a64, a32 := make([]float64, rowBlock*k), make([]float32, rowBlock*k)
		for i := range a64 {
			if rng.Intn(2) == 0 {
				a64[i] = 0.5 + rng.Float64()
				a32[i] = float32(a64[i])
			}
		}
		benchBlockLister(b, fmt.Sprintf("f64/%d", k), &f64Sweep, listF64Rows, a64, k)
		benchBlockLister(b, fmt.Sprintf("f32/%d", k), &f32Sweep, listF32Rows, a32, k)
	}
}

// benchBlockLister runs one block lister on a at each level from
// *level down.
func benchBlockLister[E float](b *testing.B, name string, level *sweepLevel,
	lister func([]entry[E], []E, int, int, *[rowBlock]int), a []E, k int) {
	defer func(saved sweepLevel) { *level = saved }(*level)
	list := make([]entry[E], len(a))
	var cnt [rowBlock]int
	for _, l := range sweeps(*level) {
		b.Run(fmt.Sprintf("%s/%v", name, l), func(b *testing.B) {
			*level = l
			for b.Loop() {
				lister(list, a, k, rowBlock, &cnt)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rowBlock), "ns/row")
		})
	}
}
