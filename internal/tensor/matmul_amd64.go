package tensor

import (
	"unsafe"

	"repro/internal/cpu"
)

// vectorLevel is the widest sweep the CPU and the OS support: 512-bit
// with AVX-512, 256-bit with AVX.
func vectorLevel() sweepLevel {
	switch {
	case cpu.AVX512:
		return sweepAVX512
	case cpu.AVX:
		return sweepAVX
	}
	return sweepPortable
}

// f64Sweep selects the f64 row kernel's sweeps and lister:
// sweepF64AVX512x2, sweepF64AVX512 and listF64AVX512, sweepF64AVX and
// listF64Asm, or sweepGo and listNonzero. It is set once, from the
// CPU, and tests lower it to run each level below.
var f64Sweep = vectorLevel()

// listF64Rows is listRows over listNonzero, run a block at a time by
// listF64AVX512 under the 512-bit sweep and a row at a time by
// listF64Asm under the 256-bit one.
func listF64Rows(list []f64Entry, a []float64, k, rows int, cnt *[rowBlock]int) {
	// The assembly writes list[:rows*k] and cnt[:rows] and reads
	// a[:rows*k].
	list, a, _ = list[:rows*k], a[:rows*k], cnt[:rows]
	switch f64Sweep {
	case sweepAVX512:
		listF64AVX512(unsafe.SliceData(list), unsafe.SliceData(a), k, rows, &cnt[0])
	case sweepAVX:
		for r := range rows {
			cnt[r] = listF64Asm(unsafe.SliceData(list[r*k:]), unsafe.SliceData(a[r*k:]), k)
		}
	default:
		listRows(list, a, k, rows, cnt)
	}
}

// sweepF64 is sweepGo's contract with the bias first, run by
// sweepF64AVX512 or sweepF64AVX when the CPU and the OS support them.
func sweepF64(out []float64, stride int, pw [][panelWidth]float64, bias *[panelWidth]float64,
	list []f64Entry, k int, cnt *[rowBlock]int, rows int, relu bool) {
	if f64Sweep == sweepPortable {
		sweepGo(out, stride, pw, bias, list, k, cnt, rows, relu, true)
		return
	}
	// The assembly writes out[r*stride:][:8] and reads
	// list[r*k:][:cnt[r]] for r < rows, and the panel rows those
	// entries index, all below k.
	out, list, pw = out[:(rows-1)*stride+panelWidth], list[:rows*k], pw[:k]
	r4 := 0
	if f64Sweep == sweepAVX512 {
		// Four rows at a time; the last one to three take the 256-bit
		// sweep's pairs, which keep as many adds in flight.
		if r4 = rows &^ 3; r4 > 0 {
			sweepF64AVX512(unsafe.SliceData(out), stride, unsafe.SliceData(pw), bias, unsafe.SliceData(list), k, &cnt[0], r4, relu)
		}
	}
	if r4 < rows {
		sweepF64AVX(unsafe.SliceData(out[r4*stride:]), stride, unsafe.SliceData(pw), bias, unsafe.SliceData(list[r4*k:]), k, &cnt[r4], rows-r4, relu)
	}
}

// sweepF64Pair is sweepF64 on two adjacent full panels, pw[:k] and
// pw[k:2k] with biases bias[0] and bias[1], whose outputs sit side by
// side at out[r*stride:][:16]. Under the 512-bit sweep
// sweepF64AVX512x2 runs each list once over both panels, four rows at
// a time; the block's last one to three rows take sweepF64AVX on each
// panel. Below it, the pair is two sweepF64 calls.
func sweepF64Pair(out []float64, stride int, pw [][panelWidth]float64, bias *[2][panelWidth]float64,
	list []f64Entry, k int, cnt *[rowBlock]int, rows int, relu bool) {
	if f64Sweep != sweepAVX512 {
		sweepF64(out, stride, pw[:k], &bias[0], list, k, cnt, rows, relu)
		sweepF64(out[panelWidth:], stride, pw[k:2*k], &bias[1], list, k, cnt, rows, relu)
		return
	}
	// The assembly writes out[r*stride:][:16] and reads
	// list[r*k:][:cnt[r]] for r < rows, and the rows of both panels
	// those entries index, all below k.
	out, list, pw = out[:(rows-1)*stride+2*panelWidth], list[:rows*k], pw[:2*k]
	r4 := rows &^ 3
	if r4 > 0 {
		sweepF64AVX512x2(unsafe.SliceData(out), stride, unsafe.SliceData(pw), &bias[0], unsafe.SliceData(list), k, &cnt[0], r4, relu)
	}
	if r4 < rows {
		for c := range 2 {
			sweepF64AVX(unsafe.SliceData(out[r4*stride+c*panelWidth:]), stride, unsafe.SliceData(pw[c*k:]), &bias[c],
				unsafe.SliceData(list[r4*k:]), k, &cnt[r4], rows-r4, relu)
		}
	}
}

// f32Sweep selects the f32 row kernel's sweeps and lister:
// sweepF32AVX512x2, sweepF32AVX512 and listF32AVX512, sweepF32AVX and
// listF32Asm, or sweepGo and listNonzero. It is set once, from the
// CPU, and tests lower it to run each level below.
var f32Sweep = vectorLevel()

// listF32Rows is listRows over listNonzero, run a block at a time by
// listF32AVX512 under the 512-bit sweep and a row at a time by
// listF32Asm under the 256-bit one.
func listF32Rows(list []f32Entry, a []float32, k, rows int, cnt *[rowBlock]int) {
	// The assembly writes list[:rows*k] and cnt[:rows] and reads
	// a[:rows*k].
	list, a, _ = list[:rows*k], a[:rows*k], cnt[:rows]
	switch f32Sweep {
	case sweepAVX512:
		listF32AVX512(unsafe.SliceData(list), unsafe.SliceData(a), k, rows, &cnt[0])
	case sweepAVX:
		for r := range rows {
			cnt[r] = listF32Asm(unsafe.SliceData(list[r*k:]), unsafe.SliceData(a[r*k:]), k)
		}
	default:
		listRows(list, a, k, rows, cnt)
	}
}

// sweepF32 is sweepGo's contract with the bias last, run by
// sweepF32AVX512 or sweepF32AVX when the CPU and the OS support them.
func sweepF32(out []float32, stride int, pw [][f32PanelWidth]float32, bias *[f32PanelWidth]float32,
	list []f32Entry, k int, cnt *[rowBlock]int, rows int, relu bool) {
	if f32Sweep == sweepPortable {
		sweepGo(out, stride, pw, bias, list, k, cnt, rows, relu, false)
		return
	}
	// The assembly writes out[r*stride:][:16] and reads
	// list[r*k:][:cnt[r]] for r < rows, and the panel rows those
	// entries index, all below k.
	out, list, pw = out[:(rows-1)*stride+f32PanelWidth], list[:rows*k], pw[:k]
	r4 := 0
	if f32Sweep == sweepAVX512 {
		// Four rows at a time; the last one to three take the 256-bit
		// sweep's pairs, which keep as many adds in flight.
		if r4 = rows &^ 3; r4 > 0 {
			sweepF32AVX512(unsafe.SliceData(out), stride, unsafe.SliceData(pw), bias, unsafe.SliceData(list), k, &cnt[0], r4, relu)
		}
	}
	if r4 < rows {
		sweepF32AVX(unsafe.SliceData(out[r4*stride:]), stride, unsafe.SliceData(pw), bias, unsafe.SliceData(list[r4*k:]), k, &cnt[r4], rows-r4, relu)
	}
}

// sweepF32Pair is sweepF32 on two adjacent full panels, pw[:k] and
// pw[k:2k] with biases bias[0] and bias[1], whose outputs sit side by
// side at out[r*stride:][:32]. Under the 512-bit sweep
// sweepF32AVX512x2 runs each list once over both panels, four rows at
// a time; the block's last one to three rows take sweepF32AVX on each
// panel. Below it, the pair is two sweepF32 calls.
func sweepF32Pair(out []float32, stride int, pw [][f32PanelWidth]float32, bias *[2][f32PanelWidth]float32,
	list []f32Entry, k int, cnt *[rowBlock]int, rows int, relu bool) {
	if f32Sweep != sweepAVX512 {
		sweepF32(out, stride, pw[:k], &bias[0], list, k, cnt, rows, relu)
		sweepF32(out[f32PanelWidth:], stride, pw[k:2*k], &bias[1], list, k, cnt, rows, relu)
		return
	}
	// The assembly writes out[r*stride:][:32] and reads
	// list[r*k:][:cnt[r]] for r < rows, and the rows of both panels
	// those entries index, all below k.
	out, list, pw = out[:(rows-1)*stride+2*f32PanelWidth], list[:rows*k], pw[:2*k]
	r4 := rows &^ 3
	if r4 > 0 {
		sweepF32AVX512x2(unsafe.SliceData(out), stride, unsafe.SliceData(pw), &bias[0], unsafe.SliceData(list), k, &cnt[0], r4, relu)
	}
	if r4 < rows {
		for c := range 2 {
			sweepF32AVX(unsafe.SliceData(out[r4*stride+c*f32PanelWidth:]), stride, unsafe.SliceData(pw[c*k:]), &bias[c],
				unsafe.SliceData(list[r4*k:]), k, &cnt[r4], rows-r4, relu)
		}
	}
}

// i8Sweep selects listPairsAsm and sweepI8AVX2 (sweepAVX) or
// listPairsGo and sweepI8Go (sweepPortable) for the int8 row kernel. It
// is set once, from the CPU, and tests lower it to run the portable
// lister and sweep.
var i8Sweep = i8Level()

// i8Level is the int8 kernel's widest sweep: 256-bit with AVX2.
func i8Level() sweepLevel {
	if cpu.AVX2 {
		return sweepAVX
	}
	return sweepPortable
}

// listEvenPairs is listPairsGo, run by listPairsAsm under the vector
// sweep.
func listEvenPairs(list []i8Entry, even []int8, c int32) int {
	if i8Sweep != sweepPortable {
		// The assembly writes list[:len(even)/2] and reads even.
		pairs := len(even) / 2
		return listPairsAsm(unsafe.SliceData(list[:pairs]), unsafe.SliceData(even), pairs, c)
	}
	return listPairsGo(list, even, c)
}

// sweepI8 is sweepI8Go's contract, run by sweepI8AVX2 when the CPU has
// AVX2 and the OS saves the YMM registers.
func sweepI8(out []int32, stride int, pw []i8PanelRow, base *[i8PanelWidth]int32,
	list []i8Entry, pairs int, cnt *[i8RowBlock]int, rows int) {
	if i8Sweep != sweepPortable {
		// The assembly writes out[r*stride:][:16] and reads
		// list[r*pairs:][:cnt[r]] for r < rows, and the panel rows those
		// entries index, all below pairs.
		out, list, pw = out[:(rows-1)*stride+i8PanelWidth], list[:rows*pairs], pw[:pairs]
		sweepI8AVX2(unsafe.SliceData(out), stride, unsafe.SliceData(pw), base, unsafe.SliceData(list), pairs, cnt, rows)
		return
	}
	sweepI8Go(out, stride, pw, base, list, pairs, cnt, rows)
}

// listF64Asm, listF32Asm and listPairsAsm are listNonzero's and
// listPairsGo's loops in assembly, where PCALIGN keeps each loop head
// on a 64-byte boundary wherever the linker places the function.
//
//go:noescape
func listF64Asm(list *f64Entry, a *float64, n int) int

//go:noescape
func listF32Asm(list *f32Entry, a *float32, n int) int

//go:noescape
func listPairsAsm(list *i8Entry, a *int8, pairs int, c int32) int

// listF64AVX512 and listF32AVX512 are listF64Asm and listF32Asm over a
// block of rows, eight or sixteen activations a step in 512-bit
// registers: row r lists a[r*k:][:k] into list[r*k:][:k] and stores its
// count at cnt[r], so the call and the vector setup are paid once per
// block. Each step compresses the nonzero lanes' values and indices to
// the front, interleaves them into entries and stores a whole vector of
// entries, of which the list keeps the nonzero ones. The stores stay
// inside each row's list and the entries kept are listNonzero's, bit
// for bit.
//
//go:noescape
func listF64AVX512(list *f64Entry, a *float64, k, rows int, cnt *int)

//go:noescape
func listF32AVX512(list *f32Entry, a *float32, k, rows int, cnt *int)

// sweepF64AVX is sweepGo with the bias first, in 256-bit registers: the
// f64 kernel's sweep on CPUs with AVX but not AVX-512. Each listed
// activation is broadcast once; the two 4-lane halves of its panel row
// are multiplied by it and added into two accumulators, with the scalar
// loop's operands in the scalar loop's order (weight * value, then
// acc + product) and no FMA, so every lane rounds exactly as the
// portable sweep does. Rows run two at a time to hide the add latency.
// With relu set, each accumulator goes through VMAXPD against +0 as
// the second source, which x86 returns for NaN and for two zeros, so
// ±0, NaN and negatives all become +0, as relu does. A row's two
// halves are then stored straight at out + r*stride.
//
//go:noescape
func sweepF64AVX(out *float64, stride int, pw *[panelWidth]float64, bias *[panelWidth]float64,
	list *f64Entry, k int, cnt *int, rows int, relu bool)

// sweepF64AVX512 is sweepF64AVX in 512-bit registers, for a row count
// that is a multiple of four: a row's eight outputs are one
// accumulator, and rows run four at a time, so four add chains are in
// flight. The four lists run together for as many entries as the
// shortest has, then each row finishes alone. Each
// product is still weight * value and each sum acc + product, with no
// FMA, and relu is still VMAXPD against +0, so every lane's bits are
// the portable sweep's.
//
//go:noescape
func sweepF64AVX512(out *float64, stride int, pw *[panelWidth]float64, bias *[panelWidth]float64,
	list *f64Entry, k int, cnt *int, rows int, relu bool)

// sweepF64AVX512x2 is sweepF64AVX512 over two adjacent panels in one
// pass: pw and bias are the first panel's, the second panel's rows
// follow at pw[k:] and its bias at bias[1], and row r's sixteen outputs
// are stored at out + r*stride. Each row keeps two accumulators, one
// per panel, so each of a four-row step's entries loads its index and
// broadcasts its value once for two panel rows. Each product is still
// weight * value and each sum acc + product, with no FMA, and relu is
// still VMAXPD against +0, so every lane's bits are those of a
// sweepF64AVX512 call per panel.
//
//go:noescape
func sweepF64AVX512x2(out *float64, stride int, pw *[panelWidth]float64, bias *[panelWidth]float64,
	list *f64Entry, k int, cnt *int, rows int, relu bool)

// sweepF32AVX is sweepGo with the bias last, in 256-bit registers: the
// f32 kernel's sweep on CPUs with AVX but not AVX-512, and
// sweepI8AVX2's loop over float32 panel rows. Each listed activation is
// broadcast once; the two 8-lane halves of its panel row are multiplied
// by it and added into two accumulators that start at +0, with the
// scalar loop's operands in the scalar loop's order (weight * value,
// then acc + product) and no FMA, so every lane rounds exactly as the
// portable sweep does. The bias is added last (acc + bias). With relu
// set, each sum then goes through VMAXPS against +0 as the second
// source, as sweepF64AVX does, and a row's two halves are stored
// straight at out + r*stride. Rows run two at a time.
//
//go:noescape
func sweepF32AVX(out *float32, stride int, pw *[f32PanelWidth]float32, bias *[f32PanelWidth]float32,
	list *f32Entry, k int, cnt *int, rows int, relu bool)

// sweepF32AVX512 is sweepF32AVX in 512-bit registers, rows four at a
// time and a multiple of four of them, as sweepF64AVX512 is sweepF64AVX: a row's sixteen outputs are
// one accumulator starting at +0, the bias is added last and relu is
// VMAXPS against +0, so every lane's bits are the portable sweep's.
//
//go:noescape
func sweepF32AVX512(out *float32, stride int, pw *[f32PanelWidth]float32, bias *[f32PanelWidth]float32,
	list *f32Entry, k int, cnt *int, rows int, relu bool)

// sweepF32AVX512x2 is sweepF64AVX512x2's pairing in sweepF32AVX512's
// arithmetic: both accumulators of a row start at +0, each panel's bias
// is added after the row's list, and relu is VMAXPS against +0, so
// every lane's bits are those of a sweepF32AVX512 call per panel.
//
//go:noescape
func sweepF32AVX512x2(out *float32, stride int, pw *[f32PanelWidth]float32, bias *[f32PanelWidth]float32,
	list *f32Entry, k int, cnt *int, rows int, relu bool)

// sweepI8AVX2 is sweepI8Go in 256-bit registers. Each listed entry's
// dword, its two centred codes, is broadcast once; VPMADDWD multiplies
// it into the two 8-column halves of its panel row, each int32 lane
// receiving code0 * w[2p][j] + code1 * w[2p+1][j], and VPADDD adds the
// halves into two accumulators. Integer sums are exact, so every lane
// equals the portable sweep's. Rows run two at a time, four add chains
// in flight.
//
//go:noescape
func sweepI8AVX2(out *int32, stride int, pw *i8PanelRow, base *[i8PanelWidth]int32,
	list *i8Entry, pairs int, cnt *[i8RowBlock]int, rows int)
