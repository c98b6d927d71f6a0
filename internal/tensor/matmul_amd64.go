package tensor

import (
	"unsafe"

	"repro/internal/cpu"
)

// f64Vector selects listF64Asm and sweepF64AVX for the f64 row kernel.
// It is set once, from the CPU, and tests clear it to run the portable
// lister and sweep.
var f64Vector = cpu.AVX

// listF64 is listNonzero, run by listF64Asm under the vector sweep.
func listF64(list []f64Entry, a []float64) int {
	if f64Vector {
		// The assembly writes list[:len(a)] and reads a.
		return listF64Asm(unsafe.SliceData(list[:len(a)]), unsafe.SliceData(a), len(a))
	}
	return listNonzero(list, a)
}

// sweepF64 is sweepGo's contract with the bias first, run by
// sweepF64AVX when the CPU and the OS support 256-bit AVX.
func sweepF64(out []float64, stride int, pw [][panelWidth]float64, bias *[panelWidth]float64,
	list []f64Entry, k int, cnt *[rowBlock]int, rows int, relu bool) {
	if f64Vector {
		// The assembly writes out[r*stride:][:8] and reads
		// list[r*k:][:cnt[r]] for r < rows, and the panel rows those
		// entries index, all below k.
		out, list, pw = out[:(rows-1)*stride+panelWidth], list[:rows*k], pw[:k]
		sweepF64AVX(unsafe.SliceData(out), stride, unsafe.SliceData(pw), bias, unsafe.SliceData(list), k, cnt, rows, relu)
		return
	}
	sweepGo(out, stride, pw, bias, list, k, cnt, rows, relu, true)
}

// f32Vector selects listF32Asm and sweepF32AVX for the f32 row kernel.
// It is set once, from the CPU, and tests clear it to run the portable
// lister and sweep.
var f32Vector = cpu.AVX

// listF32 is listNonzero, run by listF32Asm under the vector sweep.
func listF32(list []f32Entry, a []float32) int {
	if f32Vector {
		// The assembly writes list[:len(a)] and reads a.
		return listF32Asm(unsafe.SliceData(list[:len(a)]), unsafe.SliceData(a), len(a))
	}
	return listNonzero(list, a)
}

// sweepF32 is sweepGo's contract with the bias last, run by
// sweepF32AVX when the CPU and the OS support 256-bit AVX.
func sweepF32(out []float32, stride int, pw [][f32PanelWidth]float32, bias *[f32PanelWidth]float32,
	list []f32Entry, k int, cnt *[rowBlock]int, rows int, relu bool) {
	if f32Vector {
		// The assembly writes out[r*stride:][:16] and reads
		// list[r*k:][:cnt[r]] for r < rows, and the panel rows those
		// entries index, all below k.
		out, list, pw = out[:(rows-1)*stride+f32PanelWidth], list[:rows*k], pw[:k]
		sweepF32AVX(unsafe.SliceData(out), stride, unsafe.SliceData(pw), bias, unsafe.SliceData(list), k, cnt, rows, relu)
		return
	}
	sweepGo(out, stride, pw, bias, list, k, cnt, rows, relu, false)
}

// i8Vector selects listPairsAsm and sweepI8AVX2 for the int8 row
// kernel. It is set once, from the CPU, and tests clear it to run the
// portable lister and sweep.
var i8Vector = cpu.AVX2

// listEvenPairs is listPairsGo, run by listPairsAsm under the vector
// sweep.
func listEvenPairs(list []i8Entry, even []int8, c int32) int {
	if i8Vector {
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
	if i8Vector {
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

// sweepF64AVX is sweepGo with the bias first, in 256-bit registers.
// Each listed activation is broadcast once; the two 4-lane halves of
// its panel row are multiplied by it and added into two accumulators,
// with the scalar loop's operands in the scalar loop's order
// (weight * value, then acc + product) and no FMA, so every lane
// rounds exactly as the portable sweep does. Rows run two at a time to hide the add latency.
// With relu set, each accumulator goes through VMAXPD against +0 as
// the second source, which x86 returns for NaN and for two zeros, so
// ±0, NaN and negatives all become +0, as relu does. A row's two
// halves are then stored straight at out + r*stride.
//
//go:noescape
func sweepF64AVX(out *float64, stride int, pw *[panelWidth]float64, bias *[panelWidth]float64,
	list *f64Entry, k int, cnt *[rowBlock]int, rows int, relu bool)

// sweepF32AVX is sweepGo with the bias last, in 256-bit registers:
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
	list *f32Entry, k int, cnt *[rowBlock]int, rows int, relu bool)

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
