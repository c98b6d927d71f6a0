package tensor

import "unsafe"

// f64Vector selects sweepF64AVX for the f64 row kernel. It is set once,
// from the CPU, and tests clear it to run the portable sweep.
var f64Vector = cpuAVX()

// sweepF64 is sweepF64Go's contract, run by sweepF64AVX when the CPU
// and the OS support 256-bit AVX.
func sweepF64(acc *[f64RowBlock][panelWidth]float64, pw [][panelWidth]float64, bias *[panelWidth]float64,
	list []f64Entry, k int, cnt *[f64RowBlock]int, rows int) {
	if f64Vector {
		// The assembly reads list[r*k:][:cnt[r]] for r < rows and the
		// panel rows those entries index, all below k.
		list, pw = list[:rows*k], pw[:k]
		sweepF64AVX(acc, unsafe.SliceData(pw), bias, unsafe.SliceData(list), k, cnt, rows)
		return
	}
	sweepF64Go(acc, pw, bias, list, k, cnt, rows)
}

// i8Vector selects sweepI8AVX2 for the int8 row kernel. It is set
// once, from the CPU, and tests clear it to run the portable sweep.
var i8Vector = cpuAVX() && cpuidLeaf7EBX()&(1<<5) != 0

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

// cpuAVX reports whether the CPU has AVX and the OS saves the YMM
// registers (CPUID.1:ECX OSXSAVE and AVX, XCR0 bits 1 and 2).
func cpuAVX() bool

// cpuidLeaf7EBX returns CPUID leaf 7 (subleaf 0) EBX, the structured
// extended feature flags (bit 5 is AVX2), or 0 when the CPU has no
// leaf 7.
func cpuidLeaf7EBX() uint32

// sweepF64AVX is sweepF64Go in 256-bit registers. Each listed
// activation is broadcast once; the two 4-lane halves of its panel row
// are multiplied by it and added into two accumulators, with the
// scalar loop's operands in the scalar loop's order (weight * value,
// then acc + product) and no FMA, so every lane rounds exactly as the
// portable sweep does. Rows run two at a time to hide the add latency.
//
//go:noescape
func sweepF64AVX(acc *[f64RowBlock][panelWidth]float64, pw *[panelWidth]float64, bias *[panelWidth]float64,
	list *f64Entry, k int, cnt *[f64RowBlock]int, rows int)

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
