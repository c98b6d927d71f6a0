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

// cpuAVX reports whether the CPU has AVX and the OS saves the YMM
// registers (CPUID.1:ECX OSXSAVE and AVX, XCR0 bits 1 and 2).
func cpuAVX() bool

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
