//go:build !amd64

package tensor

// f64Sweep, f32Sweep and i8Sweep are sweepPortable off amd64:
// listNonzero, listPairsGo, sweepGo and sweepI8Go are the only listers
// and sweeps.
var f64Sweep, f32Sweep, i8Sweep = sweepPortable, sweepPortable, sweepPortable

func listF64(list []f64Entry, a []float64) int { return listNonzero(list, a) }

func listF32(list []f32Entry, a []float32) int { return listNonzero(list, a) }

func listEvenPairs(list []i8Entry, even []int8, c int32) int { return listPairsGo(list, even, c) }

func sweepF64(out []float64, stride int, pw [][panelWidth]float64, bias *[panelWidth]float64,
	list []f64Entry, k int, cnt *[rowBlock]int, rows int, relu bool) {
	sweepGo(out, stride, pw, bias, list, k, cnt, rows, relu, true)
}

func sweepF32(out []float32, stride int, pw [][f32PanelWidth]float32, bias *[f32PanelWidth]float32,
	list []f32Entry, k int, cnt *[rowBlock]int, rows int, relu bool) {
	sweepGo(out, stride, pw, bias, list, k, cnt, rows, relu, false)
}

func sweepI8(out []int32, stride int, pw []i8PanelRow, base *[i8PanelWidth]int32,
	list []i8Entry, pairs int, cnt *[i8RowBlock]int, rows int) {
	sweepI8Go(out, stride, pw, base, list, pairs, cnt, rows)
}
