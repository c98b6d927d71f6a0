//go:build !amd64

package tensor

// f64Vector and i8Vector are false off amd64: sweepF64Go and sweepI8Go
// are the only sweeps.
var f64Vector, i8Vector = false, false

func sweepF64(acc *[f64RowBlock][panelWidth]float64, pw [][panelWidth]float64, bias *[panelWidth]float64,
	list []f64Entry, k int, cnt *[f64RowBlock]int, rows int) {
	sweepF64Go(acc, pw, bias, list, k, cnt, rows)
}

func sweepI8(out []int32, stride int, pw []i8PanelRow, base *[i8PanelWidth]int32,
	list []i8Entry, pairs int, cnt *[i8RowBlock]int, rows int) {
	sweepI8Go(out, stride, pw, base, list, pairs, cnt, rows)
}
