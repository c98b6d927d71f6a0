//go:build !amd64

package tensor

// f64Vector is false off amd64: sweepF64Go is the only sweep.
var f64Vector = false

func sweepF64(acc *[f64RowBlock][panelWidth]float64, pw [][panelWidth]float64, bias *[panelWidth]float64,
	list []f64Entry, k int, cnt *[f64RowBlock]int, rows int) {
	sweepF64Go(acc, pw, bias, list, k, cnt, rows)
}
