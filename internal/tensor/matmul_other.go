//go:build !amd64

package tensor

// f64Vector, f32Vector and i8Vector are false off amd64: sweepF64Go,
// sweepF32Go and sweepI8Go are the only sweeps.
var f64Vector, f32Vector, i8Vector = false, false, false

func sweepF64(out []float64, stride int, pw [][panelWidth]float64, bias *[panelWidth]float64,
	list []f64Entry, k int, cnt *[f64RowBlock]int, rows int, relu bool) {
	sweepF64Go(out, stride, pw, bias, list, k, cnt, rows, relu)
}

func sweepF32(out []float32, stride int, pw [][f32PanelWidth]float32, bias *[f32PanelWidth]float32,
	list []f32Entry, k int, cnt *[f32RowBlock]int, rows int, relu bool) {
	sweepF32Go(out, stride, pw, bias, list, k, cnt, rows, relu)
}

func sweepI8(out []int32, stride int, pw []i8PanelRow, base *[i8PanelWidth]int32,
	list []i8Entry, pairs int, cnt *[i8RowBlock]int, rows int) {
	sweepI8Go(out, stride, pw, base, list, pairs, cnt, rows)
}
