package hpacml_test

import (
	"io"
	"math"
	"testing"

	hpacml "repro"
)

// FuzzCheckRow holds Guardrail.CheckRow to four properties over raw
// float64 bits for a feature's bounds, the margin, a second margin and
// the row's value, on every guardrail Encode accepts (finite bounds in
// order, a finite margin of at least 0):
//
//  1. a finite value inside [Lo, Hi] is in-domain at every margin;
//  2. the verdict is monotone in the margin: a value in-domain at one
//     margin is in-domain at every larger one;
//  3. a NaN or ±Inf value is never in-domain;
//  4. the verdict is the one exact arithmetic gives on the widened
//     bounds, Lo - Margin*span <= v <= Hi + Margin*span.
//
// A second feature, always inside its bounds, sits beside the fuzzed
// one, so the verdict is the fuzzed feature's alone. The seeds put
// values on, and one float past, widened bounds that round (0.1 of
// [0, 1] widens Hi to 1.1 exactly, which float64 cannot hold), on
// bounds whose span overflows, and on subnormal spans.
func FuzzCheckRow(f *testing.F) {
	bits := math.Float64bits
	for _, c := range [][5]float64{
		{0, 1, 0.1, 1.1, 0.2},
		{0, 1, 0.1, math.Nextafter(1.1, 2), 0.1},
		{0, 1, 0.1, math.Nextafter(-0.1, -1), 0.5},
		{-1, 1, 0.05, 1.1, 0},
		{-1e308, 1e308, 0.05, 1.1e308, 0.5},
		{-1e308, 1e308, 0.05, -1.7e308, 0},
		{-math.MaxFloat64, math.MaxFloat64, 1, math.MaxFloat64, 0},
		{0, 5e-324, 0.5, 1e-323, 3},
		{2, 2, 0.015625, 2, 0},
		{3, 7.25, 0, 7.25, 1e300},
		{0, 1, 0.1, math.NaN(), 0},
		{0, 1, 0.1, math.Inf(-1), 0},
	} {
		f.Add(bits(c[0]), bits(c[1]), bits(c[2]), bits(c[3]), bits(c[4]))
	}
	f.Fuzz(func(t *testing.T, loBits, hiBits, marginBits, vBits, margin2Bits uint64) {
		lo, hi, margin := math.Float64frombits(loBits), math.Float64frombits(hiBits), math.Float64frombits(marginBits)
		v, margin2 := math.Float64frombits(vBits), math.Float64frombits(margin2Bits)
		g := &hpacml.Guardrail{Lo: []float64{lo, 0}, Hi: []float64{hi, 1}, Margin: margin}
		if g.Encode(io.Discard) != nil {
			return // not a guardrail: DecodeGuardrail refuses it too
		}
		finite := !math.IsNaN(v) && !math.IsInf(v, 0)
		in := g.CheckRow([]float64{v, 0.5})
		if !finite {
			if in {
				t.Fatalf("[%g, %g] margin %g: CheckRow(%g) is in-domain", lo, hi, margin, v)
			}
			return
		}
		if lo <= v && v <= hi && !in {
			t.Fatalf("[%g, %g] margin %g: CheckRow(%g) is out of domain, inside the bounds", lo, hi, margin, v)
		}
		if exact, _ := exactlyInside(g, 0, v); in != exact {
			t.Fatalf("[%g, %g] margin %g: CheckRow(%g) = %t, exact arithmetic says %t", lo, hi, margin, v, in, exact)
		}
		if math.IsNaN(margin2) || math.IsInf(margin2, 0) || margin2 < 0 {
			return
		}
		g2 := &hpacml.Guardrail{Lo: g.Lo, Hi: g.Hi, Margin: margin2}
		in2 := g2.CheckRow([]float64{v, 0.5})
		if margin <= margin2 && in && !in2 || margin2 <= margin && in2 && !in {
			t.Fatalf("[%g, %g]: CheckRow(%g) = %t at margin %g but %t at margin %g", lo, hi, v, in, margin, in2, margin2)
		}
	})
}
