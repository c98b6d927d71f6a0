package binomial

import "repro/internal/cpu"

// latticeVector selects priceGroups for PriceAmericanCalls. It is set
// once, from the CPU, and tests clear it to run PriceAmericanCall alone.
var latticeVector = cpu.AVX

// coeffs holds four options' per-step constants, lane l for option l of
// a group, in the order induct4 loads them.
type coeffs struct {
	x, rInv, pu, pd [lanes]float64
}

// priceGroups prices dst's options four at a time while a whole group
// remains and returns how many it priced. Each group's setup runs in Go,
// one lane at a time, into scratch: steps+1 rows of four values, then
// 2*steps+1 rows of four node prices. A group that holds a zero expiry
// goes through PriceAmericanCall, which prices it as intrinsic value.
func priceGroups(dst, s, x, t []float64, r, v float64, steps int, scratch []float64) int {
	vals, pw := scratch[:lanes*(steps+1)], scratch[lanes*(steps+1):CallsScratchLen(steps)]
	var c coeffs
	i := 0
	for ; i+lanes <= len(dst); i += lanes {
		if t[i] == 0 || t[i+1] == 0 || t[i+2] == 0 || t[i+3] == 0 {
			for l := i; l < i+lanes; l++ {
				dst[l] = PriceAmericanCall(s[l], x[l], t[l], r, v, steps, scratch)
			}
			continue
		}
		for l := range lanes {
			c.x[l] = x[i+l]
			c.rInv[l], c.pu[l], c.pd[l] = setup(s[i+l], x[i+l], t[i+l], r, v, steps, vals[l:], pw[l:], lanes)
		}
		induct4(&vals[0], &pw[0], &c, steps)
		copy(dst[i:i+lanes], vals[:lanes])
	}
	return i
}

// induct4 is PriceAmericanCall's backward induction over four options,
// one per lane of a 256-bit register: vals holds steps+1 rows of four
// option values and pw 2*steps+1 rows of four node prices, interleaved
// by lane, and row 0 of vals ends as the four prices. Each node runs
// the scalar expression's operations on the scalar expression's
// operands in its order, pu*vals[j+1] + pd*vals[j] scaled by rInv, then
// price - x, with no FMA, so every lane rounds as the scalar loop does.
// The early-exercise test is VMAXPD with the continuation value as the
// second source, which x86 returns when either is NaN and when both are
// zero: exercise > cont ? exercise : cont, the scalar branch.
//
//go:noescape
func induct4(vals *float64, pw *float64, c *coeffs, steps int)
