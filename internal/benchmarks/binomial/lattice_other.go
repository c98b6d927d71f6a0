//go:build !amd64

package binomial

// latticeVector is false off amd64: PriceAmericanCall prices every
// option.
var latticeVector = false

func priceGroups(dst, s, x, t []float64, r, v float64, steps int, scratch []float64) int { return 0 }
