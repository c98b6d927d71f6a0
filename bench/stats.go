package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0..1) of sorted by linear
// interpolation between closest ranks; NaN for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

// quartiles returns the three cut points of Python's
// statistics.quantiles(v, n=4) — the quartiles the benchmark's contract
// is judged by. A single value is its own quartiles.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// quietQuartile is how a run's rounds become one reported value: the
// quartile on the metric's better side (the first for a metric that is
// better lower, the third for one that is better higher). Interference
// on a shared box only ever slows a round, in bursts of a few seconds;
// the quartile reads through bursts that spoil up to three rounds in
// four, where a median gives way at one in two. unrest is how far the
// median round sits from that value, as a share of it: near zero on a
// quiet box, and past a metric's bound when at least half the run was
// disturbed.
func quietQuartile(v []float64, better string) (value, unrest float64) {
	q1, q2, q3 := quartiles(v)
	value = q1
	if better == higher {
		value = q3
	}
	if value == 0 || math.IsNaN(value) {
		return value, 0
	}
	return value, math.Abs(q2-value) / math.Abs(value)
}

// meanRelL2 is the mean over rows of ‖pred−ref‖₂ / max(‖ref‖₂, floor),
// floor being the RMS row norm of ref — the serving accuracy gate's
// metric (hpacml.FitQuant), so the numbers compare with a sidecar's
// stamped gate error. A row whose reference is zero is measured against
// the output's typical scale instead of dividing by zero; an all-zero
// reference scores 0 for an exact match and +Inf otherwise.
func meanRelL2(pred, ref []float64, rows, cols int) float64 {
	if rows == 0 {
		return math.NaN()
	}
	var sq float64
	for _, v := range ref[:rows*cols] {
		sq += v * v
	}
	floor := math.Sqrt(sq / float64(rows))
	var sum float64
	for i := 0; i < rows; i++ {
		var num, den float64
		for j := i * cols; j < (i+1)*cols; j++ {
			d := pred[j] - ref[j]
			num += d * d
			den += ref[j] * ref[j]
		}
		den = math.Max(math.Sqrt(den), floor)
		switch {
		case num == 0:
		case den == 0:
			return math.Inf(1)
		default:
			sum += math.Sqrt(num) / den
		}
	}
	return sum / float64(rows)
}
