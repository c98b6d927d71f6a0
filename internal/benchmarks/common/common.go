// Package common provides the quantities-of-interest machinery shared by
// the benchmark suite: the error metrics of Table I (RMSE, MAPE), the
// relative-error CDF of Figure 9f, dataset splitting, and benchmark
// registry metadata for Tables I and II.
package common

import (
	"embed"
	"fmt"
	"math"
	"sort"
	"strings"
)

// EmbeddedLoC sums CountLoC over every non-test .go file in an embedded
// source tree — how the benchmark packages report their Table II Total
// LoC column.
func EmbeddedLoC(fs embed.FS) int {
	total := 0
	entries, err := fs.ReadDir(".")
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if e.IsDir() || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		data, err := fs.ReadFile(e.Name())
		if err != nil {
			continue
		}
		total += CountLoC(string(data))
	}
	return total
}

// DirectiveStats counts pragma lines and total non-empty annotation lines
// in a directive block — the HPAC-ML LoC and directive-count columns of
// Table II.
func DirectiveStats(src string) (loc, directives int) {
	for _, line := range splitLines(src) {
		t := trimSpace(line)
		if t == "" || hasPrefix(t, "//") {
			continue
		}
		loc++
		if hasPrefix(t, "#pragma") {
			directives++
		}
	}
	return loc, directives
}

// RMSE returns the root-mean-square error between two equally long series.
func RMSE(pred, ref []float64) (float64, error) {
	if len(pred) != len(ref) || len(pred) == 0 {
		return 0, fmt.Errorf("common: RMSE wants equal non-empty series, got %d and %d", len(pred), len(ref))
	}
	var s float64
	for i := range pred {
		d := pred[i] - ref[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(pred))), nil
}

// MAPE returns the mean absolute percentage error (in percent), skipping
// reference values of exactly zero to avoid division by zero.
func MAPE(pred, ref []float64) (float64, error) {
	if len(pred) != len(ref) || len(pred) == 0 {
		return 0, fmt.Errorf("common: MAPE wants equal non-empty series, got %d and %d", len(pred), len(ref))
	}
	var s float64
	n := 0
	for i := range pred {
		if ref[i] == 0 {
			continue
		}
		s += math.Abs((pred[i] - ref[i]) / ref[i])
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("common: MAPE undefined, all reference values are zero")
	}
	return 100 * s / float64(n), nil
}

// RelativeErrors returns |pred-ref| / max(|ref|, floor) per element — the
// quantity whose CDF Figure 9f plots. floor guards near-zero references.
func RelativeErrors(pred, ref []float64, floor float64) ([]float64, error) {
	if len(pred) != len(ref) || len(pred) == 0 {
		return nil, fmt.Errorf("common: RelativeErrors wants equal non-empty series")
	}
	if floor <= 0 {
		floor = 1e-12
	}
	out := make([]float64, len(pred))
	for i := range pred {
		den := math.Abs(ref[i])
		if den < floor {
			den = floor
		}
		out[i] = math.Abs(pred[i]-ref[i]) / den
	}
	return out, nil
}

// CDF summarizes a sample as quantile points: for each requested fraction
// p in (0,1], the value below which a fraction p of the sample lies.
type CDF struct {
	Sorted []float64
}

// NewCDF builds a CDF summary (sorting a copy of the sample).
func NewCDF(sample []float64) (*CDF, error) {
	if len(sample) == 0 {
		return nil, fmt.Errorf("common: CDF of empty sample")
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	return &CDF{Sorted: s}, nil
}

// Quantile returns the value at fraction p of the distribution.
func (c *CDF) Quantile(p float64) float64 {
	if p <= 0 {
		return c.Sorted[0]
	}
	if p >= 1 {
		return c.Sorted[len(c.Sorted)-1]
	}
	idx := p * float64(len(c.Sorted)-1)
	lo := int(idx)
	frac := idx - float64(lo)
	if lo+1 >= len(c.Sorted) {
		return c.Sorted[lo]
	}
	return c.Sorted[lo]*(1-frac) + c.Sorted[lo+1]*frac
}

// FractionBelow returns the fraction of the sample <= x.
func (c *CDF) FractionBelow(x float64) float64 {
	n := sort.SearchFloat64s(c.Sorted, math.Nextafter(x, math.Inf(1)))
	return float64(n) / float64(len(c.Sorted))
}

// Metric names the QoI error metric of a benchmark (Table I).
type Metric string

// Table I metrics.
const (
	MetricRMSE Metric = "RMSE"
	MetricMAPE Metric = "MAPE"
)

// Info is a benchmark's registry entry: the content of Table I plus the
// Table II annotation accounting, filled in by each benchmark package.
type Info struct {
	Name        string
	Description string
	QoI         string
	Metric      Metric
	// TotalLoC is the benchmark's Go source size; DirectiveCount and
	// HPACMLLoC are the annotation burden (Table II).
	TotalLoC       int
	HPACMLLoC      int
	DirectiveCount int
}

// GeoMean returns the geometric mean of positive values (used by the
// paper's "geometric mean of maximum speedup" summary).
func GeoMean(vals []float64) (float64, error) {
	if len(vals) == 0 {
		return 0, fmt.Errorf("common: GeoMean of empty slice")
	}
	var s float64
	for _, v := range vals {
		if v <= 0 {
			return 0, fmt.Errorf("common: GeoMean wants positive values, got %g", v)
		}
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals))), nil
}

// CountLoC counts non-empty, non-comment-only lines in source text — the
// clang-format-style LoC metric of Table II applied to Go sources.
func CountLoC(src string) int {
	n := 0
	inBlock := false
	for _, line := range splitLines(src) {
		t := trimSpace(line)
		if inBlock {
			if idx := indexOf(t, "*/"); idx >= 0 {
				inBlock = false
				t = trimSpace(t[idx+2:])
			} else {
				continue
			}
		}
		if t == "" || hasPrefix(t, "//") {
			continue
		}
		if hasPrefix(t, "/*") {
			if indexOf(t, "*/") < 0 {
				inBlock = true
			}
			continue
		}
		n++
	}
	return n
}

// Minimal string helpers to keep this package dependency-free.
func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	out = append(out, s[start:])
	return out
}

func trimSpace(s string) string {
	i, j := 0, len(s)
	for i < j && (s[i] == ' ' || s[i] == '\t' || s[i] == '\r') {
		i++
	}
	for j > i && (s[j-1] == ' ' || s[j-1] == '\t' || s[j-1] == '\r') {
		j--
	}
	return s[i:j]
}

func hasPrefix(s, p string) bool {
	return len(s) >= len(p) && s[:len(p)] == p
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
