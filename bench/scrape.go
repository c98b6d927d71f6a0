package main

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// parseExposition reads a Prometheus text exposition into a map from
// the series as printed (name plus label set, e.g.
// `hpacml_infer_queue_seconds_sum{model="m"}`) to its value. Comment
// lines and lines it cannot parse are skipped: the benchmark reads a
// handful of known series and reports a missing one as absent.
func parseExposition(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out
}

// histMeanUs is a histogram's mean observation between two scrapes, in
// microseconds: Δ_sum / Δ_count of family{labels}. ok is false when
// the histogram saw nothing in between.
func histMeanUs(before, after map[string]float64, family, labels string) (mean float64, ok bool) {
	sum := family + "_sum" + labels
	count := family + "_count" + labels
	n := after[count] - before[count]
	if n <= 0 {
		return 0, false
	}
	return (after[sum] - before[sum]) / n * 1e6, true
}

func scrapeMetrics(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseExposition(string(body)), nil
}
