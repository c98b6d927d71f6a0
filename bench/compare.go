package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

func readResults(path string) (resultsFile, error) {
	var f resultsFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// worsening is how much worse b is than a as a share of a, positive
// when worse, for a metric whose better direction is given.
func worsening(a, b float64, better string) float64 {
	if better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, for every pairing of end-to-end metric and
// workload present in both files, both medians, how much worse the
// second is and the metric's bound. Where, on either side, the median
// round sits further from the reported quartile than the bound, at
// least half that run was disturbed: the pair cannot resolve a change of
// that size and is reported as unresolved, not as unchanged. The exit code is
// non-zero when any pair is out of bound or a workload was not correct.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, errA := readResults(pathA)
	b, errB := readResults(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return compareResults(w, a, b)
}

func compareResults(w io.Writer, a, b resultsFile) int {
	code := 0
	byName := make(map[string]workloadResult)
	for _, res := range b.Workloads {
		byName[res.Name] = res
	}
	fmt.Fprintf(w, "%-16s %-12s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	for _, ra := range a.Workloads {
		rb, ok := byName[ra.Name]
		if !ok {
			continue
		}
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(w, "%-16s a run was not correct (a %v, b %v)\n", ra.Name, ra.Correct, rb.Correct)
			code = 1
		}
		for _, d := range endToEnd {
			ma, mb := ra.EndToEnd[d.Name], rb.EndToEnd[d.Name]
			worse := worsening(ma.Value, mb.Value, d.Better)
			verdict := "ok"
			switch {
			case ma.Unrest > d.Bound || mb.Unrest > d.Bound:
				verdict = fmt.Sprintf("unresolved (unrest a %.3f, b %.3f)", ma.Unrest, mb.Unrest)
			case worse > d.Bound:
				verdict = "OUT OF BOUND"
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-12s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n",
				ra.Name, d.Name, ma.Value, mb.Value, 100*worse, 100*d.Bound, verdict)
		}
	}
	return code
}
