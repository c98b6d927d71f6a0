package tensor

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestAsmLoopHeadsAligned fails when a loop head in matmul_amd64.s (a
// label that a later jump in the same function branches back to) is not
// directly preceded by PCALIGN $64, and when a sweep lacks one of its
// three hot loops (both, loopA, loopB) or a lister its loop (list) as
// an aligned loop head. An unaligned loop's speed follows where the
// linker happens to place its function, so an edit anywhere in the
// package could move the kernels' throughput.
func TestAsmLoopHeadsAligned(t *testing.T) {
	src, err := os.ReadFile("matmul_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	type label struct {
		name    string
		aligned bool
	}
	var (
		fn      string
		prev    string // the last instruction line
		labels  []label
		aligned = map[string][]string{} // function -> its aligned loop heads
	)
	for line := range strings.Lines(string(src)) {
		line, _, _ = strings.Cut(line, "//")
		line = strings.TrimSpace(line)
		fields := strings.Fields(line)
		switch {
		case len(fields) == 0:
			continue
		case fields[0] == "TEXT":
			fn, _, _ = strings.Cut(strings.TrimPrefix(fields[1], "·"), "(")
			labels = labels[:0]
		case strings.HasSuffix(line, ":") && len(fields) == 1:
			labels = append(labels, label{strings.TrimSuffix(line, ":"), prev == "PCALIGN $64"})
		case strings.HasPrefix(fields[0], "J"):
			target := fields[len(fields)-1]
			i := slices.IndexFunc(labels, func(l label) bool { return l.name == target })
			if i < 0 {
				continue // a forward jump
			}
			if !labels[i].aligned {
				t.Errorf("%s: loop head %s is not preceded by PCALIGN $64", fn, target)
				continue
			}
			if !slices.Contains(aligned[fn], target) {
				aligned[fn] = append(aligned[fn], target)
			}
		}
		prev = strings.Join(fields, " ")
	}
	hot := map[string][]string{
		"sweepF64AVX": {"both", "loopA", "loopB"}, "sweepF32AVX": {"both", "loopA", "loopB"},
		"sweepI8AVX2": {"both", "loopA", "loopB"}, "listF64Asm": {"list"}, "listF32Asm": {"list"},
		"listPairsAsm": {"list"},
	}
	for fn, loops := range hot {
		for _, loop := range loops {
			if !slices.Contains(aligned[fn], loop) {
				t.Errorf("%s: no aligned loop head %s (aligned: %v)", fn, loop, aligned[fn])
			}
		}
	}
}
