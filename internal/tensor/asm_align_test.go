package tensor

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestAsmLoopHeadsAligned fails when a loop head in matmul_amd64.s or
// in the binomial lattice's lattice_amd64.s (a label that a later jump
// in the same function branches back to) is not directly preceded by
// PCALIGN $64, and when a sweep lacks one of its hot loops (both, loopA
// and loopB in a 256-bit sweep; group, four, finish and lone in a
// 512-bit one), a lister its loop (list) or the lattice its step or
// node loop as an aligned loop head. An unaligned loop's speed follows
// where the linker happens to place its function, so an edit anywhere
// in the package could move the kernels' throughput.
func TestAsmLoopHeadsAligned(t *testing.T) {
	hot := map[string]map[string][]string{
		"matmul_amd64.s": {
			"sweepF64AVX": {"both", "loopA", "loopB"}, "sweepF32AVX": {"both", "loopA", "loopB"},
			"sweepF64AVX512": {"group", "four", "finish", "lone"},
			"sweepF32AVX512": {"group", "four", "finish", "lone"},
			"sweepI8AVX2":    {"both", "loopA", "loopB"}, "listF64Asm": {"list"}, "listF32Asm": {"list"},
			"listPairsAsm": {"list"},
		},
		"../benchmarks/binomial/lattice_amd64.s": {"induct4": {"step", "node"}},
	}
	for file, loops := range hot {
		t.Run(filepath.Base(file), func(t *testing.T) { checkLoopHeads(t, file, loops) })
	}
}

// checkLoopHeads checks one .s file's loop heads and its hot loops.
func checkLoopHeads(t *testing.T, file string, hot map[string][]string) {
	src, err := os.ReadFile(file)
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
	for fn, loops := range hot {
		for _, loop := range loops {
			if !slices.Contains(aligned[fn], loop) {
				t.Errorf("%s: no aligned loop head %s (aligned: %v)", fn, loop, aligned[fn])
			}
		}
	}
}
