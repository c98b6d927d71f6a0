package tensor

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestSweepDispatchMatchesCPU fails when a vector sweep this CPU can run
// was not selected. Every bitwise test compares the selected sweep with
// the portable one, so a broken CPUID or XGETBV check that silently
// served the portable loop would leave them all green. Linux lists avx
// and avx2 in /proc/cpuinfo only when the OS also saves the YMM
// registers, which is the condition cpuAVX checks.
func TestSweepDispatchMatchesCPU(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	var flags []string
	for line := range strings.Lines(string(info)) {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(list)
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	avx, avx2 := slices.Contains(flags, "avx"), slices.Contains(flags, "avx2")
	if avx != cpuAVX() {
		t.Errorf("/proc/cpuinfo lists avx: %t, but cpuAVX() = %t", avx, cpuAVX())
	}
	if avx && !f64Vector {
		t.Error("the CPU has AVX, but the f64 row kernel runs the portable sweep")
	}
	if avx && avx2 && !i8Vector {
		t.Error("the CPU has AVX2, but the int8 row kernel runs the portable sweep")
	}
	if !avx2 && i8Vector {
		t.Error("the CPU has no AVX2, but the int8 row kernel runs the vector sweep")
	}
}
