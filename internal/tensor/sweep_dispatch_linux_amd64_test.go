package tensor

import (
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/cpu"
)

// TestSweepDispatchMatchesCPU fails when a vector sweep this CPU can run
// was not selected, or one it cannot run was. Every bitwise test
// compares the selected sweep with the ones below it, so a broken CPUID
// or XGETBV check that silently served a narrower loop would leave them
// all green. Linux lists avx, avx2 and avx512f in /proc/cpuinfo only
// when the OS also saves the registers they use, which is the condition
// cpu.AVX and cpu.AVX512 check. It logs the sweep each kernel runs, so
// a -v run records which ones a machine exercised.
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
	avx, avx2, avx512 := slices.Contains(flags, "avx"), slices.Contains(flags, "avx2"), slices.Contains(flags, "avx512f")
	if avx != cpu.AVX {
		t.Errorf("/proc/cpuinfo lists avx: %t, but cpu.AVX = %t", avx, cpu.AVX)
	}
	if avx && avx512 != cpu.AVX512 {
		t.Errorf("/proc/cpuinfo lists avx512f: %t, but cpu.AVX512 = %t", avx512, cpu.AVX512)
	}
	float := sweepPortable
	switch {
	case avx && avx512:
		float = sweepAVX512
	case avx:
		float = sweepAVX
	}
	if f64Sweep != float {
		t.Errorf("the f64 row kernel runs the %v sweep, want %v (avx %t, avx512f %t)", f64Sweep, float, avx, avx512)
	}
	if f32Sweep != float {
		t.Errorf("the f32 row kernel runs the %v sweep, want %v (avx %t, avx512f %t)", f32Sweep, float, avx, avx512)
	}
	i8 := sweepPortable
	if avx && avx2 {
		i8 = sweepAVX
	}
	if i8Sweep != i8 {
		t.Errorf("the int8 row kernel runs the %v sweep, want %v (avx %t, avx2 %t)", i8Sweep, i8, avx, avx2)
	}
	t.Logf("sweeps: f64 %v, f32 %v, int8 %v (avx %t, avx2 %t, avx512f %t)", f64Sweep, f32Sweep, i8Sweep, avx, avx2, avx512)
}
