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
// cpu.AVX and cpu.AVX512 check. It logs the sweep, the lister and the
// pair sweep each kernel runs, so a -v run records which ones a machine
// exercised (a runner without AVX-512 lists with listF64Asm and
// listF32Asm and sweeps a panel pair as two one-panel sweeps).
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
	t.Logf("listers: f64 %s, f32 %s, int8 %s", floatLister("F64", f64Sweep), floatLister("F32", f32Sweep),
		map[sweepLevel]string{sweepPortable: "listPairsGo", sweepAVX: "listPairsAsm"}[i8Sweep])
	t.Logf("pair sweeps: f64 %s, f32 %s", pairSweep("F64", f64Sweep), pairSweep("F32", f32Sweep))
}

// pairSweep names what sweepF64Pair or sweepF32Pair runs at level: the
// 512-bit pair sweep, or one sweep per panel.
func pairSweep(kind string, level sweepLevel) string {
	if level == sweepAVX512 {
		return "sweep" + kind + "AVX512x2"
	}
	return "two sweep" + kind + " calls"
}

// floatLister names the lister listF64 or listF32 runs at level: the
// 512-bit one, the 256-bit one or the portable one.
func floatLister(kind string, level sweepLevel) string {
	return map[sweepLevel]string{
		sweepPortable: "listNonzero", sweepAVX: "list" + kind + "Asm", sweepAVX512: "list" + kind + "AVX512",
	}[level]
}
