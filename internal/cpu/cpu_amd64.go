package cpu

// AVX reports whether the CPU has AVX and the OS saves the YMM
// registers (CPUID.1:ECX OSXSAVE and AVX, XCR0 bits 1 and 2).
var AVX = cpuAVX()

// AVX2 reports AVX and CPUID leaf 7 (subleaf 0) EBX bit 5.
var AVX2 = AVX && cpuidLeaf7EBX()&(1<<5) != 0

func cpuAVX() bool

// cpuidLeaf7EBX returns CPUID leaf 7 (subleaf 0) EBX, the structured
// extended feature flags, or 0 when the CPU has no leaf 7.
func cpuidLeaf7EBX() uint32
