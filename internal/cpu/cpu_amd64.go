package cpu

// AVX reports whether the CPU has AVX and the OS saves the YMM
// registers (CPUID.1:ECX OSXSAVE and AVX, XCR0 bits 1 and 2).
var AVX = cpuAVX()

// AVX2 reports AVX and CPUID leaf 7 (subleaf 0) EBX bit 5.
var AVX2 = AVX && cpuidLeaf7EBX()&(1<<5) != 0

// AVX512 reports AVX, AVX-512 Foundation (CPUID leaf 7, subleaf 0, EBX
// bit 16), and that the OS saves the opmask registers and all 32 ZMM
// registers in full (XCR0 bits 5, 6 and 7, beside AVX's 1 and 2).
var AVX512 = AVX && cpuidLeaf7EBX()&(1<<16) != 0 && xcr0()&0xe6 == 0xe6

func cpuAVX() bool

// cpuidLeaf7EBX returns CPUID leaf 7 (subleaf 0) EBX, the structured
// extended feature flags, or 0 when the CPU has no leaf 7.
func cpuidLeaf7EBX() uint32

// xcr0 returns the low half of XCR0, the register states the OS saves.
// XGETBV faults without OSXSAVE, so call it only once AVX holds.
func xcr0() uint32
