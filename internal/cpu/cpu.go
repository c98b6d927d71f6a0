// Package cpu reports which x86 vector extensions this process may use.
// It holds the module's one CPUID check: the AVX, AVX2 and AVX-512
// kernels in internal/tensor and the AVX lattice in
// internal/benchmarks/binomial each pick their path from it once, at
// init. An extension reads true only when the OS also saves the
// registers it uses. Off amd64 every extension reads false.
package cpu
