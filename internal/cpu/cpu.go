// Package cpu reports which x86 vector extensions this process may use.
// It holds the module's one CPUID check: the AVX kernels in
// internal/tensor and internal/benchmarks/binomial each pick their path
// from it once, at init. Off amd64 every extension reads false.
package cpu
