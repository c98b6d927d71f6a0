//go:build !amd64

package cpu

// AVX, AVX2 and AVX512 are false off amd64.
var AVX, AVX2, AVX512 = false, false, false
