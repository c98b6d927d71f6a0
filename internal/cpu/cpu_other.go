//go:build !amd64

package cpu

// AVX and AVX2 are false off amd64.
var AVX, AVX2 = false, false
