package tensor

import (
	"fmt"

	"repro/internal/parallel"
)

// MatMulInto32 computes a @ b into dst over flat row-major float32
// slabs: a is [m,k], b is [k,n], dst is [m,n]. Like DenseInto it
// parallelizes across row ranges and accumulates in k-ascending order;
// it picks stream or panel order by the size of b, and works on raw
// slices because the float32 path has no Tensor type: it exists for
// engines that keep weights
// converted once (nn.Forward32) and need the halved element size for
// bandwidth and SIMD width, not a second tensor algebra. dst must not
// overlap a or b; its previous contents are overwritten.
func MatMulInto32(dst, a, b []float32, m, k, n int) error {
	if m < 0 || k < 0 || n < 0 {
		return fmt.Errorf("tensor: matmul32 dims [%d %d %d] negative", m, k, n)
	}
	if len(a) != m*k || len(b) != k*n {
		return fmt.Errorf("tensor: matmul32 operands %d and %d floats, want [%d %d] x [%d %d]", len(a), len(b), m, k, k, n)
	}
	if len(dst) != m*n {
		return fmt.Errorf("tensor: matmul32 dst %d floats, want [%d %d]", len(dst), m, n)
	}
	for i := range dst {
		dst[i] = 0
	}
	if m*k*n < matMulParFLOPs {
		matMulRows32(a, b, dst, k, n, 0, m)
		return nil
	}
	parallel.ForRange(m, func(lo, hi int) {
		matMulRows32(a, b, dst, k, n, lo, hi)
	})
	return nil
}

// matMulRows32 accumulates output rows [lo, hi), choosing stream or
// panel order by the size of B — float32 elements halve B's footprint,
// so the stream order holds up to twice the [k,n] of the float64
// kernel under the same matMulPanelBytes budget. The flat inner loops
// over contiguous rows are what the compiler and the hardware
// prefetcher want: unit-stride multiply-accumulate with no bounds
// work, twice the elements per vector register as the f64 path.
func matMulRows32(ad, bd, od []float32, k, n, lo, hi int) {
	if k*n*4 <= matMulPanelBytes {
		for i := lo; i < hi; i++ {
			arow := ad[i*k : (i+1)*k]
			orow := od[i*n : (i+1)*n]
			for kk := 0; kk < k; kk++ {
				av := arow[kk]
				if av == 0 {
					continue
				}
				axpy32(orow, bd[kk*n:(kk+1)*n], av)
			}
		}
		return
	}
	for k0 := 0; k0 < k; k0 += matMulBlockK {
		k1 := min(k0+matMulBlockK, k)
		for j0 := 0; j0 < n; j0 += matMulBlockJ {
			j1 := min(j0+matMulBlockJ, n)
			for i := lo; i < hi; i++ {
				arow := ad[i*k : (i+1)*k]
				orow := od[i*n+j0 : i*n+j1]
				for kk := k0; kk < k1; kk++ {
					av := arow[kk]
					if av == 0 {
						continue
					}
					axpy32(orow, bd[kk*n+j0:kk*n+j1], av)
				}
			}
		}
	}
}

// axpy32 adds a*x to y element by element, four elements per
// iteration. A one-element loop is short enough that whether it
// straddles a 64-byte fetch line depends on where the linker happens to
// place the kernel, and that alone moved serve_wide_f32 by a quarter
// between builds that did not touch this file.
func axpy32(y, x []float32, a float32) {
	x = x[:len(y)]
	j := 0
	for ; j+4 <= len(y); j += 4 {
		y[j] += a * x[j]
		y[j+1] += a * x[j+1]
		y[j+2] += a * x[j+2]
		y[j+3] += a * x[j+3]
	}
	for ; j < len(y); j++ {
		y[j] += a * x[j]
	}
}
