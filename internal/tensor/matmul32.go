package tensor

import (
	"fmt"
	"sync"
)

// MatMulInto32 computes a @ b into dst over flat row-major float32
// slabs: a is [m,k], b is [k,n], dst is [m,n]. It works on raw slices
// because the float32 path has no Tensor type: it exists for engines
// that keep weights converted once (nn.Forward32) and need the halved
// element size for bandwidth and SIMD width, not a second tensor
// algebra. It packs b into pooled scratch and runs PackedF32.Into on
// it, as DenseInto does for f64, so a caller that multiplies by the
// same b repeatedly should pack it once with PackF32 instead. dst must
// not overlap a or b; its previous contents are overwritten.
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
	if m == 0 || n == 0 {
		return nil
	}
	p := packedF32Pool.Get().(*PackedF32)
	defer packedF32Pool.Put(p)
	p.init(&f32Kernel, nil, k, n)
	p.into(dst, a, m, ActIdentity, b)
	return nil
}

// f32PanelWidth is the column count of a packed f32 panel.
const f32PanelWidth = 16

// f32RowBlock is the driver's rowBlock, under the f32 kernel's name.
const f32RowBlock = rowBlock

// f32Kernel is the f32 row kernel: 16-column panels, each sum starting
// at +0 with the bias added last, and a vector multiply-add counting a
// quarter in split, whose f32 split breaks even at 2^20.
var f32Kernel = kernel[float32, [f32PanelWidth]float32]{list: listF32Rows, sweep: sweepF32, pair: sweepF32Pair, level: &f32Sweep, cost: costF32Vector}

// PackedF32 is a [k, n] f32 matrix and its bias packed for the f32 row
// kernel: panel q holds columns 16q to 16q+15 of every row as [k][16]
// float32s, the last panel zero-padded. A PackedF32 is immutable once
// packed and safe for concurrent use.
type PackedF32 struct {
	packed[float32, [f32PanelWidth]float32]
}

var packedF32Pool = sync.Pool{New: func() any { return new(PackedF32) }}

// PackF32 packs the row-major [k, n] matrix b and its [n] bias (nil adds
// nothing). The packed copy does not alias b or bias: writes to them
// afterwards are not seen.
func PackF32(b, bias []float32, k, n int) *PackedF32 {
	p := new(PackedF32)
	p.init(&f32Kernel, bias, k, n)
	p.pack(b, 0, p.panels)
	return p
}

// Into computes dst = act(a @ p + bias) for the [m, k] slab a into the
// [m, n] slab dst. Output element j starts at +0; x_k*b[k][j] is added
// for each nonzero x_k in ascending k, one rounded multiply and one
// rounded add each, and bias[j] is added last: the op order of a plain
// f32 row loop followed by a bias pass, so the result is bitwise
// independent of packing, blocking and the parallel split. Zero
// activations (either sign) are skipped, so a 0 * Inf weight never
// turns an output into NaN. A sum that starts at +0 is never -0, so
// without a bias the zero bias it adds leaves every output's bits alone.
//
// Rows run through the packed-panel driver as PackedF64.Into's do, each
// keeping its sixteen outputs in registers across its list. The sweep
// applies identity and ReLU (every zero, NaN and negative to +0) in
// registers; any other act is mapped in place by MapAct in float32.
func (p *PackedF32) Into(dst, a []float32, m int, act Act) {
	if m == 0 || p.n == 0 {
		return
	}
	p.into(dst, a, m, act, nil)
}
