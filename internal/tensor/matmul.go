package tensor

import (
	"fmt"
	"math"
	"sync"
)

// MatMulInto computes a @ b for rank-2 tensors [m,k] x [k,n] into dst,
// which must be a contiguous [m,n] tensor whose storage does not overlap
// a or b. dst's previous contents are overwritten, so a caller (int8
// calibration, the benchmark's GEMM replay) reuses one output buffer
// across calls.
func MatMulInto(dst, a, b *Tensor) error {
	if a.Rank() != 2 || b.Rank() != 2 {
		return fmt.Errorf("tensor: matmul wants rank-2 operands, got %d and %d", a.Rank(), b.Rank())
	}
	if a.shape[1] != b.shape[0] {
		return fmt.Errorf("tensor: matmul inner dims differ: %d vs %d", a.shape[1], b.shape[0])
	}
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("tensor: matmul dst shape %v, want [%d %d]", dst.shape, m, n)
	}
	if !dst.IsContiguous() {
		return fmt.Errorf("tensor: matmul dst must be contiguous")
	}
	ac, bc := a.Contiguous(), b.Contiguous()
	DenseInto(dst.data[dst.offset:dst.offset+m*n], ac.data[ac.offset:ac.offset+m*k],
		bc.data[bc.offset:bc.offset+k*n], nil, m, k, n, ActIdentity)
	return nil
}

// TransposeInto writes the row-major [m,n] slab src into dst as [n,m].
// Training runs its transposed products, XᵀG and GWᵀ, as DenseInto over
// a transposed copy of one operand.
func TransposeInto(dst, src []float64, m, n int) {
	for i := 0; i < m; i++ {
		for j, v := range src[i*n : (i+1)*n] {
			dst[j*m+i] = v
		}
	}
}

// DenseInto computes dst = act(a @ b + bias) over flat row-major slabs:
// a is [m,k], b is [k,n], bias is [n] (nil adds nothing) and dst is
// [m,n]; dst must not overlap the operands, and its previous contents are
// overwritten. It is the one f64 GEMM: MatMulInto, every Dense and conv
// forward, and every training product (Dense and conv dW and dX) run it.
// Callers validate the shapes; a slab shorter than its dims panics.
//
// It packs b into pooled scratch and runs PackedF64.Into on it, so a
// caller that multiplies by the same b repeatedly (a frozen network, see
// nn.Network.Freeze) should pack it once with PackF64 instead. When the
// product's panels split across workers, each worker packs its own, so
// the pack is not left serial.
func DenseInto(dst, a, b, bias []float64, m, k, n int, act Act) {
	if m == 0 || n == 0 {
		return
	}
	p := packedF64Pool.Get().(*PackedF64)
	defer packedF64Pool.Put(p)
	p.init(&f64Kernel, bias, k, n)
	// Reslicing panics on a short b, as promised; a nil b survives only
	// when k*n is 0, where into has nothing to pack.
	p.into(dst, a, m, act, b[:k*n])
}

// panelWidth is the column count of a packed f64 panel.
const panelWidth = 8

// f64RowBlock is the driver's rowBlock, under the f64 kernel's name.
const f64RowBlock = rowBlock

// f64Kernel is the f64 row kernel: 8-column panels, each sum starting
// at the bias, and the split threshold parMACs was first sized for.
var f64Kernel = kernel[float64, [panelWidth]float64]{list: listF64, sweep: sweepF64, level: &f64Sweep, cost: costF64}

// PackedF64 is a [k, n] f64 matrix and its bias packed for the f64 row
// kernel: panel q holds columns 8q to 8q+7 of every row as [k][8]
// float64s, the last panel zero-padded. A PackedF64 is immutable once
// packed and safe for concurrent use.
type PackedF64 struct {
	packed[float64, [panelWidth]float64]
}

var packedF64Pool = sync.Pool{New: func() any { return new(PackedF64) }}

// PackF64 packs the row-major [k, n] matrix b and its [n] bias (nil adds
// nothing). The packed copy does not alias b or bias: writes to them
// afterwards are not seen.
func PackF64(b, bias []float64, k, n int) *PackedF64 {
	p := new(PackedF64)
	p.init(&f64Kernel, bias, k, n)
	p.pack(b, 0, p.panels)
	return p
}

// Into computes dst = act(a @ p) for the [m, k] slab a into the [m, n]
// slab dst, bit for bit what DenseInto computes from p's matrix and
// bias. Output element j is bias[j] followed by x_k*b[k][j] added for
// each nonzero x_k in ascending k, one rounded multiply and one rounded
// add each, exactly what a plain row loop computes — so the result is
// bitwise independent of packing, blocking and the parallel split. Zero
// activations (either sign) are skipped, so a zero row leaves the bias,
// -0 included, and a 0 * Inf weight never turns an output into NaN.
//
// Rows run through the packed-panel driver (packed.rows), each keeping
// its eight outputs in registers across its list of nonzero activations:
// on amd64, one 512-bit register with four rows in flight under
// AVX-512, or two 256-bit registers with two rows in flight under AVX
// alone; either way the bits are the plain row loop's. The sweep
// applies identity and ReLU in registers and stores the outputs
// straight into dst; any other act maps them in place afterwards.
func (p *PackedF64) Into(dst, a []float64, m int, act Act) {
	if m == 0 || p.n == 0 {
		return
	}
	p.into(dst, a, m, act, nil)
}

// Act is an elementwise activation: DenseInto applies it to each output
// as it is stored, and MapAct applies it to a slice.
type Act uint8

// The activations. ActIdentity is the zero value.
const (
	ActIdentity Act = iota
	ActReLU
	ActLeakyReLU
	ActTanh
	ActSigmoid
)

// Of returns a applied to v.
func (a Act) Of(v float64) float64 {
	switch a {
	case ActReLU:
		return relu(v)
	case ActLeakyReLU:
		return leakyReLU(v)
	case ActTanh:
		return math.Tanh(v)
	case ActSigmoid:
		return sigmoid(v)
	}
	return v
}

// MapAct sets dst[i] = act.Of(src[i]) over either element type; src may
// alias dst. It chooses the loop once per call, not per element. ReLU
// and leaky ReLU compute in E; tanh and sigmoid go through their float64
// formulas, rounded back to E.
func MapAct[E float](act Act, dst, src []E) {
	src = src[:len(dst)]
	switch act {
	case ActReLU:
		for i, v := range src {
			dst[i] = relu(v)
		}
	case ActLeakyReLU:
		for i, v := range src {
			dst[i] = leakyReLU(v)
		}
	case ActTanh:
		for i, v := range src {
			dst[i] = E(math.Tanh(float64(v)))
		}
	case ActSigmoid:
		for i, v := range src {
			dst[i] = E(sigmoid(float64(v)))
		}
	default:
		copy(dst, src)
	}
}

// relu is max(v, 0) with every zero, and NaN, mapped to +0.
func relu[E float](v E) E {
	if v > 0 {
		return v
	}
	return 0
}

// leakyReLU is v above 0 and 0.01*v otherwise, in E: a float32 slope is
// 0.01 rounded to float32.
func leakyReLU[E float](v E) E {
	if v > 0 {
		return v
	}
	return 0.01 * v
}

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }
