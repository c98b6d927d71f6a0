package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// shapedVsF64 runs net on a [rows, sample...] batch through both the
// float64 reference and the f32 program compiled for sample and asserts
// agreement within single-precision tolerance.
func shapedVsF64(t *testing.T, net *Network, sample []int, rows int, seed int64) {
	t.Helper()
	f32, err := NewForward32(net, sample...)
	if err != nil {
		t.Fatal(err)
	}
	if f32.InDim() != tensor.NumElements(sample) {
		t.Fatalf("InDim %d, want %d", f32.InDim(), tensor.NumElements(sample))
	}
	rng := rand.New(rand.NewSource(seed))
	in := make([]float64, rows*f32.InDim())
	for i := range in {
		in[i] = rng.NormFloat64()
	}
	x, err := tensor.FromSlice(append([]float64(nil), in...), append([]int{rows}, sample...)...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	wd := want.Contiguous().Data()
	if len(wd) != rows*f32.OutDim() {
		t.Fatalf("OutDim %d does not match f64 output %v", f32.OutDim(), want.Shape())
	}
	got := make([]float64, len(wd))
	if err := f32.ForwardFloat64(got, in, rows); err != nil {
		t.Fatal(err)
	}
	for i, w := range wd {
		if diff := math.Abs(got[i] - w); diff > 1e-5*math.Abs(w)+1e-6 {
			t.Fatalf("element %d: f32 %.9g vs f64 %.9g (diff %.3g)", i, got[i], w, diff)
		}
	}
}

// TestForward32Shaped1D: the conv1d stack the f64 tests use — conv,
// activation, pool, flatten, dense — against the float64 reference.
func TestForward32Shaped1D(t *testing.T) {
	net := NewNetwork(17)
	net.Add(
		net.NewConv1D(2, 3, 3, 2), // [2, 11] -> [3, 5]
		NewActivation(ActTanh),
		NewMaxPool1D(2), // [3, 5] -> [3, 2]
		NewFlatten(),
		net.NewDense(6, 2),
	)
	shapedVsF64(t, net, []int{2, 11}, 9, 101)
}

// TestForward32Shaped2D: conv2d with a per-channel affine, pool, and a
// dense head — every shaped op kind in one program.
func TestForward32Shaped2D(t *testing.T) {
	net := NewNetwork(19)
	net.Add(
		net.NewConv2D(2, 3, 3, 2, 1), // [2, 9, 8] -> [3, 7, 7]
		NewChannelAffine(49, []float64{0.5, 2, -1}, []float64{0.1, 0, -0.2}),
		NewActivation(ActReLU),
		NewMaxPool2D(2), // [3, 7, 7] -> [3, 3, 3]
		NewFlatten(),
		net.NewDense(27, 4),
		NewActivation(ActSigmoid),
	)
	shapedVsF64(t, net, []int{2, 9, 8}, 7, 102)
}

// TestForward32ShapedVector: on the vector MLPs, compiling for an
// explicit [in] sample shape and for the VectorIO default build the same
// program — bitwise-identical outputs — and both match float64.
func TestForward32ShapedVector(t *testing.T) {
	all := NewNetwork(11)
	all.Add(
		all.NewDense(6, 12),
		NewActivation(ActLeakyReLU),
		all.NewDropout(0.3),
		all.NewDense(12, 8),
		NewActivation(ActSigmoid),
		NewChannelAffine(4, []float64{2, -3}, []float64{0.25, 0}),
		all.NewDense(8, 3),
		NewActivation(ActReLU),
	)
	for _, net := range []*Network{quickstartNet(), all} {
		in, _, err := net.VectorIO()
		if err != nil {
			t.Fatal(err)
		}
		shapedVsF64(t, net, []int{in}, 13, 103)
		byDefault, err := NewForward32(net)
		if err != nil {
			t.Fatal(err)
		}
		bySample, err := NewForward32(net, in)
		if err != nil {
			t.Fatal(err)
		}
		const rows = 29
		rng := rand.New(rand.NewSource(104))
		x := make([]float64, rows*in)
		for i := range x {
			x[i] = rng.NormFloat64() * 2
		}
		a := make([]float64, rows*byDefault.OutDim())
		b := make([]float64, rows*bySample.OutDim())
		if err := byDefault.ForwardFloat64(a, x, rows); err != nil {
			t.Fatal(err)
		}
		if err := bySample.ForwardFloat64(b, x, rows); err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("element %d: NewForward32(net) %g != NewForward32(net, %d) %g", i, a[i], in, b[i])
			}
		}
	}
}

// TestForward32ShapedRejects: geometry mismatches and degenerate sample
// shapes fail compilation instead of miscompiling.
func TestForward32ShapedRejects(t *testing.T) {
	conv := NewNetwork(7)
	conv.Add(conv.NewConv1D(2, 3, 3, 1), NewFlatten(), conv.NewDense(3*9, 2))
	cases := []struct {
		name   string
		net    *Network
		sample []int
	}{
		{"wrong channels", conv, []int{3, 11}},
		{"input shorter than kernel", conv, []int{2, 2}},
		{"dense width mismatch", conv, []int{2, 12}}, // lOut 10, flatten 30 != 27
		{"zero dim", conv, []int{2, 0}},
		{"empty network with sample", NewNetwork(1), []int{4}},
	}
	for _, tc := range cases {
		if _, err := NewForward32(tc.net, tc.sample...); err == nil {
			t.Errorf("%s: compile must fail", tc.name)
		}
	}
}
