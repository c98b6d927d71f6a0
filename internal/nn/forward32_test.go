package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// quickstartNet mirrors examples/quickstart's h16 MLP — the model the
// accuracy gate is specified against.
func quickstartNet() *Network {
	net := NewNetwork(7)
	net.Add(net.NewDense(5, 16), NewActivation(ActTanh), net.NewDense(16, 1))
	return net
}

// TestForward32AccuracyGate is the release gate for the f32 inference
// path: on the quickstart model, every float32 output must match the
// float64 reference within rtol 1e-5 (plus a small atol for outputs
// near zero). A looser match means the f32 compilation is wrong, not
// just imprecise — one hidden layer of tanh cannot amplify f32
// rounding anywhere near 1e-5.
func TestForward32AccuracyGate(t *testing.T) {
	net := quickstartNet()
	f32, err := NewForward32(net)
	if err != nil {
		t.Fatal(err)
	}
	if f32.InDim() != 5 || f32.OutDim() != 1 {
		t.Fatalf("compiled dims %d->%d, want 5->1", f32.InDim(), f32.OutDim())
	}

	rng := rand.New(rand.NewSource(123))
	const rows = 257 // crosses batch sizes the serve path uses, odd on purpose
	in := make([]float64, rows*5)
	for i := range in {
		in[i] = rng.NormFloat64() * 3
	}
	x, err := tensor.FromSlice(append([]float64(nil), in...), rows, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, rows)
	if err := f32.ForwardFloat64(got, in, rows); err != nil {
		t.Fatal(err)
	}
	const rtol, atol = 1e-5, 1e-6
	for i, w := range want.Contiguous().Data() {
		if diff := math.Abs(got[i] - w); diff > rtol*math.Abs(w)+atol {
			t.Fatalf("row %d: f32 %.9g vs f64 %.9g (diff %.3g, budget %.3g)",
				i, got[i], w, diff, rtol*math.Abs(w)+atol)
		}
	}

	// The pure-f32 entry agrees bitwise with ForwardFloat64's core.
	in32 := make([]float32, len(in))
	for i, v := range in {
		in32[i] = float32(v)
	}
	out32 := make([]float32, rows)
	if err := f32.Forward(out32, in32, rows); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if float64(out32[i]) != got[i] {
			t.Fatalf("row %d: Forward %g != ForwardFloat64 %g", i, out32[i], got[i])
		}
	}
}

// TestForward32AllLayers covers every compilable layer kind plus the
// inference-identity ones, against the f64 reference.
func TestForward32AllLayers(t *testing.T) {
	net := NewNetwork(11)
	net.Add(
		NewAffine(0.5, -1),
		net.NewDense(6, 12),
		NewActivation(ActLeakyReLU),
		net.NewDropout(0.3), // identity at inference
		net.NewDense(12, 8),
		NewActivation(ActSigmoid),
		NewChannelAffine(4, []float64{2, -3}, []float64{0.25, 0}),
		net.NewDense(8, 3),
		NewActivation(ActReLU),
	)
	// Affine first: VectorIO requires a leading Dense, so this must be
	// rejected, not miscompiled.
	if _, err := NewForward32(net); err == nil {
		t.Fatal("leading non-dense layer must fail compilation")
	}
	net.Layers = net.Layers[1:]
	f32, err := NewForward32(net)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(5))
	const rows = 33
	in := make([]float64, rows*6)
	for i := range in {
		in[i] = rng.NormFloat64()
	}
	x, _ := tensor.FromSlice(append([]float64(nil), in...), rows, 6)
	want, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, rows*3)
	if err := f32.ForwardFloat64(got, in, rows); err != nil {
		t.Fatal(err)
	}
	for i, w := range want.Contiguous().Data() {
		if diff := math.Abs(got[i] - w); diff > 1e-5*math.Abs(w)+1e-6 {
			t.Fatalf("element %d: f32 %g vs f64 %g", i, got[i], w)
		}
	}
}

// TestForward32RejectsUnsupported: unsupported layers, conv models
// without a sample shape, an MLP given the wrong width, and an empty
// network fail compilation instead of miscompiling — the caller keeps
// the float64 path. Geometry errors in conv sample shapes are covered by
// TestForward32ShapedRejects.
func TestForward32RejectsUnsupported(t *testing.T) {
	body := NewNetwork(7)
	body.Add(NewActivation(ActTanh))
	res := NewNetwork(7)
	res.Add(NewResidual(body), NewFlatten(), res.NewDense(12, 2))
	conv := NewNetwork(7)
	conv.Add(conv.NewConv1D(2, 3, 3, 1), NewFlatten(), conv.NewDense(3*9, 2))
	cases := []struct {
		name   string
		net    *Network
		sample []int
	}{
		{"residual", res, []int{2, 6}},
		{"conv without sample shape", conv, nil},
		{"mlp wrong width", quickstartNet(), []int{4}},
		{"empty network", NewNetwork(1), nil},
	}
	for _, tc := range cases {
		if _, err := NewForward32(tc.net, tc.sample...); err == nil {
			t.Errorf("%s: compile must fail", tc.name)
		}
	}
}

// TestForward32Concurrent: one compiled program, many goroutines. The
// pooled scratch must keep results identical to the serial run.
func TestForward32Concurrent(t *testing.T) {
	net := quickstartNet()
	f32, err := NewForward32(net)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 17
	mk := func(seed int64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		in := make([]float64, rows*5)
		for i := range in {
			in[i] = rng.NormFloat64()
		}
		return in
	}
	refs := make([][]float64, 8)
	for g := range refs {
		refs[g] = make([]float64, rows)
		if err := f32.ForwardFloat64(refs[g], mk(int64(g)), rows); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for iter := 0; iter < 8; iter++ {
		for g := range refs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got := make([]float64, rows)
				if err := f32.ForwardFloat64(got, mk(int64(g)), rows); err != nil {
					errCh <- err
					return
				}
				for i := range got {
					if got[i] != refs[g][i] {
						errCh <- fmt.Errorf("goroutine %d row %d: %g != %g", g, i, got[i], refs[g][i])
						return
					}
				}
			}(g)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// BenchmarkForward32vs64 compares batch forward passes on the h16 MLP
// (the acceptance benchmark's model) and a wider MLP where the matmul
// dominates. The f32 path must be measurably faster.
func BenchmarkForward32vs64(b *testing.B) {
	cases := []struct {
		name   string
		widths []int
		rows   int
	}{
		{"h16/b64", []int{5, 16, 1}, 64},
		{"h16/b1024", []int{5, 16, 1}, 1024},
		{"h256x256/b256", []int{64, 256, 256, 8}, 256},
	}
	for _, tc := range cases {
		net := NewNetwork(7)
		for i := 0; i < len(tc.widths)-1; i++ {
			net.Add(net.NewDense(tc.widths[i], tc.widths[i+1]))
			if i < len(tc.widths)-2 {
				net.Add(NewActivation(ActTanh))
			}
		}
		inDim, outDim := tc.widths[0], tc.widths[len(tc.widths)-1]
		rng := rand.New(rand.NewSource(1))
		in := make([]float64, tc.rows*inDim)
		for i := range in {
			in[i] = rng.NormFloat64()
		}
		x, _ := tensor.FromSlice(append([]float64(nil), in...), tc.rows, inDim)
		dst := tensor.New(tc.rows, outDim)
		b.Run("f64/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := net.ForwardInto(dst, x); err != nil {
					b.Fatal(err)
				}
			}
		})
		f32, err := NewForward32(net)
		if err != nil {
			b.Fatal(err)
		}
		in32 := make([]float32, len(in))
		for i, v := range in {
			in32[i] = float32(v)
		}
		out32 := make([]float32, tc.rows*outDim)
		b.Run("f32/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := f32.Forward(out32, in32, tc.rows); err != nil {
					b.Fatal(err)
				}
			}
		})
		out64 := make([]float64, tc.rows*outDim)
		b.Run("f32via64/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := f32.ForwardFloat64(out64, in, tc.rows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
