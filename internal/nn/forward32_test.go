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
}

// TestForward32AllLayers covers every compilable layer kind plus the
// inference-identity ones, against the f64 reference: once with a
// leading Affine, which compiles into the float64 prelude fused into
// the input conversion, and once without it.
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
	for _, n := range []*Network{net, {Layers: net.Layers[1:]}} {
		f32, err := NewForward32(n)
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
		want, err := n.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, rows*3)
		if err := f32.ForwardFloat64(got, in, rows); err != nil {
			t.Fatal(err)
		}
		for i, w := range want.Contiguous().Data() {
			if diff := math.Abs(got[i] - w); diff > 1e-5*math.Abs(w)+1e-6 {
				t.Fatalf("%d layers, element %d: f32 %g vs f64 %g", len(n.Layers), i, got[i], w)
			}
		}
	}
}

// forward32Reference runs an MLP layer by layer: Affine and
// ChannelAffine layers before the first Dense (the prelude) in float64,
// then everything in float32: each Dense is MatMulInto32 on f32 weights,
// then the f32 bias add, then each activation, Affine and ChannelAffine
// over the whole slab in f32 (leaky ReLU's slope and the affine factors
// rounded to f32). That op order is what Forward32's fused kernel store
// and tail must reproduce bit for bit.
func forward32Reference(t *testing.T, net *Network, x []float64, rows int) []float64 {
	t.Helper()
	x = append([]float64(nil), x...)
	cols := len(x) / rows
	var cur []float32 // nil until the prelude ends
	for _, e := range net.Layers {
		if cur == nil {
			switch l := e.Layer.(type) {
			case *Affine:
				for i, v := range x {
					x[i] = l.Scale*v + l.Shift
				}
				continue
			case *ChannelAffine:
				for i, v := range x {
					b := i % cols / l.BlockLen
					x[i] = l.Scales[b]*v + l.Shifts[b]
				}
				continue
			}
			cur = make([]float32, len(x))
			for i, v := range x {
				cur[i] = float32(v)
			}
		}
		switch l := e.Layer.(type) {
		case *Dense:
			out := make([]float32, rows*l.Out)
			if err := tensor.MatMulInto32(out, cur, toF32(l.Weight.W.Contiguous().Data()), rows, l.In, l.Out); err != nil {
				t.Fatal(err)
			}
			b := toF32(l.Bias.W.Contiguous().Data())
			for i := range out {
				out[i] += b[i%l.Out]
			}
			cur, cols = out, l.Out
		case *Activation:
			for i, v := range cur {
				switch l.Fn {
				case ActReLU:
					if v > 0 {
						cur[i] = v
					} else {
						cur[i] = 0
					}
				case ActLeakyReLU:
					if !(v > 0) {
						cur[i] = 0.01 * v
					}
				case ActTanh:
					cur[i] = float32(math.Tanh(float64(v)))
				case ActSigmoid:
					cur[i] = float32(1 / (1 + math.Exp(float64(-v))))
				case ActIdentity:
				default:
					t.Fatalf("reference has no %q", l.Fn)
				}
			}
		case *Affine:
			scale, shift := float32(l.Scale), float32(l.Shift)
			for i, v := range cur {
				cur[i] = scale*v + shift
			}
		case *ChannelAffine:
			for i, v := range cur {
				b := i % cols / l.BlockLen
				cur[i] = float32(l.Scales[b])*v + float32(l.Shifts[b])
			}
		default:
			t.Fatalf("reference has no %s layer", l.Kind())
		}
	}
	out := make([]float64, rows*cols)
	for i, v := range cur {
		out[i] = float64(v)
	}
	return out
}

// TestForward32MatchesReference pins the segment-compiled program bit
// for bit to forward32Reference on random prelude-free MLPs, one per
// activation, and on leaky ReLU MLPs behind an Affine/ChannelAffine
// prelude with Affine/ChannelAffine tails before and after the
// activation, at row counts on both sides of the GEMM's and the
// elementwise maps' parallel thresholds.
func TestForward32MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	check := func(net *Network, name string, widths []int, rows int) {
		t.Helper()
		f32, err := NewForward32(net)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, rows*widths[0])
		for i := range x {
			x[i] = rng.NormFloat64() * 2
		}
		got := make([]float64, rows*f32.OutDim())
		if err := f32.ForwardFloat64(got, x, rows); err != nil {
			t.Fatal(err)
		}
		want := forward32Reference(t, net, x, rows)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s %v rows %d element %d: %g, reference %g", name, widths, rows, i, got[i], want[i])
			}
		}
	}
	for _, act := range []string{ActReLU, ActTanh, ActSigmoid, ActIdentity, ActLeakyReLU} {
		for _, rows := range []int{1, 7, 64} {
			widths := []int{1 + rng.Intn(40), 8 + rng.Intn(300), 8 + rng.Intn(300), 1 + rng.Intn(20)}
			net := NewNetwork(int64(rows) + 3)
			for i := 0; i < len(widths)-1; i++ {
				net.Add(net.NewDense(widths[i], widths[i+1]))
				if i < len(widths)-2 {
					net.Add(NewActivation(act))
				}
			}
			check(net, act, widths, rows)
		}
	}
	for _, rows := range []int{1, 7, 64} {
		widths := []int{2 + 2*rng.Intn(20), 8 + 2*rng.Intn(150), 8 + 2*rng.Intn(150), 1 + rng.Intn(20)}
		net := NewNetwork(int64(rows) + 5)
		net.Add(NewAffine(0.5, -1), NewChannelAffine(widths[0]/2, []float64{2, 0.25}, []float64{0.1, -0.3}))
		for i := 0; i < len(widths)-1; i++ {
			net.Add(net.NewDense(widths[i], widths[i+1]))
			if i < len(widths)-2 {
				net.Add(NewAffine(1.3, 0.2), NewActivation(ActLeakyReLU),
					NewChannelAffine(widths[i+1]/2, []float64{0.7, 1.9}, []float64{-0.2, 0.4}))
			}
		}
		net.Add(NewActivation(ActLeakyReLU), NewAffine(3, -0.5))
		check(net, "prelude+tails "+ActLeakyReLU, widths, rows)
	}
}

// TestForward32RejectsUnsupported: unsupported layers (residual blocks,
// conv) and an empty network fail compilation instead of miscompiling —
// the caller keeps the float64 path.
func TestForward32RejectsUnsupported(t *testing.T) {
	body := NewNetwork(7)
	body.Add(NewActivation(ActTanh))
	res := NewNetwork(7)
	res.Add(NewResidual(body), NewFlatten(), res.NewDense(12, 2))
	conv := NewNetwork(7)
	conv.Add(conv.NewConv1D(2, 3, 3, 1), NewFlatten(), conv.NewDense(3*9, 2))
	cases := []struct {
		name string
		net  *Network
	}{
		{"residual", res},
		{"conv", conv},
		{"empty network", NewNetwork(1)},
	}
	for _, tc := range cases {
		if _, err := NewForward32(tc.net); err == nil {
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
		out64 := make([]float64, tc.rows*outDim)
		b.Run("f32/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := f32.ForwardFloat64(out64, in, tc.rows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
