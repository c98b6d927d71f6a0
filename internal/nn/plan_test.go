package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// randomVectorNet draws a network compileSegments accepts whole: an
// optional Affine, ChannelAffine or activation prelude, then one to four
// Dense layers, each followed by any activation, an Affine or
// ChannelAffine (after the activation or alone), Dropout or Flatten.
func randomVectorNet(rng *rand.Rand) (*Network, int, int) {
	acts := []string{ActReLU, ActTanh, ActSigmoid, ActLeakyReLU, ActIdentity}
	chanAffine := func(width int) *ChannelAffine {
		blocks := 1
		for _, b := range []int{4, 3, 2} {
			if width%b == 0 && rng.Intn(2) == 0 {
				blocks = b
				break
			}
		}
		scales, shifts := make([]float64, blocks), make([]float64, blocks)
		for i := range scales {
			scales[i] = 2*rng.Float64() - 1
			shifts[i] = rng.NormFloat64()
		}
		return NewChannelAffine(width/blocks, scales, shifts)
	}
	elemwise := func(width int) Layer {
		switch rng.Intn(6) {
		case 0:
			return NewAffine(2*rng.Float64()-1, rng.NormFloat64())
		case 1:
			return chanAffine(width)
		case 2:
			return &Dropout{P: 0.3}
		case 3:
			return NewFlatten()
		}
		return nil
	}
	net := NewNetwork(rng.Int63())
	in := 1 + rng.Intn(40)
	switch rng.Intn(4) {
	case 1:
		net.Add(NewAffine(0.5+rng.Float64(), rng.NormFloat64()))
	case 2:
		net.Add(chanAffine(in))
	case 3:
		net.Add(NewActivation(acts[rng.Intn(len(acts))]))
	}
	cols := in
	for depth := 1 + rng.Intn(4); depth > 0; depth-- {
		out := 1 + rng.Intn(40)
		net.Add(net.NewDense(cols, out))
		cols = out
		if rng.Intn(4) != 0 {
			net.Add(NewActivation(acts[rng.Intn(len(acts))]))
		}
		if l := elemwise(cols); l != nil {
			net.Add(l)
		}
	}
	return net, in, cols
}

// TestPlanMatchesLayerWalk is the differential test of the f64 plan:
// Forward and ForwardInto equal the plain layer walk, every layer
// through its own Forward, in every bit. It covers random vector
// networks (every activation, Affine and ChannelAffine preludes and
// tails, Dropout and Flatten between segments), which the plan runs
// whole, and CNNs with dense heads, where it runs from the layer named
// by start. Each runs unfrozen and frozen, at zero, one, short, odd and
// parallel-split row counts, with -0 biases and ±Inf/NaN inputs.
func TestPlanMatchesLayerWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	type model struct {
		name    string
		net     *Network
		sample  []int // input shape without the batch dim
		out     int
		start   int // index of the plan's first layer
		special bool
	}
	var models []model
	for i := 0; i < 60; i++ {
		net, in, out := randomVectorNet(rng)
		models = append(models, model{fmt.Sprintf("vector%d", i), net, []int{in}, out, 0, i%2 == 1})
	}
	cnn2d := NewNetwork(5)
	cnn2d.Add(cnn2d.NewConv2D(1, 3, 3, 3, 1), NewActivation(ActReLU), NewMaxPool2D(2), NewFlatten(),
		cnn2d.NewDense(27, 16), NewActivation(ActReLU), cnn2d.NewDense(16, 4))
	cnn1d := NewNetwork(6)
	cnn1d.Add(NewChannelAffine(8, []float64{0.5, -2}, []float64{1, 0.25}), cnn1d.NewConv1D(2, 4, 3, 1),
		NewActivation(ActTanh), NewFlatten(), cnn1d.NewDense(24, 8), NewActivation(ActSigmoid),
		NewAffine(1.5, -0.5), cnn1d.NewDense(8, 3), NewChannelAffine(1, []float64{2, 3, 4}, nil))
	body := NewNetwork(7)
	body.Add(body.NewDense(27, 27), NewActivation(ActTanh))
	residual := NewNetwork(8)
	residual.Add(residual.NewConv2D(1, 3, 3, 3, 1), NewMaxPool2D(2), NewFlatten(), NewResidual(body),
		&Dropout{P: 0.2}, residual.NewDense(27, 5), NewActivation(ActLeakyReLU))
	models = append(models,
		model{"cnn2d", cnn2d, []int{1, 8, 8}, 4, 3, false},
		model{"cnn1d", cnn1d, []int{2, 8}, 3, 2, true},
		model{"residual", residual, []int{1, 8, 8}, 5, 4, false})
	for mi, m := range models {
		if m.net.plan == nil || m.net.plan.start != m.start {
			t.Fatalf("%s: plan %+v, want one from layer %d", m.name, m.net.plan, m.start)
		}
		for _, p := range m.net.Params() {
			if p.Name == "bias" && mi%2 == 0 {
				p.W.Data()[0] = math.Copysign(0, -1)
			}
		}
		for _, frozen := range []bool{false, true} {
			if frozen {
				m.net.Freeze()
			}
			for _, rows := range []int{0, 1, 7, 33, 600} {
				name := fmt.Sprintf("%s/frozen=%v/rows=%d", m.name, frozen, rows)
				in := tensor.NumElements(m.sample)
				x, err := tensor.FromSlice(denseKernelInputs(rng, rows, in, m.special), append([]int{rows}, m.sample...)...)
				if err != nil {
					t.Fatal(err)
				}
				want, err := m.net.forward(x, false)
				if err != nil {
					t.Fatalf("%s: layer walk: %v", name, err)
				}
				got, err := m.net.Forward(x)
				if err != nil {
					t.Fatalf("%s: Forward: %v", name, err)
				}
				assertSameBits(t, name+" Forward", got.Data(), want.Contiguous().Data())
				dst := tensor.Full(math.NaN(), rows, m.out)
				if err := m.net.ForwardInto(dst, x); err != nil {
					t.Fatalf("%s: ForwardInto: %v", name, err)
				}
				assertSameBits(t, name+" ForwardInto", dst.Data(), want.Contiguous().Data())
			}
		}
	}
}

// TestPlanWalksInputsItDoesNotTake: an input the plan does not take
// walks every layer, so it fails where the walk fails, naming the layer
// by its index in Network.Layers, and a rank-3 input a Flatten reaches
// runs the plan.
func TestPlanWalksInputsItDoesNotTake(t *testing.T) {
	net := NewNetwork(9)
	net.Add(net.NewConv1D(1, 2, 3, 1), NewActivation(ActReLU), net.NewDense(12, 2))
	if net.plan == nil || net.plan.start != 1 {
		t.Fatalf("plan %+v, want one from layer 1", net.plan)
	}
	x := tensor.New(3, 1, 8) // the conv's [3, 2, 6] output reaches the Dense unflattened
	_, err := net.Forward(x)
	if want := "nn: layer 2 (Dense(12->2))"; err == nil || err.Error()[:len(want)] != want {
		t.Fatalf("Forward error %v, want one starting %q", err, want)
	}
	if err := net.ForwardInto(tensor.New(3, 2), tensor.New(3, 5)); err == nil {
		t.Fatal("want the conv's error for a rank-2 input")
	}
	flat := NewNetwork(9)
	flat.Add(NewFlatten(), flat.NewDense(12, 2))
	if _, err := flat.Forward(tensor.New(3, 2, 6)); err != nil {
		t.Fatal(err)
	}
	if err := flat.ForwardInto(tensor.New(3, 3), tensor.New(3, 2, 6)); err == nil {
		t.Fatal("want an error for a dst of the wrong width")
	}
}

// TestCNNForwardAllocsIndependentOfHead: the plan keeps a dense head's
// intermediates in pooled buffers, so a frozen CNN's steady-state
// Forward allocates the same number of objects whatever the number of
// Dense layers in its head. A residual block runs its body through the
// body's plan at inference, so the same holds for the number of Dense
// layers in a residual body.
func TestCNNForwardAllocsIndependentOfHead(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc assertions run in the non-race job")
	}
	rng := rand.New(rand.NewSource(4))
	cases := []struct {
		name  string
		x     *tensor.Tensor
		build func(depth int) *Network
	}{
		{"cnn head", randTensor(rng, 4, 1, 8, 8), func(depth int) *Network {
			net := NewNetwork(10)
			net.Add(net.NewConv2D(1, 2, 3, 3, 1), NewActivation(ActReLU), NewMaxPool2D(2), NewFlatten(), net.NewDense(18, 8))
			for i := 1; i < depth; i++ {
				net.Add(NewActivation(ActReLU), net.NewDense(8, 8))
			}
			return net
		}},
		{"residual body", randTensor(rng, 32, 12), func(depth int) *Network {
			body := NewNetwork(11)
			body.Add(body.NewDense(12, 40))
			for i := 1; i < depth; i++ {
				body.Add(NewActivation(ActReLU), body.NewDense(40, 40))
			}
			body.Add(NewActivation(ActReLU), body.NewDense(40, 12))
			net := NewNetwork(12)
			return net.Add(NewResidual(body), net.NewDense(12, 3))
		}},
	}
	for _, tc := range cases {
		var base float64
		for _, depth := range []int{1, 2, 5} {
			net := tc.build(depth)
			net.Freeze()
			if _, err := net.Forward(tc.x); err != nil { // warm the pools
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := net.Forward(tc.x); err != nil {
					t.Fatal(err)
				}
			})
			if depth == 1 {
				base = allocs
			} else if allocs != base {
				t.Fatalf("%s: depth %d allocates %.1f objects per Forward, depth 1 %.1f", tc.name, depth, allocs, base)
			}
		}
	}
}
