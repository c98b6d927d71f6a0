package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// conv1dRefForward computes the valid cross-correlation with naive
// direct loops — the pre-im2col kernel the blocked path must reproduce
// (within FP reassociation).
func conv1dRefForward(c *Conv1D, x *tensor.Tensor) *tensor.Tensor {
	b, l := x.Dim(0), x.Dim(2)
	lOut := (l-c.K)/c.Stride + 1
	out := tensor.New(b, c.OutC, lOut)
	for n := 0; n < b; n++ {
		for oc := 0; oc < c.OutC; oc++ {
			for p := 0; p < lOut; p++ {
				acc := c.Bias.W.Data()[oc]
				for ic := 0; ic < c.InC; ic++ {
					for t := 0; t < c.K; t++ {
						acc += x.At(n, ic, p*c.Stride+t) * c.Weight.W.At(oc, ic, t)
					}
				}
				out.Set(acc, n, oc, p)
			}
		}
	}
	return out
}

// conv1dRefBackward accumulates dW/dB and returns dX with naive loops.
func conv1dRefBackward(c *Conv1D, x, g *tensor.Tensor) (dW, dB, dx *tensor.Tensor) {
	b, l := x.Dim(0), x.Dim(2)
	lOut := g.Dim(2)
	dW = tensor.New(c.OutC, c.InC, c.K)
	dB = tensor.New(c.OutC)
	dx = tensor.New(b, c.InC, l)
	for n := 0; n < b; n++ {
		for oc := 0; oc < c.OutC; oc++ {
			for p := 0; p < lOut; p++ {
				gv := g.At(n, oc, p)
				dB.Set(dB.At(oc)+gv, oc)
				for ic := 0; ic < c.InC; ic++ {
					for t := 0; t < c.K; t++ {
						pos := p*c.Stride + t
						dW.Set(dW.At(oc, ic, t)+gv*x.At(n, ic, pos), oc, ic, t)
						dx.Set(dx.At(n, ic, pos)+gv*c.Weight.W.At(oc, ic, t), n, ic, pos)
					}
				}
			}
		}
	}
	return dW, dB, dx
}

// TestConv1DIm2colMatchesReference sweeps random shapes (channels,
// kernels, strides, batch sizes) and checks the im2col forward and
// backward against the naive direct convolution.
func TestConv1DIm2colMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for trial := 0; trial < 25; trial++ {
		inC := 1 + rng.Intn(4)
		outC := 1 + rng.Intn(5)
		k := 1 + rng.Intn(4)
		s := 1 + rng.Intn(3)
		l := k + rng.Intn(12)
		b := 1 + rng.Intn(6)

		net := NewNetwork(int64(trial))
		c := net.NewConv1D(inC, outC, k, s)
		x := randTensor(rng, b, inC, l)

		// Forward: training path (arena) and inference path (pool) must
		// both match the reference.
		for _, train := range []bool{true, false} {
			got, err := c.Forward(x, train)
			if err != nil {
				t.Fatal(err)
			}
			want := conv1dRefForward(c, x)
			gd, wd := got.Data(), want.Data()
			for i := range wd {
				if math.Abs(gd[i]-wd[i]) > 1e-9*(1+math.Abs(wd[i])) {
					t.Fatalf("trial %d train=%v: forward[%d] = %g, want %g", trial, train, i, gd[i], wd[i])
				}
			}
		}

		// Backward (the last Forward above ran train=false; redo train).
		if _, err := c.Forward(x, true); err != nil {
			t.Fatal(err)
		}
		lOut := (l-k)/s + 1
		g := randTensor(rng, b, outC, lOut)
		c.Weight.ZeroGrad()
		c.Bias.ZeroGrad()
		dx, err := c.Backward(g)
		if err != nil {
			t.Fatal(err)
		}
		wantW, wantB, wantX := conv1dRefBackward(c, x, g)
		checkClose(t, trial, "dW", c.Weight.Grad.Data(), wantW.Data())
		checkClose(t, trial, "dB", c.Bias.Grad.Data(), wantB.Data())
		checkClose(t, trial, "dX", dx.Data(), wantX.Data())
	}
}

func checkClose(t *testing.T, trial int, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("trial %d: %s[%d] = %g, want %g", trial, name, i, got[i], want[i])
		}
	}
}

// TestConv1DBackwardAccumulates checks that a second backward pass adds
// into the existing parameter gradients (the Param contract the im2col
// staging buffer must preserve).
func TestConv1DBackwardAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	net := NewNetwork(3)
	c := net.NewConv1D(2, 3, 3, 1)
	x := randTensor(rng, 2, 2, 7)
	g := randTensor(rng, 2, 3, 5)

	c.Weight.ZeroGrad()
	c.Bias.ZeroGrad()
	if _, err := c.Forward(x, true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Backward(g); err != nil {
		t.Fatal(err)
	}
	once := append([]float64(nil), c.Weight.Grad.Data()...)

	if _, err := c.Forward(x, true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Backward(g); err != nil {
		t.Fatal(err)
	}
	for i, v := range c.Weight.Grad.Data() {
		if math.Abs(v-2*once[i]) > 1e-12*(1+math.Abs(2*once[i])) {
			t.Fatalf("dW[%d] = %g after two passes, want %g", i, v, 2*once[i])
		}
	}
}

// TestConvBackwardRejectsMismatchedGrad: Backward errors, before it
// reads any data, on a gradient whose rank, batch, channels or spatial
// extent differs from the cached training forward's output, and when no
// training forward precedes it.
func TestConvBackwardRejectsMismatchedGrad(t *testing.T) {
	for _, tc := range []struct {
		name    string
		layer   func() Layer
		in, out []int
	}{
		{"conv1d", func() Layer { return NewNetwork(1).NewConv1D(2, 3, 3, 1) }, []int{4, 2, 9}, []int{4, 3, 7}},
		{"conv2d", func() Layer { return NewNetwork(1).NewConv2D(2, 3, 3, 2, 1) }, []int{4, 2, 6, 5}, []int{4, 3, 4, 4}},
	} {
		with := func(i, d int) []int {
			s := append([]int(nil), tc.out...)
			s[i] += d
			return s
		}
		bad := [][]int{tc.out[:len(tc.out)-1], with(0, 1), with(1, -1)}
		for i := 2; i < len(tc.out); i++ {
			bad = append(bad, with(i, 1), with(i, -1))
		}
		for _, shape := range bad {
			l := tc.layer()
			if _, err := l.Forward(tensor.New(tc.in...), true); err != nil {
				t.Fatal(err)
			}
			if _, err := l.Backward(tensor.New(shape...)); err == nil {
				t.Errorf("%s: grad %v after a %v forward: no error", tc.name, shape, tc.in)
			}
		}
		if _, err := tc.layer().Backward(tensor.New(tc.out...)); err == nil {
			t.Errorf("%s: backward without forward: no error", tc.name)
		}
	}
}

// TestConv1DConcurrentInference: a never-trained Conv1D shared by
// concurrent inference callers (regions sharing a cached model) must be
// race-free, each caller transposing the kernel into its own pooled
// buffers, and every caller must see identical outputs. Run under -race
// in CI.
func TestConv1DConcurrentInference(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	net := NewNetwork(7)
	c := net.NewConv1D(2, 3, 3, 1)
	x := randTensor(rng, 3, 2, 10)
	want, err := c.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh layer so the concurrent callers start with an empty pool.
	c2 := net.NewConv1D(2, 3, 3, 1)
	c2.Weight.W.CopyFrom(c.Weight.W)
	c2.Bias.W.CopyFrom(c.Bias.W)
	const callers = 4
	outs := make([]*tensor.Tensor, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = c2.Forward(x, false)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		od, wd := outs[i].Data(), want.Data()
		for j := range wd {
			if od[j] != wd[j] {
				t.Fatalf("caller %d output differs at %d", i, j)
			}
		}
	}
}

// TestConv1DTrainInferConsistency: the training (arena) and inference
// (pooled) forward paths share the same kernels, so their outputs must
// be bit-identical.
func TestConv1DTrainInferConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(207))
	net := NewNetwork(5)
	c := net.NewConv1D(3, 4, 2, 2)
	x := randTensor(rng, 4, 3, 9)
	yt, err := c.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	yi, err := c.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	td, id := yt.Data(), yi.Data()
	for i := range td {
		if td[i] != id[i] {
			t.Fatalf("train/infer forward differ at %d: %g vs %g", i, td[i], id[i])
		}
	}
}
