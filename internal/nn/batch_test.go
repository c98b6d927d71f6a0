package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func mlpForTest(seed int64) *Network {
	net := NewNetwork(seed)
	net.Add(net.NewDense(6, 24), NewActivation(ActTanh), net.NewDense(24, 3))
	return net
}

func randInput(rng *rand.Rand, rows, cols int) *tensor.Tensor {
	x := tensor.New(rows, cols)
	d := x.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return x
}

// TestForwardIntoMatchesForward checks the zero-allocation path returns
// bit-identical values to the allocating one.
func TestForwardIntoMatchesForward(t *testing.T) {
	net := mlpForTest(11)
	rng := rand.New(rand.NewSource(2))
	for _, rows := range []int{1, 5, 64} {
		x := randInput(rng, rows, 6)
		want, err := net.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		dst := tensor.Full(-99, rows, 3)
		if err := net.ForwardInto(dst, x); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < 3; j++ {
				if dst.At(i, j) != want.At(i, j) {
					t.Fatalf("rows=%d: ForwardInto differs at (%d,%d)", rows, i, j)
				}
			}
		}
	}
}

func TestForwardIntoShapeMismatch(t *testing.T) {
	net := mlpForTest(11)
	x := tensor.New(4, 6)
	if err := net.ForwardInto(tensor.New(4, 2), x); err == nil {
		t.Fatal("want error for wrong dst shape")
	}
	if err := net.ForwardInto(nil, x); err == nil {
		t.Fatal("want error for nil dst")
	}
}

// TestForwardIntoZeroAllocSteadyState is the arena's contract: after the
// first call warms the scratch buffers, small-batch inference performs no
// heap allocations.
func TestForwardIntoZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc assertions run in the non-race job")
	}
	// normalized is the standardization-wrapped MLP hpacml-train
	// -normalize writes: per-feature affine in, affine out.
	normalized := NewNetwork(3)
	normalized.Add(NewChannelAffine(1, []float64{0.5, 2, 1, 0.25, 4, 1}, []float64{0.1, -1, 0, 0.3, 2, -0.5}),
		normalized.NewDense(6, 24), NewActivation(ActTanh), normalized.NewDense(24, 3),
		NewAffine(2, 0.5))
	for name, net := range map[string]*Network{"mlp": mlpForTest(3), "normalized": normalized} {
		x := randInput(rand.New(rand.NewSource(9)), 1, 6)
		dst := tensor.New(1, 3)
		if err := net.ForwardInto(dst, x); err != nil { // warm the arena
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := net.ForwardInto(dst, x); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: steady-state ForwardInto allocates %.1f objects/call, want 0", name, allocs)
		}
	}
}

// TestForwardTrailingViewLayerDetachesScratch guards the arena against
// view-returning trailing layers: a network ending in Flatten must not
// hand the caller a tensor aliasing pooled scratch memory.
func TestForwardTrailingViewLayerDetachesScratch(t *testing.T) {
	net := NewNetwork(4)
	net.Add(net.NewDense(3, 4), NewFlatten())
	x := randInput(rand.New(rand.NewSource(8)), 2, 3)
	y1, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := y1.Clone()
	// A second pass with different inputs would clobber y1 if it aliased
	// the pooled scratch buffer.
	x2 := randInput(rand.New(rand.NewSource(99)), 2, 3)
	if _, err := net.Forward(x2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < y1.Dim(0); i++ {
		for j := 0; j < y1.Dim(1); j++ {
			if y1.At(i, j) != snapshot.At(i, j) {
				t.Fatal("Forward result aliases pooled scratch memory")
			}
		}
	}
}
