package hpacml_test

import (
	"context"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	hpacml "repro"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// frozenTestNet builds the 6-128-64-3 MLP the frozen-engine tests
// serve. At 33 rows its middle layer is large enough to split its panels
// across workers.
func frozenTestNet(seed int64) *nn.Network {
	net := nn.NewNetwork(seed)
	net.Add(net.NewDense(6, 128), nn.NewActivation(nn.ActReLU),
		net.NewDense(128, 64), nn.NewActivation(nn.ActTanh), net.NewDense(64, 3))
	return net
}

// forwardOf returns net's per-call output for x. Call it before net is
// published, so that it runs the unfrozen path.
func forwardOf(t *testing.T, net *nn.Network, x *tensor.Tensor) []float64 {
	t.Helper()
	y, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	return y.Data()
}

// assertFrozen fails unless net refuses training, which only a frozen
// network does.
func assertFrozen(t *testing.T, net *nn.Network, x *tensor.Tensor, what string) {
	t.Helper()
	if _, err := net.ForwardTrain(x); err == nil {
		t.Fatalf("%s: the published network is not frozen", what)
	}
}

func inferBits(t *testing.T, eng hpacml.Engine, x *tensor.Tensor, want []float64, what string) {
	t.Helper()
	out := tensor.New(x.Dim(0), len(want)/x.Dim(0))
	if err := eng.Infer(context.Background(), x, out); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for i, w := range want {
		if g := out.Data()[i]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: element %d = %v, want %v", what, i, g, w)
		}
	}
}

// TestLocalEngineServesFrozenNetworks: a network a LocalEngine resolves
// from disk, or one handed to NewLocalEngineFor, is frozen before any
// engine sees it, and serves its per-call answers bit for bit.
// Invalidate followed by a rewritten file serves the new weights; an
// engine built by NewLocalEngineFor keeps its network through
// Invalidate, with no file at its path.
func TestLocalEngineServesFrozenNetworks(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "frozen.gmod")
	x := goldenBatch(t, 9, 6)
	netA, netB := frozenTestNet(1), frozenTestNet(2)
	wantA, wantB := forwardOf(t, netA, x), forwardOf(t, netB, x)
	if err := netA.Save(path); err != nil {
		t.Fatal(err)
	}

	eng := hpacml.NewLocalEngine(path)
	inferBits(t, eng, x, wantA, "disk load")
	assertFrozen(t, eng.Network(), x, "disk load")
	if other := hpacml.NewLocalEngine(path); other.Warmup(context.Background(), nil) != nil || other.Network() != eng.Network() {
		t.Fatal("a second engine on the path did not share the cached network")
	}

	if err := netB.Save(path); err != nil {
		t.Fatal(err)
	}
	eng.Invalidate()
	inferBits(t, eng, x, wantB, "after Invalidate and a rewritten file")

	stored := frozenTestNet(3)
	wantStored := forwardOf(t, stored, x)
	storedPath := filepath.Join(dir, "stored.gmod")
	viaFor := hpacml.NewLocalEngineFor(storedPath, stored, nil)
	assertFrozen(t, stored, x, "NewLocalEngineFor")
	inferBits(t, viaFor, x, wantStored, "NewLocalEngineFor")
	if viaFor.Network() != stored {
		t.Fatal("the engine did not resolve the handed network")
	}
	viaFor.Invalidate()
	inferBits(t, viaFor, x, wantStored, "NewLocalEngineFor after Invalidate")
	if viaFor.Network() != stored {
		t.Fatal("Invalidate swapped the handed network out")
	}
}

// TestFrozenNetworkSharedAcrossSwap: two goroutines run one engine's
// frozen network concurrently while a second engine, built on a
// replacement, is published through one pointer; each swaps onto it at
// a batch boundary, the way serve replicas do. Every batch must equal
// the per-call answers of the network its engine serves. Run it under
// -race.
func TestFrozenNetworkSharedAcrossSwap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "swap.gmod")
	x := goldenBatch(t, 33, 6)
	netA, netB := frozenTestNet(4), frozenTestNet(5)
	wantA, wantB := forwardOf(t, netA, x), forwardOf(t, netB, x)
	engA, engB := hpacml.NewLocalEngineFor(path, netA, nil), hpacml.NewLocalEngineFor(path, netB, nil)
	for _, e := range []*hpacml.LocalEngine{engA, engB} {
		if err := e.Warmup(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
	}
	var cur atomic.Pointer[hpacml.LocalEngine]
	cur.Store(engA)

	var batches atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan string, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := tensor.New(33, 3)
			for i := 0; i < 200; i++ {
				eng := cur.Load()
				if err := eng.Infer(context.Background(), x, out); err != nil {
					errs <- err.Error()
					return
				}
				batches.Add(1)
				want := wantA
				if eng == engB {
					want = wantB
				}
				for j, v := range want {
					if math.Float64bits(out.Data()[j]) != math.Float64bits(v) {
						errs <- "a batch did not match the network its engine serves"
						return
					}
				}
			}
		}()
	}
	for batches.Load() < 20 && len(errs) == 0 {
		runtime.Gosched()
	}
	cur.Store(engB)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
