// EnsembleEngine against a member-by-member reference: the mean and
// per-row variance must match bit for bit whether the members are bare
// LocalEngines or hidden behind a generic Engine.
package hpacml_test

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	hpacml "repro"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// ensembleOracle is the reference deep-ensemble forward: every member
// network predicts the batch, the per-element sum and sum of squares
// accumulate in member order, the prediction is their mean, and row r's
// variance is the population variance across members averaged over the
// row's features. A NaN or overflowed feature variance makes the row
// +Inf, so a poisoned row never reads as confident.
func ensembleOracle(t *testing.T, nets []*nn.Network, x *tensor.Tensor, outDim int) (mean, rowVar []float64) {
	t.Helper()
	rows := x.Dim(0)
	member := tensor.New(rows, outDim)
	sum := make([]float64, rows*outDim)
	sumSq := make([]float64, rows*outDim)
	for _, net := range nets {
		if err := net.ForwardInto(member, x); err != nil {
			t.Fatal(err)
		}
		for i, v := range member.Data() {
			sum[i] += v
			sumSq[i] += v * v
		}
	}
	m := float64(len(nets))
	mean = make([]float64, len(sum))
	for i := range mean {
		mean[i] = sum[i] / m
	}
	rowVar = make([]float64, rows)
	for r := range rowVar {
		var acc float64
		for c := 0; c < outDim; c++ {
			i := r*outDim + c
			mu := sum[i] / m
			v := sumSq[i]/m - mu*mu
			if math.IsNaN(v) || math.IsInf(v, 1) {
				acc = math.Inf(1)
				break
			}
			if v > 0 {
				acc += v
			}
		}
		rowVar[r] = acc / float64(outDim)
	}
	return mean, rowVar
}

// passThrough hides a member's concrete type behind the Engine
// interface, so the ensemble cannot tell it is a LocalEngine.
type passThrough struct{ hpacml.Engine }

// TestEnsembleMatchesMemberOracle runs 1-, 2- and 3-member ensembles
// over one set of .gmod files, each both as NewLocalEnsemble and with
// the same LocalEngines wrapped in a pass-through Engine, and checks
// every call against ensembleOracle. Each engine is reused across all
// calls, so batch-shape changes in both directions run on warm scratch.
func TestEnsembleMatchesMemberOracle(t *testing.T) {
	const inDim, outDim = 3, 2
	dir := t.TempDir()
	var paths []string
	var nets []*nn.Network
	for _, seed := range []int64{301, 302, 303} {
		p := saveVectorNet(t, dir, seed, inDim, outDim)
		net, err := nn.Load(p)
		if err != nil {
			t.Fatal(err)
		}
		paths, nets = append(paths, p), append(nets, net)
	}

	// engines[k] holds the local and the wrapped ensemble of the first k
	// members.
	engines := map[int][2]*hpacml.EnsembleEngine{}
	for k := 1; k <= len(paths); k++ {
		local, err := hpacml.NewLocalEnsemble(paths[:k]...)
		if err != nil {
			t.Fatal(err)
		}
		wrappedMembers := make([]hpacml.Engine, k)
		for i, p := range paths[:k] {
			wrappedMembers[i] = passThrough{hpacml.NewLocalEngine(p)}
		}
		wrapped, err := hpacml.NewEnsembleEngine(wrappedMembers...)
		if err != nil {
			t.Fatal(err)
		}
		defer local.Close()
		defer wrapped.Close()
		engines[k] = [2]*hpacml.EnsembleEngine{local, wrapped}
	}

	// check infers x with both k-member ensembles and returns the
	// oracle's row variance once both matched it.
	check := func(name string, k int, x *tensor.Tensor) []float64 {
		t.Helper()
		wantMean, wantVar := ensembleOracle(t, nets[:k], x, outDim)
		for i, eng := range engines[k] {
			kind := [2]string{"local", "wrapped"}[i]
			out := tensor.Full(-99, x.Dim(0), outDim)
			if err := eng.Infer(t.Context(), x, out); err != nil {
				t.Fatalf("%s/%s: %v", name, kind, err)
			}
			if !sameBits(out.Data(), wantMean) {
				t.Fatalf("%s/%s mean = %v, want %v", name, kind, out.Data(), wantMean)
			}
			if !sameBits(eng.RowVariance(), wantVar) {
				t.Fatalf("%s/%s rowVar = %v, want %v", name, kind, eng.RowVariance(), wantVar)
			}
		}
		return wantVar
	}

	// Row counts on both sides of the dense kernel's packing threshold,
	// then a shrink back after the largest batch.
	for _, rows := range []int{1, 7, 9, 33, 600, 7} {
		check("rows", 3, goldenBatch(t, rows, inDim))
	}

	inf := math.Inf(1)
	x, err := tensor.FromSlice([]float64{
		inf, 0, 0,
		-inf, 0.5, -0.5,
		inf, -inf, 0,
		0.1, 0.2, 0.3,
	}, 4, inDim)
	if err != nil {
		t.Fatal(err)
	}
	check("inf-inputs", 3, x)

	for r, v := range check("two-members", 2, goldenBatch(t, 3, inDim)) {
		if v <= 0 {
			t.Errorf("two-members row %d variance = %v: different seeds must disagree", r, v)
		}
	}

	for r, v := range check("single-member", 1, goldenBatch(t, 3, inDim)) {
		if v != 0 {
			t.Errorf("single-member row %d variance = %v, want 0", r, v)
		}
	}

	x, err = tensor.FromSlice([]float64{0.1, 0.2, 0.3, math.NaN(), 0.2, 0.3, 0.4, 0.5, 0.6}, 3, inDim)
	if err != nil {
		t.Fatal(err)
	}
	nanVar := check("nan-row", 2, x)
	if !math.IsInf(nanVar[1], 1) {
		t.Errorf("NaN row variance = %v, want +Inf", nanVar[1])
	}
	for _, r := range []int{0, 2} {
		if math.IsInf(nanVar[r], 0) || math.IsNaN(nanVar[r]) {
			t.Errorf("finite row %d variance = %v, poisoned by the NaN row", r, nanVar[r])
		}
	}

	if _, err := hpacml.NewEnsembleEngine(hpacml.NewLocalEngine(paths[0]), nil); err == nil {
		t.Error("a nil member must be rejected")
	}
	if _, err := hpacml.NewEnsembleEngine(); err == nil {
		t.Error("an ensemble without members must be rejected")
	}
}

// TestEnsembleEngineSteadyStateAllocs: once warm, an ensemble Infer
// allocates nothing, whether its members are LocalEngines or hidden
// behind a generic Engine.
func TestEnsembleEngineSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc assertions run in the non-race job")
	}
	const inDim, outDim, rows = 3, 2, 32
	dir := t.TempDir()
	var paths []string
	var wrappedMembers []hpacml.Engine
	for _, seed := range []int64{311, 312, 313} {
		p := saveVectorNet(t, dir, seed, inDim, outDim)
		paths = append(paths, p)
		wrappedMembers = append(wrappedMembers, passThrough{hpacml.NewLocalEngine(p)})
	}
	local, err := hpacml.NewLocalEnsemble(paths...)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	wrapped, err := hpacml.NewEnsembleEngine(wrappedMembers...)
	if err != nil {
		t.Fatal(err)
	}
	defer wrapped.Close()

	ctx := t.Context()
	x := goldenBatch(t, rows, inDim)
	out := tensor.New(rows, outDim)
	for name, eng := range map[string]*hpacml.EnsembleEngine{"local": local, "wrapped": wrapped} {
		if err := eng.Infer(ctx, x, out); err != nil { // warm members and scratch
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := eng.Infer(ctx, x, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s members: steady-state Infer allocates %.1f objects/call, want 0", name, allocs)
		}
	}
}

// BenchmarkEnsembleInfer times a 3-member NewLocalEnsemble on the
// benchmark's two f64 MLP shapes, small (3-64-32-1) and wide
// (64-512-512-16), at 32 rows: three member forwards plus the
// mean/variance pass. ns/row is the figure to compare.
func BenchmarkEnsembleInfer(b *testing.B) {
	const rows = 32
	for _, tc := range []struct {
		name   string
		widths []int
	}{
		{"small/b32", []int{3, 64, 32, 1}},
		{"wide/b32", []int{64, 512, 512, 16}},
	} {
		dir := b.TempDir()
		paths := make([]string, 3)
		for i := range paths {
			net := nn.NewNetwork(int64(11 + i))
			for l := 0; l+1 < len(tc.widths); l++ {
				if l > 0 {
					net.Add(nn.NewActivation(nn.ActReLU))
				}
				net.Add(net.NewDense(tc.widths[l], tc.widths[l+1]))
			}
			paths[i] = filepath.Join(dir, fmt.Sprintf("member%d.gmod", i))
			if err := net.Save(paths[i]); err != nil {
				b.Fatal(err)
			}
		}
		eng, err := hpacml.NewLocalEnsemble(paths...)
		if err != nil {
			b.Fatal(err)
		}
		in, outDim := tc.widths[0], tc.widths[len(tc.widths)-1]
		x := tensor.New(rows, in)
		xd := x.Data()
		for i := range xd {
			xd[i] = math.Sin(float64(i) * 0.37)
		}
		out := tensor.New(rows, outDim)
		ctx := context.Background()
		if err := eng.Infer(ctx, x, out); err != nil { // load members and warm scratch
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if err := eng.Infer(ctx, x, out); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
		eng.Close()
	}
}
