// Acceptance tests for the pluggable engine API: a region whose
// model() clause carries an http:// URI executes through a live
// hpacml-serve handler, and the fallback policy runs the accurate path
// when the server is down or the caller's deadline has expired.
package hpacml_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	hpacml "repro"

	"repro/internal/directive"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// saveVectorNet trains nothing — it saves a deterministic MLP mapping
// inDim features to outDim, so local and remote inference of the same
// file can be compared bit-for-bit.
func saveVectorNet(t *testing.T, dir string, seed int64, inDim, outDim int) string {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("vec_%d.gmod", seed))
	net := nn.NewNetwork(seed)
	net.Add(net.NewDense(inDim, 8), nn.NewActivation(nn.ActTanh), net.NewDense(8, outDim))
	if err := net.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// vectorRegion builds a flat [1, in] -> [1, out] region over x and y
// with the given model reference (path or URI).
func vectorRegion(t *testing.T, name, modelRef string, x, y []float64) *hpacml.Region {
	t.Helper()
	r, err := hpacml.NewRegion(name,
		hpacml.Directives(fmt.Sprintf(`
tensor functor(vin: [i, 0:FIN] = ([0:FIN]))
tensor functor(vout: [i, 0:FOUT] = ([0:FOUT]))
tensor map(to: vin(x[0:1]))
tensor map(from: vout(y[0:1]))
ml(infer) in(x) out(y) model(%q)
`, modelRef)),
		hpacml.BindInt("FIN", len(x)),
		hpacml.BindInt("FOUT", len(y)),
		hpacml.BindArray("x", x, len(x)),
		hpacml.BindArray("y", y, len(y)),
	)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// startServe hosts the model file behind a live serve handler and
// returns the base URL.
func startServe(t *testing.T, modelPath string) string {
	t.Helper()
	srv, err := serve.NewServer(serve.Config{MaxBatch: 8, Workers: 1},
		serve.ModelSpec{Name: "vec", Path: modelPath})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewHandler(srv))
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts.URL
}

// TestRemoteEngineMatchesLocal round-trips single and batched region
// execution through a live hpacml-serve handler and checks the answers
// against in-process inference of the same model file.
func TestRemoteEngineMatchesLocal(t *testing.T) {
	hpacml.ClearModelCache()
	const inDim, outDim, n = 3, 2, 5
	dir := t.TempDir()
	modelPath := saveVectorNet(t, dir, 41, inDim, outDim)
	base := startServe(t, modelPath)

	x := make([]float64, inDim)
	yLocal := make([]float64, outDim)
	yRemote := make([]float64, outDim)
	local := vectorRegion(t, "local", modelPath, x, yLocal)
	defer local.Close()
	remote := vectorRegion(t, "remote", base+"/vec", x, yRemote)
	defer remote.Close()

	rng := rand.New(rand.NewSource(9))
	for i := 0; i < n; i++ {
		for j := range x {
			x[j] = rng.Float64()
		}
		if err := local.Execute(nil); err != nil {
			t.Fatal(err)
		}
		want := append([]float64(nil), yLocal...)
		if err := remote.Execute(nil); err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if yRemote[j] != want[j] {
				t.Fatalf("invocation %d feature %d: remote %v != local %v", i, j, yRemote[j], want[j])
			}
		}
	}
	st := remote.Stats()
	if st.RemoteInference != n || st.Inferences != n || st.Fallbacks != 0 {
		t.Fatalf("remote stats: %+v", st)
	}
	if lst := local.Stats(); lst.RemoteInference != 0 {
		t.Fatalf("local region counted remote inference: %+v", lst)
	}

	// Batched: the whole batch travels as one request and scatters in
	// invocation order, matching the sequential loop.
	const batch = 4
	inputs := make([][]float64, batch)
	want := make([][]float64, batch)
	for i := range inputs {
		inputs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		copy(x, inputs[i])
		if err := local.Execute(nil); err != nil {
			t.Fatal(err)
		}
		want[i] = append([]float64(nil), yLocal...)
	}
	got := make([][]float64, batch)
	err := remote.ExecuteBatch(batch,
		func(i int) error { copy(x, inputs[i]); return nil },
		func(i int) error { got[i] = append([]float64(nil), yRemote...); return nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("batch row %d feature %d: remote %v != local %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	st = remote.Stats()
	if st.RemoteInference != n+batch || st.Batches != 1 || st.BatchedInvocations != batch {
		t.Fatalf("remote batch stats: %+v", st)
	}
}

// TestRemoteFallbackServerDown proves the automatic fallback policy: a
// region pointed at a dead server runs the accurate path instead of
// failing, and keeps doing so per invocation.
func TestRemoteFallbackServerDown(t *testing.T) {
	x := make([]float64, 2)
	y := make([]float64, 1)
	r := vectorRegion(t, "dead", "http://127.0.0.1:1/vec", x, y)
	defer r.Close()

	accurateRan := 0
	accurate := func() error { accurateRan++; y[0] = 42; return nil }
	for i := 0; i < 3; i++ {
		if err := r.Execute(accurate); err != nil {
			t.Fatalf("invocation %d: fallback should swallow the error, got %v", i, err)
		}
	}
	st := r.Stats()
	if accurateRan != 3 || st.Fallbacks != 3 || st.AccurateRuns != 3 || y[0] != 42 {
		t.Fatalf("fallback accounting: accurate=%d stats=%+v", accurateRan, st)
	}
	if st.Inferences != 0 || st.RemoteInference != 0 {
		t.Fatalf("no inference should have been counted: %+v", st)
	}

	// Without an accurate closure there is nothing to fall back to.
	if err := r.Execute(nil); err == nil {
		t.Fatal("want error when the server is down and no accurate path exists")
	}
}

// TestRemoteFallbackDeadline proves an expired caller deadline reaches
// the engine and triggers the accurate fallback even when the server is
// healthy.
func TestRemoteFallbackDeadline(t *testing.T) {
	hpacml.ClearModelCache()
	const inDim, outDim = 3, 2
	dir := t.TempDir()
	base := startServe(t, saveVectorNet(t, dir, 43, inDim, outDim))

	x := make([]float64, inDim)
	y := make([]float64, outDim)
	r := vectorRegion(t, "deadline", base+"/vec", x, y)
	defer r.Close()

	// A healthy warm-up first, so the deadline (not resolution) is what
	// fails.
	if err := r.Execute(nil); err != nil {
		t.Fatal(err)
	}

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	accurateRan := false
	if err := r.ExecuteContext(expired, func() error { accurateRan = true; return nil }); err != nil {
		t.Fatalf("fallback should swallow the deadline error, got %v", err)
	}
	st := r.Stats()
	if !accurateRan || st.Fallbacks != 1 || st.RemoteInference != 1 {
		t.Fatalf("deadline fallback: accurate=%v stats=%+v", accurateRan, st)
	}

	// A live context keeps working afterwards.
	if err := r.Execute(nil); err != nil {
		t.Fatal(err)
	}
	if st = r.Stats(); st.RemoteInference != 2 {
		t.Fatalf("recovery after deadline: %+v", st)
	}
}

// failingEngine is a custom backend that always errors, for exercising
// WithEngine and the FallbackEngine wrapper around arbitrary engines.
type failingEngine struct{ outDim int }

func (e *failingEngine) Infer(ctx context.Context, in, out *tensor.Tensor) error {
	return errors.New("boom")
}
func (e *failingEngine) OutputShape(in []int) ([]int, error) {
	return []int{in[0], e.outDim}, nil
}
func (e *failingEngine) Warmup(ctx context.Context, inShape []int) error { return nil }

// TestWithEngineCustomFallback injects a custom engine wrapped in the
// fallback policy and checks the Region honors both.
func TestWithEngineCustomFallback(t *testing.T) {
	const N = 4
	x := make([]float64, N)
	r, err := hpacml.NewRegion("custom",
		hpacml.Directives(`
tensor functor(f: [i, 0:1] = ([i]))
tensor map(to: f(x[0:N]))
tensor map(from: f(x[0:N]))
ml(infer) inout(x)
`),
		hpacml.BindInt("N", N),
		hpacml.BindArray("x", x, N),
		hpacml.WithEngine(hpacml.NewFallbackEngine(&failingEngine{outDim: 1})),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	accurateRan := false
	if err := r.Execute(func() error { accurateRan = true; return nil }); err != nil {
		t.Fatalf("custom fallback should swallow the engine error, got %v", err)
	}
	if st := r.Stats(); !accurateRan || st.Fallbacks != 1 {
		t.Fatalf("custom fallback: accurate=%v stats=%+v", accurateRan, st)
	}

	// Unwrapped, the same engine error propagates.
	bare, err := hpacml.NewRegion("bare",
		hpacml.Directives(`
tensor functor(f: [i, 0:1] = ([i]))
tensor map(to: f(x[0:N]))
tensor map(from: f(x[0:N]))
ml(infer) inout(x)
`),
		hpacml.BindInt("N", N),
		hpacml.BindArray("x", x, N),
		hpacml.WithEngine(&failingEngine{outDim: 1}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if err := bare.Execute(func() error { return nil }); err == nil {
		t.Fatal("bare failing engine must propagate its error")
	}
}

// TestRemoteURIValidation checks construction-time rejection of bad
// model and db URIs in a hand-built ml decl, which bypasses the
// directive parser's own check.
func TestRemoteURIValidation(t *testing.T) {
	x := make([]float64, 2)
	y := make([]float64, 1)
	build := func(ml *directive.MLDecl) error {
		_, err := hpacml.NewRegion("bad",
			hpacml.Directives(`
tensor functor(vin: [i, 0:2] = ([0:2]))
tensor functor(vout: [i, 0:1] = ([0:1]))
tensor map(to: vin(x[0:1]))
tensor map(from: vout(y[0:1]))
`),
			hpacml.Directive(ml),
			hpacml.BindArray("x", x, 2),
			hpacml.BindArray("y", y, 1),
		)
		return err
	}
	decls := func(ref string) []*directive.MLDecl {
		return []*directive.MLDecl{
			{Mode: directive.Infer, In: []string{"x"}, Out: []string{"y"}, Model: ref},
			{Mode: directive.Infer, In: []string{"x"}, Out: []string{"y"}, DB: ref},
		}
	}
	for _, ml := range decls("http://host/m") {
		if err := build(ml); err != nil {
			t.Fatalf("well-formed ref in %s rejected: %v", ml, err)
		}
	}
	for _, ref := range []string{
		"ftp://host/model",  // unsupported scheme
		"http://host/a?x=1", // query
		"http://host-only",  // no model-name path segment
	} {
		for _, ml := range decls(ref) {
			if build(ml) == nil {
				t.Fatalf("ref %q in %s should be rejected at construction", ref, ml)
			}
		}
	}
}
