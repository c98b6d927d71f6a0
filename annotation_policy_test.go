// Pins of the policies a region derives from its own annotation:
// accurate-path fallback from model() and trust(...), remote counting
// from model(), and capture sampling from capture(...). Every case
// drives only the directives and the Region's entry points, so the
// expected values hold however the runtime implements the policies.
package hpacml_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	hpacml "repro"

	"repro/internal/h5"
	"repro/internal/serve"
)

// policyRegion builds the flat region the pins drive: one invocation
// gathers x's two values as a [1, 2] row and scatters one output into
// y. ml is the region's ml directive.
func policyRegion(t *testing.T, name, ml string, x, y []float64, opts ...hpacml.Option) *hpacml.Region {
	t.Helper()
	r, err := hpacml.NewRegion(name, append([]hpacml.Option{
		hpacml.Directives(`
tensor functor(vin: [i, 0:2] = ([0:2]))
tensor functor(vout: [i, 0:1] = ([0:1]))
tensor map(to: vin(x[0:1]))
tensor map(from: vout(y[0:1]))
` + ml),
		hpacml.BindArray("x", x, 2),
		hpacml.BindArray("y", y, 1),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// varianceDownEngine reports a row variance (so a trust(var:...) gate
// accepts it) but fails every inference.
type varianceDownEngine struct{ downEngine }

func (varianceDownEngine) RowVariance() []float64 { return []float64{0} }

// policyCounters is the Stats subset the fallback pins check.
type policyCounters struct {
	Invocations, Inferences, AccurateRuns, Fallbacks, RemoteInference int
}

func policyCountersOf(s hpacml.Stats) policyCounters {
	return policyCounters{s.Invocations, s.Inferences, s.AccurateRuns, s.Fallbacks, s.RemoteInference}
}

// driveFallback runs one Execute, one ExecuteContext and one
// three-invocation ExecuteBatchRouted on r, each with an accurate path
// that writes -1, and checks every invocation took it.
func driveFallback(t *testing.T, r *hpacml.Region, y []float64) {
	t.Helper()
	accurate := func() error { y[0] = -1; return nil }
	y[0] = 0
	if err := r.Execute(accurate); err != nil || y[0] != -1 {
		t.Fatalf("Execute: y = %v, err = %v; want the accurate path", y, err)
	}
	y[0] = 0
	if err := r.ExecuteContext(context.Background(), accurate); err != nil || y[0] != -1 {
		t.Fatalf("ExecuteContext: y = %v, err = %v; want the accurate path", y, err)
	}
	var got []float64
	err := r.ExecuteBatchRouted(context.Background(), 3,
		func(i int) error { y[0] = 0; return nil },
		func(i int) error { y[0] = -float64(i + 1); return nil },
		func(i int) error { got = append(got, y[0]); return nil })
	if err != nil {
		t.Fatalf("ExecuteBatchRouted: %v", err)
	}
	if want := []float64{-1, -2, -3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ExecuteBatchRouted outputs %v, want %v", got, want)
	}
}

// TestModelURIFallsBack: a region whose model() is a URI with no
// server behind it runs its accurate path on every entry point that
// has one, counts each as a fallback, and never as remote inference;
// without an accurate path the engine error propagates.
func TestModelURIFallsBack(t *testing.T) {
	x, y := []float64{1, 2}, []float64{0}
	r := policyRegion(t, "dead", `ml(infer) in(x) out(y) model("http://127.0.0.1:1/m")`, x, y)
	driveFallback(t, r, y)
	want := policyCounters{Invocations: 5, AccurateRuns: 5, Fallbacks: 5}
	if got := policyCountersOf(r.Stats()); got != want {
		t.Fatalf("counters\n got %+v\nwant %+v", got, want)
	}
	if err := r.Execute(nil); err == nil {
		t.Fatal("Execute(nil) on a dead server must fail: there is no accurate path")
	}
	want.Invocations++
	if got := policyCountersOf(r.Stats()); got != want {
		t.Fatalf("counters after Execute(nil)\n got %+v\nwant %+v", got, want)
	}
}

// TestModelURICountsRemoteInference: with the server up, every
// invocation of a URI region is served remotely and counted so.
func TestModelURICountsRemoteInference(t *testing.T) {
	hpacml.ClearModelCache()
	path := saveVectorNet(t, t.TempDir(), 43, 2, 1)
	srv, err := serve.NewServer(serve.Config{MaxBatch: 4, Workers: 1}, serve.ModelSpec{Name: "vec", Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(serve.NewHandler(srv))
	defer ts.Close()

	x, y := []float64{0.25, -0.5}, []float64{0}
	r := policyRegion(t, "live", fmt.Sprintf("ml(infer) in(x) out(y) model(%q)", ts.URL+"/vec"), x, y)
	for range 2 {
		if err := r.Execute(func() error { return errors.New("accurate path must not run") }); err != nil {
			t.Fatal(err)
		}
	}
	want := policyCounters{Invocations: 2, Inferences: 2, RemoteInference: 2}
	if got := policyCountersOf(r.Stats()); got != want {
		t.Fatalf("counters\n got %+v\nwant %+v", got, want)
	}
}

// TestTrustClauseFallsBack: a trust(...) region whose engine fails runs
// its accurate path, like a URI region does.
func TestTrustClauseFallsBack(t *testing.T) {
	x, y := []float64{1, 2}, []float64{0}
	r := policyRegion(t, "gated", "ml(infer) in(x) out(y) trust(var:1)", x, y,
		hpacml.WithEngine(varianceDownEngine{}))
	driveFallback(t, r, y)
	want := policyCounters{Invocations: 5, AccurateRuns: 5, Fallbacks: 5}
	if got := policyCountersOf(r.Stats()); got != want {
		t.Fatalf("counters\n got %+v\nwant %+v", got, want)
	}
}

// TestLocalModelErrorPropagates: a local, ungated region does not fall
// back: a corrupt model file is an error even with an accurate closure.
func TestLocalModelErrorPropagates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.gmod")
	if err := os.WriteFile(path, []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	x, y := []float64{1, 2}, []float64{0}
	r := policyRegion(t, "local", fmt.Sprintf("ml(infer) in(x) out(y) model(%q)", path), x, y)
	ran := false
	if err := r.Execute(func() error { ran = true; return nil }); err == nil {
		t.Fatal("a corrupt local model must fail Execute")
	}
	if st := r.Stats(); ran || st.Fallbacks != 0 || st.AccurateRuns != 0 {
		t.Fatalf("local model error fell back: accurate ran %v, stats %+v", ran, st)
	}
}

// collectIndices runs steps invocations of a collect region annotated
// with clause into a built local sink, invocation i gathering x = (i,
// 0), and returns the invocation indices found in the database in
// order, with the sink's stats. Every invocation runs its accurate
// path, kept or not.
func collectIndices(t *testing.T, clause string, steps int) ([]int, hpacml.SinkStats) {
	t.Helper()
	db := filepath.Join(t.TempDir(), "sampled.gh5")
	x, y := []float64{0, 0}, []float64{0}
	r := policyRegion(t, "sampled", fmt.Sprintf("ml(collect) in(x) out(y) db(%q) %s", db, clause), x, y)
	for i := range steps {
		x[0] = float64(i)
		if err := r.Execute(func() error { y[0] = 2 * x[0]; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if st := r.Stats(); st.AccurateRuns != steps {
		t.Fatalf("%d accurate runs over %d invocations: sampling must never skip the accurate path", st.AccurateRuns, steps)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	ss, ok := r.CaptureStats()
	if !ok {
		t.Fatal("no capture stats")
	}
	f, err := h5.OpenShards(db)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := f.ReadRecords("sampled", "inputs")
	if err != nil {
		t.Fatal(err)
	}
	outs, err := f.ReadRecords("sampled", "outputs")
	if err != nil {
		t.Fatal(err)
	}
	var kept []int
	for k, in := range ins {
		i := in.Data()[0]
		if got := outs[k].Data()[0]; got != 2*i {
			t.Fatalf("record %d: output %g for input %g", k, got, i)
		}
		kept = append(kept, int(i))
	}
	return kept, ss
}

// TestCaptureClauseSampling pins which invocations each capture(...)
// policy keeps: every:N the stride from the first, frac:F one draw per
// capture from a generator seeded with 29.
func TestCaptureClauseSampling(t *testing.T) {
	t.Run("every", func(t *testing.T) {
		kept, ss := collectIndices(t, "capture(every:3)", 12)
		if want := []int{0, 3, 6, 9}; !reflect.DeepEqual(kept, want) {
			t.Fatalf("kept %v, want %v", kept, want)
		}
		if ss.Captured != 4 || ss.Sampled != 8 {
			t.Fatalf("stats %+v, want 4 captured, 8 sampled", ss)
		}
	})
	t.Run("frac", func(t *testing.T) {
		const steps = 40
		rng := rand.New(rand.NewSource(29))
		var want []int
		for i := range steps {
			if rng.Float64() < 0.5 {
				want = append(want, i)
			}
		}
		kept, ss := collectIndices(t, "capture(frac:0.5)", steps)
		if !reflect.DeepEqual(kept, want) {
			t.Fatalf("kept %v, want %v", kept, want)
		}
		if ss.Captured != int64(len(want)) || ss.Sampled != int64(steps-len(want)) {
			t.Fatalf("stats %+v, want %d captured, %d sampled", ss, len(want), steps-len(want))
		}
	})
}
