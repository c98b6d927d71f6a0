package hpacml

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/h5"
	"repro/internal/nn"
	"repro/internal/serveapi"
	"repro/internal/tensor"
)

// syncSink reproduces the seed-era inline writer exactly: every capture
// is appended and flushed synchronously to a single file. It exists so
// the equivalence test can compare the asynchronous sharded pipeline
// against the old behavior byte for byte.
type syncSink struct {
	w *h5.Writer
}

func newSyncSink(t *testing.T, path string) *syncSink {
	t.Helper()
	w, err := h5.Append(path)
	if err != nil {
		t.Fatal(err)
	}
	return &syncSink{w: w}
}

func (s *syncSink) Capture(rec *CaptureRecord) error {
	if err := s.w.Write(rec.Region, "inputs", rec.Inputs); err != nil {
		return err
	}
	if err := s.w.Write(rec.Region, "outputs", rec.Outputs); err != nil {
		return err
	}
	if err := s.w.WriteScalar(rec.Region, "runtime_ns", rec.RuntimeNS); err != nil {
		return err
	}
	return s.w.Flush()
}

func (s *syncSink) Flush() error { return s.w.Flush() }
func (s *syncSink) Close() error { return s.w.Close() }

// collectStencil runs `steps` deterministic collection invocations of
// the Figure 2 stencil region built with the given extra options.
func collectStencil(t *testing.T, steps int, db string, extra ...Option) *Region {
	t.Helper()
	const N, M = 8, 9
	grid := make([]float64, N*M)
	gridNew := make([]float64, N*M)
	for i := range grid {
		grid[i] = float64(i%7) * 0.31
	}
	useModel := false
	opts := append([]Option{
		Directives(stencilDirectives("", db)),
		BindInt("N", N), BindInt("M", M),
		BindArray("t", grid, N, M),
		BindArray("tnew", gridNew, N, M),
		BindPredicate("useModel", func() bool { return useModel }),
	}, extra...)
	r, err := NewRegion("stencil", opts...)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		if err := r.Execute(func() error { jacobiStep(grid, gridNew, N, M); return nil }); err != nil {
			t.Fatalf("collect step %d: %v", s, err)
		}
		copy(grid, gridNew)
	}
	return r
}

// TestLocalSinkEquivalentToSyncWriter is the tentpole acceptance check:
// a collection run through the asynchronous sharded LocalSink produces
// training data byte-equivalent (same records, any shard split) to the
// old synchronous single-file writer, verified by training on both
// databases and comparing the datasets and learned losses.
func TestLocalSinkEquivalentToSyncWriter(t *testing.T) {
	const steps = 12
	dir := t.TempDir()
	syncPath := filepath.Join(dir, "sync.gh5")
	asyncPath := filepath.Join(dir, "async.gh5")

	// Old path: synchronous single-file writer, injected.
	rSync := collectStencil(t, steps, syncPath, WithSink(newSyncSink(t, syncPath)))
	// New default path: async writer goroutine, rotated every 5 records.
	rAsync := collectStencil(t, steps, asyncPath,
		WithCapture(CaptureConfig{ShardRecords: 5, QueueCap: 4}))
	if err := rSync.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rAsync.Close(); err != nil {
		t.Fatal(err)
	}
	if ss, ok := rAsync.CaptureStats(); !ok || ss.Captured != steps || ss.Dropped != 0 || ss.Shards < 2 {
		t.Fatalf("async capture stats: %+v (ok %v)", ss, ok)
	}

	fSync, err := h5.Open(syncPath)
	if err != nil {
		t.Fatal(err)
	}
	fAsync, err := h5.OpenShards(asyncPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range []string{"inputs", "outputs", "runtime_ns"} {
		if a, b := fSync.NumRecords("stencil", ds), fAsync.NumRecords("stencil", ds); a != b || a != steps {
			t.Fatalf("%s records: sync %d, async %d, want %d", ds, a, b, steps)
		}
	}
	datasets := func(f *h5.File) *nn.Dataset {
		x, err := f.Read("stencil", "inputs")
		if err != nil {
			t.Fatal(err)
		}
		y, err := f.Read("stencil", "outputs")
		if err != nil {
			t.Fatal(err)
		}
		ds, err := nn.NewDataset(x, y)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	dsSync, dsAsync := datasets(fSync), datasets(fAsync)
	if dsSync.Len() != dsAsync.Len() {
		t.Fatalf("dataset sizes differ: %d vs %d", dsSync.Len(), dsAsync.Len())
	}
	for i, v := range dsSync.X.Contiguous().Data() {
		if dsAsync.X.Contiguous().Data()[i] != v {
			t.Fatalf("input element %d differs: %g vs %g", i, v, dsAsync.X.Contiguous().Data()[i])
		}
	}
	for i, v := range dsSync.Y.Contiguous().Data() {
		if dsAsync.Y.Contiguous().Data()[i] != v {
			t.Fatalf("output element %d differs: %g vs %g", i, v, dsAsync.Y.Contiguous().Data()[i])
		}
	}

	// Identical data + identical seed must learn identical surrogates.
	train := func(ds *nn.Dataset) float64 {
		net := nn.NewNetwork(17)
		net.Add(net.NewDense(5, 8), nn.NewActivation(nn.ActTanh), net.NewDense(8, 1))
		h, err := net.Fit(ds, nil, nn.TrainConfig{Epochs: 8, BatchSize: 16, LR: 0.01, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return h.BestVal
	}
	if a, b := train(dsSync), train(dsAsync); a != b {
		t.Fatalf("training diverged on equivalent datasets: %g vs %g", a, b)
	}
}

// sampledStencil runs steps collection invocations of a 6x6 stencil
// region annotated with the capture clause (empty for none) into db,
// or into a sink injected through extra, and closes it.
func sampledStencil(t *testing.T, db, clause string, steps int, extra ...Option) *Region {
	t.Helper()
	const N, M = 6, 6
	grid := make([]float64, N*M)
	gridNew := make([]float64, N*M)
	r, err := NewRegion("stencil", append([]Option{
		Directives(fmt.Sprintf(`
tensor functor(ifn: [i, j, 0:5] = (([i-1, j], [i+1, j], [i, j-1:j+2])))
tensor functor(ofn: [i, j, 0:1] = ([i, j]))
tensor map(to: ifn(t[1:N-1, 1:M-1]))
tensor map(from: ofn(tnew[1:N-1, 1:M-1]))
ml(collect) in(t) out(tnew) db(%q) %s
`, db, clause)),
		BindInt("N", N), BindInt("M", M),
		BindArray("t", grid, N, M),
		BindArray("tnew", gridNew, N, M),
	}, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		if err := r.Execute(func() error { jacobiStep(grid, gridNew, N, M); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestCaptureSamplingPolicies checks both capture(...) policies end to
// end through the directive clause: the every-N stride and the frac
// policy.
func TestCaptureSamplingPolicies(t *testing.T) {
	dir := t.TempDir()

	t.Run("every via directive", func(t *testing.T) {
		db := filepath.Join(dir, "every.gh5")
		const steps = 10
		r := sampledStencil(t, db, "capture(every:3)", steps)
		// 10 invocations, keep 1, 4, 7, 10 -> 4 records.
		f, err := h5.OpenShards(db)
		if err != nil {
			t.Fatal(err)
		}
		if n := f.NumRecords("stencil", "inputs"); n != 4 {
			t.Fatalf("every:3 kept %d of %d, want 4", n, steps)
		}
		ss, ok := r.CaptureStats()
		if !ok || ss.Sampled != 6 || ss.Captured != 4 {
			t.Fatalf("sampling stats: %+v (ok %v)", ss, ok)
		}
	})

	t.Run("frac via directive", func(t *testing.T) {
		db := filepath.Join(dir, "frac.gh5")
		const steps = 40
		r := sampledStencil(t, db, "capture(frac:0.5)", steps)
		ss, _ := r.CaptureStats()
		if ss.Captured+ss.Sampled != steps {
			t.Fatalf("captured %d + sampled %d != %d", ss.Captured, ss.Sampled, steps)
		}
		if ss.Captured == 0 || ss.Sampled == 0 {
			t.Fatalf("frac 0.5 over %d runs kept everything or nothing: %+v", steps, ss)
		}
		f, err := h5.OpenShards(db)
		if err != nil {
			t.Fatal(err)
		}
		if n := f.NumRecords("stencil", "inputs"); int64(n) != ss.Captured {
			t.Fatalf("database has %d records, stats say %d", n, ss.Captured)
		}
	})
}

// TestDropPolicyCountsInsteadOfBlocking pins the drop backpressure
// path: with a tiny queue and a stalled consumer the solver never
// blocks, and every lost record is counted.
func TestDropPolicyCountsInsteadOfBlocking(t *testing.T) {
	db := filepath.Join(t.TempDir(), "drop.gh5")
	// A 1-slot queue hammered by a tight producer loop overruns the
	// writer goroutine; whatever overflows must be counted, and
	// captured + dropped must account for every submission exactly.
	s, err := NewLocalSink(db, CaptureConfig{QueueCap: 1, DropWhenFull: true, FlushEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	rec := func(v float64) *CaptureRecord {
		in, _ := tensor.FromSlice([]float64{v}, 1, 1)
		out, _ := tensor.FromSlice([]float64{v}, 1, 1)
		return &CaptureRecord{Region: "r", Inputs: in, Outputs: out, RuntimeNS: v}
	}
	for i := 0; i < 200; i++ {
		if err := s.Capture(rec(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ss := s.SinkStats()
	if ss.Captured+ss.Dropped != 200 {
		t.Fatalf("captured %d + dropped %d != 200", ss.Captured, ss.Dropped)
	}
	f, err := h5.OpenShards(db)
	if err != nil {
		t.Fatal(err)
	}
	if n := f.NumRecords("r", "inputs"); int64(n) != ss.Captured {
		t.Fatalf("database has %d records, stats say %d captured", n, ss.Captured)
	}
	if err := s.Capture(rec(1)); err != ErrSinkClosed {
		t.Fatalf("capture after close: %v, want ErrSinkClosed", err)
	}
}

// decodeCaptureFrame reads one capture request off the binary frame
// wire RemoteSink speaks, returning its db name and record count.
func decodeCaptureFrame(r *http.Request) (string, int, error) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return "", 0, err
	}
	db, recs, err := serveapi.DecodeCaptureRequest(body)
	return db, len(recs), err
}

// TestRemoteSinkDegradesGracefully drives a collection region against a
// fake ingest endpoint, then kills the server mid-run: records sent
// while it lived are acknowledged, records after its death are counted
// as drops/flush errors — and the solve itself never fails.
func TestRemoteSinkDegradesGracefully(t *testing.T) {
	var accepted atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/capture" {
			http.NotFound(w, r)
			return
		}
		db, n, err := decodeCaptureFrame(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		accepted.Add(int64(n))
		fmt.Fprintf(w, `{"db":%q,"accepted":%d}`, db, n)
	}))

	db := srv.URL + "/stencil"
	const N, M = 6, 6
	grid := make([]float64, N*M)
	gridNew := make([]float64, N*M)
	r, err := NewRegion("stencil",
		Directives(stencilDirectives("", db)),
		BindInt("N", N), BindInt("M", M),
		BindArray("t", grid, N, M),
		BindArray("tnew", gridNew, N, M),
		BindPredicate("useModel", func() bool { return false }),
		WithCapture(CaptureConfig{BatchRecords: 2, DropWhenFull: true}),
	)
	if err != nil {
		t.Fatal(err)
	}
	step := func() error {
		return r.Execute(func() error { jacobiStep(grid, gridNew, N, M); return nil })
	}
	for i := 0; i < 4; i++ {
		if err := step(); err != nil {
			t.Fatalf("capture with live server: %v", err)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatalf("flush with live server: %v", err)
	}
	if got := accepted.Load(); got != 4 {
		t.Fatalf("server accepted %d records, want 4", got)
	}

	srv.Close() // the ingest endpoint dies mid-run
	for i := 0; i < 3; i++ {
		if err := step(); err != nil {
			t.Fatalf("solver must not fail when ingest is down: %v", err)
		}
	}
	if err := r.Flush(); err == nil {
		t.Fatal("flush barrier must surface the ingest failure")
	}
	if err := r.Close(); err != nil {
		// A second failed batch may surface here; either way the close
		// itself must not panic or hang. Only unexpected success is wrong.
		t.Logf("close reported (expected) ingest failure: %v", err)
	}
	ss, ok := r.CaptureStats()
	if !ok {
		t.Fatal("no capture stats")
	}
	if ss.RemoteRecords != 4 {
		t.Fatalf("remote records = %d, want 4", ss.RemoteRecords)
	}
	if ss.Dropped != 3 || ss.FlushErrors == 0 {
		t.Fatalf("dead-server accounting: %+v", ss)
	}
}

// TestResetStatsBaselinesCaptureCounters pins that ResetStats zeroes
// the region's accounting but leaves the sink's capture counters alone:
// CaptureStats keeps lifetime totals across a reset.
func TestResetStatsBaselinesCaptureCounters(t *testing.T) {
	db := filepath.Join(t.TempDir(), "reset.gh5")
	r := collectStencil(t, 5, db)
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	r.ResetStats()
	if st := r.Stats(); st != (Stats{}) {
		t.Fatalf("accounting survived ResetStats: %+v", st)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	// The sink's lifetime totals stay intact for the collect report.
	if ss, ok := r.CaptureStats(); !ok || ss.Captured != 5 || ss.Flushes < 2 {
		t.Fatalf("lifetime sink stats disturbed: %+v (ok %v)", ss, ok)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseFlushesLazySinkOnErrorPath pins satellite guarantee: when
// the accurate closure errors mid-run, records captured by earlier
// invocations are still flushed and closed, never silently truncated.
func TestCloseFlushesLazySinkOnErrorPath(t *testing.T) {
	db := filepath.Join(t.TempDir(), "err.gh5")
	const N, M = 6, 6
	grid := make([]float64, N*M)
	gridNew := make([]float64, N*M)
	useModel := false
	r := newStencilRegion(t, grid, gridNew, N, M, &useModel, "", db)
	for i := 0; i < 3; i++ {
		if err := r.Execute(func() error { jacobiStep(grid, gridNew, N, M); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	boom := fmt.Errorf("solver blew up")
	if err := r.Execute(func() error { return boom }); err != boom {
		t.Fatalf("accurate error not propagated: %v", err)
	}
	// No flush call — Close alone must drain the async pipeline.
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := h5.OpenShards(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range []string{"inputs", "outputs", "runtime_ns"} {
		if n := f.NumRecords("stencil", ds); n != 3 {
			t.Fatalf("%s records = %d, want 3 (no truncation on error paths)", ds, n)
		}
	}
}
