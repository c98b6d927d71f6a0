package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	hpacml "repro"
)

// TestSnapshotRegionPhases pins what ModelSnapshot.Region reports for a
// replica pool: every served row is an invocation, an inference, a
// trusted row and a batched invocation; engine time accrues on every
// batch; the staging copies (ToTensor / FromTensor) accrue only once a
// batch has stacked several ranges; and /v1/stats carries the same
// Region. The single worker is parked in the batch hook so each batch's
// shape is decided by the test, not by timing.
func TestSnapshotRegionPhases(t *testing.T) {
	hpacml.ClearModelCache()
	const maxBatch, cols, singles = 8, 3, 5
	path := saveMLP(t, t.TempDir(), "m.gmod", 4, cols, 8, 1)
	stall := newStallHook()
	s, err := NewServer(Config{MaxBatch: maxBatch, MaxDelay: 20 * time.Millisecond, Workers: 1, batchHook: stall.hook},
		ModelSpec{Name: "m", Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := NewHandler(s)

	check := func(stage string, staged bool) {
		t.Helper()
		snap := s.Snapshot()[0]
		r := snap.Region
		for name, v := range map[string]int{
			"Invocations": r.Invocations, "Inferences": r.Inferences,
			"TrustedRows": r.TrustedRows, "BatchedInvocations": r.BatchedInvocations,
		} {
			if uint64(v) != snap.Completed {
				t.Fatalf("%s: Region.%s = %d, completed %d", stage, name, v, snap.Completed)
			}
		}
		if uint64(r.Batches) != snap.Batches {
			t.Fatalf("%s: Region.Batches = %d, batches %d", stage, r.Batches, snap.Batches)
		}
		if r.BatchInference <= 0 {
			t.Fatalf("%s: BatchInference %v, want > 0", stage, r.BatchInference)
		}
		if (r.ToTensor > 0) != staged || (r.FromTensor > 0) != staged {
			t.Fatalf("%s: ToTensor %v FromTensor %v, want both > 0 exactly when a staged batch ran (%v)",
				stage, r.ToTensor, r.FromTensor, staged)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		var sr StatsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
			t.Fatal(err)
		}
		if len(sr.Models) != 1 || sr.Models[0].Region != r {
			t.Fatalf("%s: /v1/stats region %+v, Snapshot region %+v", stage, sr.Models, r)
		}
	}

	// Unstaged: a MaxBatch-row frame is one range, a 2*MaxBatch-row frame
	// two full ones; each range is a batch by itself, run on the frame's
	// own slabs.
	for _, rows := range []int{maxBatch, 2 * maxBatch} {
		resp := postFrame(t, h, rows, cols, slabInputs(int64(rows), rows, cols))
		for b := 0; b < rows/maxBatch; b++ {
			if n := <-stall.entered; n != maxBatch {
				t.Fatalf("frame of %d rows cut a batch of %d", rows, n)
			}
			stall.gate <- struct{}{}
		}
		if rec := <-resp; rec.Code != http.StatusOK {
			t.Fatalf("frame of %d rows: %d %s", rows, rec.Code, rec.Body)
		}
	}
	check("unstaged frames", false)

	// Staged: a lone row parks the worker, the singles queue up behind it
	// and are cut as one batch of several ranges.
	results := make(chan error, singles+1)
	go func() { _, err := s.Infer("m", inputVec(0, cols)); results <- err }()
	<-stall.entered
	for k := 1; k <= singles; k++ {
		go func(k int) { _, err := s.Infer("m", inputVec(k, cols)); results <- err }(k)
	}
	m := s.models["m"]
	waitFor(t, func() bool { return m.waiting.Load() == singles })
	stall.gate <- struct{}{}
	if n := <-stall.entered; n != singles {
		t.Fatalf("queued singles cut a batch of %d rows, want %d", n, singles)
	}
	close(stall.gate)
	for i := 0; i <= singles; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	check("staged singles", true)
}
