package hpacml

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/serveapi"
	"repro/internal/tensor"
)

// heldRecord is a record a holdingSink kept, with the tensors and the
// value it was captured with.
type heldRecord struct {
	rec     *CaptureRecord
	in, out *tensor.Tensor
	want    float64
}

// holdingSink keeps every record it is given and passes it to a checker
// goroutine, which inspects it several captures later and releases
// records out of order. It also scribbles on the exported fields, as a
// careless sink might: the pool must not care.
type holdingSink struct{ held chan heldRecord }

func (s *holdingSink) Capture(rec *CaptureRecord) error {
	s.held <- heldRecord{rec: rec, in: rec.Inputs, out: rec.Outputs, want: rec.Inputs.Data()[0]}
	rec.Inputs, rec.Outputs = rec.Outputs, nil
	return nil
}
func (s *holdingSink) Flush() error { return nil }
func (s *holdingSink) Close() error { return nil }

// TestCaptureRecordNotReusedBeforeRelease fills invocation i's grid with
// i, so every value of its record is ±i. A checker holds batches of
// records while the solver keeps capturing, verifies them, and releases
// them shuffled: a slot handed out again before its release would show
// a later invocation's values (and, under -race, a data race between
// the gather and the check).
func TestCaptureRecordNotReusedBeforeRelease(t *testing.T) {
	const n, m, invocations = 6, 6, 2000
	grid := make([]float64, n*m)
	gridNew := make([]float64, n*m)
	sink := &holdingSink{held: make(chan heldRecord, 16)}
	r, err := NewRegion("stencil",
		Directives(stencilDirectives("", "")),
		BindInt("N", n), BindInt("M", m),
		BindArray("t", grid, n, m),
		BindArray("tnew", gridNew, n, m),
		BindPredicate("useModel", func() bool { return false }),
		WithSink(sink),
	)
	if err != nil {
		t.Fatal(err)
	}

	checked := make(chan int)
	go func() {
		rng := rand.New(rand.NewSource(7))
		var batch []heldRecord
		count := 0
		check := func() {
			rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
			for _, h := range batch {
				for _, v := range h.in.Data() {
					if v != h.want {
						t.Errorf("record of invocation %g: input %g before release", h.want, v)
						break
					}
				}
				for _, v := range h.out.Data() {
					if v != -h.want {
						t.Errorf("record of invocation %g: output %g before release", h.want, v)
						break
					}
				}
				h.rec.Release()
				count++
			}
			batch = batch[:0]
		}
		for h := range sink.held {
			batch = append(batch, h)
			if len(batch) >= 1+rng.Intn(12) {
				check()
			}
		}
		check()
		checked <- count
	}()

	for i := range invocations {
		v := float64(i)
		for k := range grid {
			grid[k] = v
		}
		if err := r.Execute(func() error {
			for k := range gridNew {
				gridNew[k] = -v
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(sink.held)
	if got := <-checked; got != invocations {
		t.Fatalf("checked %d records, want %d", got, invocations)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// testRecord returns a record backed by its own capture slot, as a
// region's pool hands one out, so a test can count its releases.
func testRecord(pool *sync.Pool, region string, v float64) *CaptureRecord {
	in, _ := tensor.FromSlice([]float64{v, v}, 1, 2)
	out, _ := tensor.FromSlice([]float64{-v}, 1, 1)
	s := &captureSlot{in: in, out: out, pool: pool}
	s.rec = CaptureRecord{Region: region, Inputs: in, Outputs: out, RuntimeNS: v, slot: s}
	return &s.rec
}

// wantReleases checks how many times each record was released.
func wantReleases(t *testing.T, recs []*CaptureRecord, want int32) {
	t.Helper()
	for i, rec := range recs {
		if got := rec.slot.releases.Load(); got != want {
			t.Errorf("record %d released %d times, want %d", i, got, want)
		}
	}
}

// TestLocalSinkReleasesEachRecordOnce: the writer releases every record
// once, the one it failed to write included.
func TestLocalSinkReleasesEachRecordOnce(t *testing.T) {
	s, err := NewLocalSink(filepath.Join(t.TempDir(), "rel.gh5"), CaptureConfig{QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	var pool sync.Pool
	var recs []*CaptureRecord
	for i := range 20 {
		region := "r"
		if i == 7 {
			region = "" // an empty group name fails the append
		}
		recs = append(recs, testRecord(&pool, region, float64(i)))
		if err := s.Capture(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err == nil {
		t.Fatal("close must report the failed append")
	}
	if st := s.SinkStats(); st.WriteErrors != 1 || st.Captured != 20 {
		t.Fatalf("stats: %+v", st)
	}
	wantReleases(t, recs, 1)
}

// TestDropWhenFullReleasesDroppedRecords: with no consumer draining it,
// a one-record queue takes the first record and drops the rest, and
// releases exactly the dropped ones; the queued one is its consumer's.
func TestDropWhenFullReleasesDroppedRecords(t *testing.T) {
	var q captureQueue
	q.initQueue(1, true)
	var pool sync.Pool
	var recs []*CaptureRecord
	for i := range 5 {
		recs = append(recs, testRecord(&pool, "r", float64(i)))
		if err := q.Capture(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if st := q.queueStats(); st.Captured != 1 || st.Dropped != 4 {
		t.Fatalf("stats: %+v", st)
	}
	wantReleases(t, recs[:1], 0)
	wantReleases(t, recs[1:], 1)

	// The same through a LocalSink, whose writer releases what it takes.
	s, err := NewLocalSink(filepath.Join(t.TempDir(), "drop.gh5"), CaptureConfig{QueueCap: 1, DropWhenFull: true, FlushEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	recs = recs[:0]
	for i := range 200 {
		recs = append(recs, testRecord(&pool, "r", float64(i)))
		if err := s.Capture(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.SinkStats(); st.Captured+st.Dropped != 200 {
		t.Fatalf("stats: %+v", st)
	}
	wantReleases(t, recs, 1)
}

// TestSamplingSinkReleasesFilteredRecords: the records the policy
// filters out are released by the sampling sink, the kept ones by the
// sink behind it — each exactly once.
func TestSamplingSinkReleasesFilteredRecords(t *testing.T) {
	next, err := NewLocalSink(filepath.Join(t.TempDir(), "sampled.gh5"), CaptureConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSamplingSink(next, CaptureConfig{Every: 3})
	var pool sync.Pool
	var recs []*CaptureRecord
	for i := range 30 {
		recs = append(recs, testRecord(&pool, "r", float64(i)))
		if err := s.Capture(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.SinkStats(); st.Sampled != 20 || st.Captured != 10 {
		t.Fatalf("stats: %+v", st)
	}
	wantReleases(t, recs, 1)
}

// TestRemoteSinkReleasesShippedAndFailedBatches: the shipper releases a
// batch's records once its POST returns, whether the server took the
// batch or it failed, and ships and releases what is pending at Close.
func TestRemoteSinkReleasesShippedAndFailedBatches(t *testing.T) {
	var fail atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req serveapi.CaptureRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			// Binary frames are refused, so the client speaks JSON.
			http.Error(w, err.Error(), http.StatusUnsupportedMediaType)
			return
		}
		if fail.Load() {
			http.Error(w, "ingest down", http.StatusInternalServerError)
			return
		}
		fmt.Fprintf(w, `{"db":%q,"accepted":%d}`, req.DB, len(req.Records))
	}))
	defer srv.Close()
	s, err := NewRemoteSink(srv.URL+"/db", CaptureConfig{BatchRecords: 4, FlushEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	var pool sync.Pool
	var recs []*CaptureRecord
	capture := func(k int) {
		for range k {
			recs = append(recs, testRecord(&pool, "r", float64(len(recs))))
			if err := s.Capture(recs[len(recs)-1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	capture(10)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	wantReleases(t, recs, 1)
	fail.Store(true)
	capture(6)
	if err := s.Flush(); err == nil {
		t.Fatal("flush must report the failed batch")
	}
	capture(3)
	if err := s.Close(); err == nil {
		t.Fatal("close must report the failed final batch")
	}
	if st := s.SinkStats(); st.RemoteRecords != 10 || st.Dropped != 9 {
		t.Fatalf("stats: %+v", st)
	}
	wantReleases(t, recs, 1)
}

// refusingSink keeps the record it is offered but refuses it.
type refusingSink struct{ last *CaptureRecord }

func (s *refusingSink) Capture(rec *CaptureRecord) error {
	s.last = rec
	return errors.New("refused")
}
func (s *refusingSink) Flush() error { return nil }
func (s *refusingSink) Close() error { return nil }

// TestCollectReleasesRefusedRecord: a record the sink refuses goes back
// to the region's pool.
func TestCollectReleasesRefusedRecord(t *testing.T) {
	const n, m = 6, 6
	grid := make([]float64, n*m)
	gridNew := make([]float64, n*m)
	sink := &refusingSink{}
	r, err := NewRegion("stencil",
		Directives(stencilDirectives("", "")),
		BindInt("N", n), BindInt("M", m),
		BindArray("t", grid, n, m),
		BindArray("tnew", gridNew, n, m),
		BindPredicate("useModel", func() bool { return false }),
		WithSink(sink),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Execute(func() error { return nil }); err == nil {
		t.Fatal("a refused capture must fail Execute")
	}
	wantReleases(t, []*CaptureRecord{sink.last}, 1)
}
