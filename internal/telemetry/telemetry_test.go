package telemetry

import (
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestCounterGaugeBasics: the scalar primitives hold and report exact
// values, including concurrent gauge adds (the CAS loop must not lose
// updates).
func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_ops_total", "ops")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("t_depth", "depth")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 8001.5 {
		t.Fatalf("gauge after concurrent adds = %v, want 8001.5", got)
	}
}

// TestHistogramBoundaries pins the inclusive-le bucket semantics: an
// observation equal to a bound lands in that bound's bucket, the next
// representable value above it in the following one, and values past
// the last bound in the implicit +Inf bucket.
func TestHistogramBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_lat_seconds", "latency", []float64{1, 2, 3})
	h.Observe(1)   // == bounds[0] -> bucket 0
	h.Observe(1.5) // bucket 1
	h.Observe(2)   // == bounds[1] -> bucket 1
	h.Observe(3)   // == bounds[2] -> bucket 2
	h.Observe(3.5) // +Inf bucket
	h.Observe(-1)  // below everything -> bucket 0

	cum := h.snapshotInto(nil)
	want := []uint64{2, 4, 5, 6} // cumulative: le=1, le=2, le=3, +Inf
	if len(cum) != len(want) {
		t.Fatalf("snapshot has %d buckets, want %d", len(cum), len(want))
	}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cumulative bucket %d = %d, want %d (all: %v)", i, cum[i], want[i], cum)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 10 {
		t.Fatalf("sum = %v, want 10", h.Sum())
	}
}

// TestObserveNEqualsRepeatedObserve: a weighted observation leaves the
// histogram exactly where n single ones would — count, sum and every
// bucket — including a value on a bound, one past the last bound, and
// n = 0. The values are dyadic, so the repeated float additions are
// exact and the sums compare bitwise.
func TestObserveNEqualsRepeatedObserve(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{0.25, 1, 4}
	weighted := r.Histogram("t_weighted", "w", bounds)
	repeated := r.Histogram("t_repeated", "r", bounds)
	for _, o := range []struct {
		v float64
		n uint64
	}{{0.125, 3}, {0.25, 32}, {0.75, 1}, {4, 7}, {16.5, 5}, {2, 0}} {
		weighted.ObserveN(o.v, o.n)
		for i := uint64(0); i < o.n; i++ {
			repeated.Observe(o.v)
		}
	}
	if weighted.Count() != repeated.Count() || weighted.Count() != 48 {
		t.Fatalf("count: weighted %d, repeated %d, want 48", weighted.Count(), repeated.Count())
	}
	if weighted.Sum() != repeated.Sum() {
		t.Fatalf("sum: weighted %v, repeated %v", weighted.Sum(), repeated.Sum())
	}
	w, rp := weighted.snapshotInto(nil), repeated.snapshotInto(nil)
	for i := range rp {
		if w[i] != rp[i] {
			t.Fatalf("cumulative buckets: weighted %v, repeated %v", w, rp)
		}
	}
}

// TestExpositionGolden locks the Prometheus text rendering byte for
// byte: family and label-set ordering, histogram le/_sum/_count
// layout, the +Inf bucket, and help escaping.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_lat_seconds", "Forward latency.", []float64{0.25, 1, 4})
	h.Observe(0.25)
	h.Observe(0.5)
	h.Observe(20)
	r.GaugeFunc("t_queue_depth", "Queue depth.", []string{"model"}, func(emit Emit) {
		emit(4, "m")
	})
	reqs := r.CounterVec("t_requests_total", "Total requests.", "path", "code")
	reqs.With("/a", "200").Add(3)
	reqs.With("/b", "500").Inc()
	g := r.Gauge("t_temp_celsius", "Temp \\ with\nnewline.")
	g.Set(-2.5)

	want := strings.Join([]string{
		`# HELP t_lat_seconds Forward latency.`,
		`# TYPE t_lat_seconds histogram`,
		`t_lat_seconds_bucket{le="0.25"} 1`,
		`t_lat_seconds_bucket{le="1"} 2`,
		`t_lat_seconds_bucket{le="4"} 2`,
		`t_lat_seconds_bucket{le="+Inf"} 3`,
		`t_lat_seconds_sum 20.75`,
		`t_lat_seconds_count 3`,
		`# HELP t_queue_depth Queue depth.`,
		`# TYPE t_queue_depth gauge`,
		`t_queue_depth{model="m"} 4`,
		`# HELP t_requests_total Total requests.`,
		`# TYPE t_requests_total counter`,
		`t_requests_total{path="/a",code="200"} 3`,
		`t_requests_total{path="/b",code="500"} 1`,
		`# HELP t_temp_celsius Temp \\ with\nnewline.`,
		`# TYPE t_temp_celsius gauge`,
		`t_temp_celsius -2.5`,
	}, "\n") + "\n"
	got := string(r.AppendPrometheus(nil))
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestLabelValueEscaping: backslash, quote, and newline in label
// values must render escaped, or one hostile model name corrupts the
// whole scrape.
func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("t_esc_total", "esc", "name").With("a\\b\"c\nd").Inc()
	got := string(r.AppendPrometheus(nil))
	want := `t_esc_total{name="a\\b\"c\nd"} 1` + "\n"
	if !strings.HasSuffix(got, want) {
		t.Fatalf("escaped series = %q, want suffix %q", got, want)
	}
}

// TestRegistrationPanics: wiring mistakes must fail loudly at startup.
func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: want panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("t_ok_total", "ok")
	mustPanic("duplicate name", func() { r.Counter("t_ok_total", "again") })
	mustPanic("invalid name", func() { r.Counter("0bad", "bad") })
	mustPanic("invalid label", func() { r.CounterVec("t_l_total", "l", "bad-label") })
	mustPanic("unsorted bounds", func() { r.Histogram("t_h_seconds", "h", []float64{1, 1}) })
	v := r.CounterVec("t_v_total", "v", "a", "b")
	mustPanic("wrong label count", func() { v.With("only-one") })
}

// TestConcurrentRecordScrape hammers every primitive from many
// goroutines while scrapes run — the test the -race CI job leans on —
// then checks nothing was lost.
func TestConcurrentRecordScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_c_total", "c")
	g := r.Gauge("t_g", "g")
	h := r.Histogram("t_h_seconds", "h", DefaultLatencyBuckets)
	vec := r.CounterVec("t_v_total", "v", "who")

	const workers, iters = 8, 2000
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() { // scraper, concurrent with every recorder
		defer scraper.Done()
		var buf []byte
		for {
			select {
			case <-stop:
				return
			default:
				buf = r.AppendPrometheus(buf[:0])
			}
		}
	}()
	var recorders sync.WaitGroup
	for w := 0; w < workers; w++ {
		recorders.Add(1)
		go func() {
			defer recorders.Done()
			child := vec.With("w") // shared child, resolved per goroutine
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%7) * 1e-3)
				child.Inc()
			}
		}()
	}
	recorders.Wait()
	close(stop)
	scraper.Wait()

	if c.Value() != workers*iters {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*iters)
	}
	if g.Value() != workers*iters {
		t.Fatalf("gauge = %v, want %d", g.Value(), workers*iters)
	}
	if h.Count() != workers*iters {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*iters)
	}
	if vec.With("w").Value() != workers*iters {
		t.Fatalf("vec child = %d, want %d", vec.With("w").Value(), workers*iters)
	}
}

// TestZeroAllocRecord pins the hot-path contract: recording on
// pre-resolved handles allocates nothing.
func TestZeroAllocRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	r := NewRegistry()
	c := r.CounterVec("t_c_total", "c", "who").With("w")
	g := r.Gauge("t_g", "g")
	h := r.Histogram("t_h_seconds", "h", DefaultLatencyBuckets)
	if allocs := testing.AllocsPerRun(200, func() { c.Inc(); c.Add(2) }); allocs != 0 {
		t.Fatalf("counter record path allocates %.1f/op", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { g.Set(1); g.Add(0.5) }); allocs != 0 {
		t.Fatalf("gauge record path allocates %.1f/op", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { h.Observe(2.5e-3) }); allocs != 0 {
		t.Fatalf("histogram record path allocates %.1f/op", allocs)
	}
}

// TestHandler: the scrape endpoint answers with the exposition
// Content-Type, an exact Content-Length, and the same bytes
// AppendPrometheus renders.
func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_ops_total", "ops").Add(7)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypePrometheus {
		t.Fatalf("Content-Type = %q, want %q", ct, ContentTypePrometheus)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(r.AppendPrometheus(nil)); string(body) != want {
		t.Fatalf("body = %q, want %q", body, want)
	}
	if !strings.Contains(string(body), "t_ops_total 7") {
		t.Fatalf("body missing counter: %q", body)
	}
}

// TestBuildInfo: the build-info gauge renders as a value-1 series with
// version/revision/goversion labels, and VersionString is non-empty
// for every field.
func TestBuildInfo(t *testing.T) {
	bi := Build()
	if bi.Version == "" || bi.Revision == "" || bi.GoVersion == "" {
		t.Fatalf("Build() has empty fields: %+v", bi)
	}
	vs := VersionString("toolname")
	if !strings.HasPrefix(vs, "toolname ") || !strings.Contains(vs, bi.GoVersion) {
		t.Fatalf("VersionString = %q", vs)
	}
	r := NewRegistry()
	r.RegisterBuildInfo("t_build_info")
	out := string(r.AppendPrometheus(nil))
	if !strings.Contains(out, `t_build_info{`) || !strings.Contains(out, `goversion="`+bi.GoVersion+`"`) {
		t.Fatalf("build info missing from exposition:\n%s", out)
	}
	if !strings.HasSuffix(strings.TrimSpace(out), "} 1") {
		t.Fatalf("build info gauge must be 1:\n%s", out)
	}
}

// BenchmarkCounterInc measures (and, via -benchmem, documents) the
// record path: must report 0 B/op.
func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.CounterVec("b_c_total", "c", "who").With("w")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkHistogramObserve: the latency-record path — bucket scan,
// two adds, CAS sum. Must report 0 B/op.
func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("b_h_seconds", "h", DefaultLatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(2.5e-3)
	}
}

// BenchmarkScrape renders a realistically sized registry (a few
// families, a few children each) into a reused buffer.
func BenchmarkScrape(b *testing.B) {
	r := NewRegistry()
	vec := r.CounterVec("b_req_total", "req", "path", "code")
	for _, p := range []string{"/v1/infer", "/v1/capture", "/v1/stats"} {
		vec.With(p, "200").Add(100)
	}
	h := r.HistogramVec("b_lat_seconds", "lat", DefaultLatencyBuckets, "model")
	for _, m := range []string{"a", "b"} {
		for i := 0; i < 100; i++ {
			h.With(m).Observe(float64(i) * 1e-4)
		}
	}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = r.AppendPrometheus(buf[:0])
	}
}
