package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	hpacml "repro"

	"repro/internal/serveapi"
	"repro/internal/serveclient"
	"repro/internal/telemetry"
)

// metricValue scans a Prometheus exposition for one exact series and
// returns its value. The series string must match up to the value
// separator, labels included.
func metricValue(t *testing.T, exposition, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %q has unparsable value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %q not found in exposition:\n%s", series, exposition)
	return 0
}

// TestMetricsEndToEnd drives live infer, capture, and rejected traffic
// through the real handler, then asserts the /metrics scrape reflects
// all of it — and that /v1/stats reports the very same totals, since
// both read the same counters.
func TestMetricsEndToEnd(t *testing.T) {
	hpacml.ClearModelCache()
	dir := t.TempDir()
	path := saveMLP(t, dir, "m.gmod", 21, 5, 16, 2)
	dbPath := filepath.Join(dir, "cap.gh5")
	s, err := NewServer(Config{MaxBatch: 8, MaxDelay: time.Millisecond, Workers: 2,
		CaptureDBs: []CaptureSpec{{Name: "d", Path: dbPath}}},
		ModelSpec{Name: "m", Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	post := func(pathAndStatus string, body any, wantStatus int) {
		t.Helper()
		b, _ := json.Marshal(body)
		resp, err := ts.Client().Post(ts.URL+pathAndStatus, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("POST %s = %d, want %d", pathAndStatus, resp.StatusCode, wantStatus)
		}
	}

	// Live traffic: 3 served inferences (1 single + 1 two-row batch),
	// one 404, one 400, and a 2-record capture batch.
	in := inputVec(1, 5)
	post("/v1/infer", InferRequest{Model: "m", Input: in}, http.StatusOK)
	post("/v1/infer", InferRequest{Model: "m", Inputs: [][]float64{inputVec(2, 5), inputVec(3, 5)}}, http.StatusOK)
	post("/v1/infer", InferRequest{Model: "ghost", Input: in}, http.StatusNotFound)
	post("/v1/infer", InferRequest{Model: "m", Input: in[:2]}, http.StatusBadRequest)
	post("/v1/capture", serveapi.CaptureRequest{DB: "d",
		Records: []serveapi.CaptureRecord{captureRec("r", 1), captureRec("r", 2)}}, http.StatusOK)

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentTypePrometheus {
		t.Fatalf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	exp := string(raw)

	if v := metricValue(t, exp, `hpacml_infer_requests_total{model="m",outcome="ok"}`); v != 3 {
		t.Fatalf("ok inferences = %v, want 3", v)
	}
	if v := metricValue(t, exp, `hpacml_infer_batches_total{model="m"}`); v < 1 {
		t.Fatalf("batches = %v, want >= 1", v)
	}
	if v := metricValue(t, exp, `hpacml_infer_queue_seconds_count{model="m"}`); v != 3 {
		t.Fatalf("queue-wait observations = %v, want 3", v)
	}
	if v := metricValue(t, exp, `hpacml_infer_latency_seconds_bucket{model="m",le="+Inf"}`); v != 3 {
		t.Fatalf("latency +Inf bucket = %v, want 3", v)
	}
	if v := metricValue(t, exp, `hpacml_capture_records_total{db="d"}`); v != 2 {
		t.Fatalf("capture records = %v, want 2", v)
	}
	if v := metricValue(t, exp, `hpacml_capture_batches_total{db="d",outcome="ok"}`); v != 1 {
		t.Fatalf("capture batches = %v, want 1", v)
	}
	if v := metricValue(t, exp, `hpacml_http_requests_total{path="/v1/infer",code="200"}`); v != 2 {
		t.Fatalf("infer 200s = %v, want 2", v)
	}
	if v := metricValue(t, exp, `hpacml_http_requests_total{path="/v1/infer",code="404"}`); v != 1 {
		t.Fatalf("infer 404s = %v, want 1", v)
	}
	if v := metricValue(t, exp, `hpacml_http_requests_total{path="/v1/infer",code="400"}`); v != 1 {
		t.Fatalf("infer 400s = %v, want 1", v)
	}
	if v := metricValue(t, exp, `hpacml_wire_requests_total{endpoint="infer",wire="json",dtype="f64"}`); v != 4 {
		t.Fatalf("json infer wire = %v, want 4 (every decodable infer POST, failures included)", v)
	}
	if v := metricValue(t, exp, `hpacml_queue_capacity{model="m"}`); v != 64 {
		t.Fatalf("queue capacity = %v, want 64 (8*MaxBatch)", v)
	}
	// The region bridge: every surrogate-served row of an ungated
	// region counts as trusted.
	if v := metricValue(t, exp, `hpacml_region_rows_total{model="m",verdict="trusted"}`); v != 3 {
		t.Fatalf("trusted rows = %v, want 3", v)
	}
	if !strings.Contains(exp, "hpacml_build_info{") {
		t.Fatal("exposition missing hpacml_build_info")
	}
	if !strings.Contains(exp, "hpacml_uptime_seconds ") {
		t.Fatal("exposition missing hpacml_uptime_seconds")
	}

	// /v1/stats reads the same counters — the totals cannot disagree.
	snap := s.Snapshot()[0]
	if snap.Completed != 3 || snap.Errors != 0 {
		t.Fatalf("snapshot totals diverge from metrics: %+v", snap)
	}
	if got := metricValue(t, exp, `hpacml_infer_batches_total{model="m"}`); uint64(got) != snap.Batches {
		t.Fatalf("batches: metrics %v vs snapshot %d", got, snap.Batches)
	}
}

// TestRejectedCountsInMetrics: queue-full rejections land in the
// rejected outcome series, consistent with the snapshot.
func TestRejectedCountsInMetrics(t *testing.T) {
	hpacml.ClearModelCache()
	dir := t.TempDir()
	path := saveMLP(t, dir, "m.gmod", 23, 3, 8, 1)
	stall, entered := make(chan struct{}), make(chan struct{}, 8)
	cfg := Config{MaxBatch: 1, MaxDelay: time.Millisecond, QueueCap: 1, Workers: 1,
		batchHook: func(string, int) { entered <- struct{}{}; <-stall }}
	s, err := NewServer(cfg, ModelSpec{Name: "m", Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Fill the worker (blocked in the hook), then the 1-row queue, then
	// overflow it.
	errc := make(chan error, 2)
	submit := func() {
		_, err := s.Infer("m", []float64{1, 2, 3})
		errc <- err
	}
	go submit()
	<-entered
	go submit()
	var rejected int
	deadline := time.After(5 * time.Second)
	for metricValue(t, string(s.Metrics().AppendPrometheus(nil)), `hpacml_queue_depth{model="m"}`) < 1 {
		select {
		case <-deadline:
			t.Fatal("queue never filled")
		case <-time.After(time.Millisecond):
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Infer("m", []float64{1, 2, 3}); errors.Is(err, ErrQueueFull) {
			rejected++
		}
	}
	close(stall)
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if rejected == 0 {
		t.Fatal("no request was rejected")
	}
	exp := string(s.Metrics().AppendPrometheus(nil))
	if v := metricValue(t, exp, `hpacml_infer_requests_total{model="m",outcome="rejected"}`); int(v) != rejected {
		t.Fatalf("rejected metric = %v, want %d", v, rejected)
	}
	if snap := s.Snapshot()[0]; int(snap.Rejected) != rejected {
		t.Fatalf("snapshot rejected = %d, want %d", snap.Rejected, rejected)
	}
}

// syncBuffer serializes concurrent handler log writes against the
// test's reads.
type syncBuffer struct {
	mu  chan struct{}
	buf bytes.Buffer
}

func newSyncBuffer() *syncBuffer {
	sb := &syncBuffer{mu: make(chan struct{}, 1)}
	sb.mu <- struct{}{}
	return sb
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	<-b.mu
	defer func() { b.mu <- struct{}{} }()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	<-b.mu
	defer func() { b.mu <- struct{}{} }()
	return b.buf.String()
}

// TestRequestIDTraceability pins the tracing contract end to end: a
// client-chosen X-Request-ID shows up in the server's structured log
// line (with the stage breakdown) and in the error body of a failed
// call, and a client that sends no ID still gets one echoed back.
func TestRequestIDTraceability(t *testing.T) {
	hpacml.ClearModelCache()
	dir := t.TempDir()
	path := saveMLP(t, dir, "m.gmod", 25, 4, 8, 2)
	s, err := NewServer(Config{MaxBatch: 4, MaxDelay: time.Millisecond, Workers: 1},
		ModelSpec{Name: "m", Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	logBuf := newSyncBuffer()
	logger := slog.New(slog.NewTextHandler(logBuf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	ts := httptest.NewServer(NewHandler(s, WithLogger(logger)))
	defer ts.Close()

	c := serveclient.New(ts.URL)
	defer c.CloseIdleConnections()

	// Traced success: the chosen ID must reach the matching log line.
	ctx := serveclient.WithRequestID(context.Background(), "trace-ok-42")
	if _, err := c.Infer(ctx, "m", []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}

	// Traced failure: the ID comes back in the structured error.
	ctx = serveclient.WithRequestID(context.Background(), "trace-err-7")
	_, err = c.Infer(ctx, "ghost", []float64{1})
	var api *serveclient.APIError
	if !errors.As(err, &api) {
		t.Fatalf("want APIError, got %v", err)
	}
	if api.RequestID != "trace-err-7" {
		t.Fatalf("APIError.RequestID = %q, want trace-err-7", api.RequestID)
	}
	if !strings.Contains(api.Error(), "trace-err-7") {
		t.Fatalf("error string must quote the request ID: %q", api.Error())
	}

	// No caller ID: the client mints one and the server echoes it.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get(serveapi.HeaderRequestID) == "" {
		t.Fatal("server must mint and echo a request ID when none is sent")
	}

	// The handler logs after writing the response; closing the test
	// server waits for every in-flight handler, making the log
	// complete.
	ts.Close()
	logs := logBuf.String()
	okLine := ""
	for _, line := range strings.Split(logs, "\n") {
		if strings.Contains(line, "rid=trace-ok-42") {
			okLine = line
			break
		}
	}
	if okLine == "" {
		t.Fatalf("no log line for rid=trace-ok-42 in:\n%s", logs)
	}
	for _, want := range []string{"path=/v1/infer", "status=200", "model=m", "wire=json", "rows=1", "queue=", "forward=", "decode=", "encode="} {
		if !strings.Contains(okLine, want) {
			t.Fatalf("traced log line missing %q: %s", want, okLine)
		}
	}
	if !strings.Contains(logs, "rid=trace-err-7") {
		t.Fatalf("no log line for the failed request in:\n%s", logs)
	}
}

// TestHealthzBuildInfo: /healthz carries version/revision/go fields
// alongside liveness.
func TestHealthzBuildInfo(t *testing.T) {
	hpacml.ClearModelCache()
	dir := t.TempDir()
	s, err := NewServer(Config{CaptureDBs: []CaptureSpec{{Name: "d", Path: filepath.Join(dir, "c.gh5")}}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr serveapi.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" || hr.Version == "" || hr.GoVersion == "" {
		t.Fatalf("health = %+v", hr)
	}
}
