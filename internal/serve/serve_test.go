package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	hpacml "repro"

	"repro/internal/nn"
	"repro/internal/serveapi"
	"repro/internal/tensor"
)

// saveMLP writes a deterministic dense network to dir and returns its
// path. Random weights are fine: serving tests check plumbing, not
// surrogate quality.
func saveMLP(t *testing.T, dir, name string, seed int64, widths ...int) string {
	t.Helper()
	net := mlp(seed, widths...)
	path := filepath.Join(dir, name)
	if err := net.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func mlp(seed int64, widths ...int) *nn.Network {
	net := nn.NewNetwork(seed)
	for i := 0; i < len(widths)-1; i++ {
		net.Add(net.NewDense(widths[i], widths[i+1]))
		if i < len(widths)-2 {
			net.Add(nn.NewActivation(nn.ActTanh))
		}
	}
	return net
}

// directForward computes the reference output for one input vector by
// loading the model fresh and running it as a [1, in] batch — what the
// server must reproduce bit for bit.
func directForward(t *testing.T, path string, in []float64) []float64 {
	t.Helper()
	net, err := nn.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	x, err := tensor.FromSlice(append([]float64(nil), in...), 1, len(in))
	if err != nil {
		t.Fatal(err)
	}
	y, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	return append([]float64(nil), y.Contiguous().Data()...)
}

func inputVec(seed, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64((seed*31+i*7)%23)/23 - 0.5
	}
	return v
}

// TestInferMatchesDirect: a coalesced server answer is bit-identical to
// running the model directly, across several distinct inputs and both
// replicas.
func TestInferMatchesDirect(t *testing.T) {
	hpacml.ClearModelCache()
	dir := t.TempDir()
	path := saveMLP(t, dir, "m.gmod", 3, 5, 16, 2)
	s, err := NewServer(Config{MaxBatch: 4, MaxDelay: time.Millisecond, Workers: 2},
		ModelSpec{Name: "m", Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for k := 0; k < 20; k++ {
		in := inputVec(k, 5)
		got, err := s.Infer("m", in)
		if err != nil {
			t.Fatal(err)
		}
		want := directForward(t, path, in)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("input %d: served %v, direct %v", k, got, want)
			}
		}
	}

	if _, err := s.Infer("nope", []float64{1}); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("want ErrUnknownModel, got %v", err)
	}
	if _, err := s.Infer("m", []float64{1, 2}); err == nil {
		t.Fatal("want input-width error")
	}
}

// TestDimInference: registry resolves I/O widths from the .gmod itself
// and refuses explicit widths that contradict the file.
func TestDimInference(t *testing.T) {
	hpacml.ClearModelCache()
	dir := t.TempDir()
	path := saveMLP(t, dir, "m.gmod", 9, 7, 8, 3)

	s, err := NewServer(Config{}, ModelSpec{Name: "m", Path: path})
	if err != nil {
		t.Fatal(err)
	}
	info := s.Models()[0]
	s.Close()
	if info.InDim != 7 || info.OutDim != 3 {
		t.Fatalf("inferred dims %d->%d, want 7->3", info.InDim, info.OutDim)
	}
	if info.Checksum == "" || info.Replicas != 2 {
		t.Fatalf("bad info: %+v", info)
	}

	if _, err := NewServer(Config{}, ModelSpec{Name: "m", Path: path, In: 7, Out: 4}); err == nil {
		t.Fatal("want dim-mismatch error")
	}
	if _, err := NewServer(Config{}, ModelSpec{Name: "m", Path: filepath.Join(dir, "missing.gmod")}); err == nil {
		t.Fatal("want missing-file error")
	}
}

// TestCoalescerFormsBatches pins the tentpole behavior: requests
// submitted by independent goroutines are served in batches larger than
// one. A hook stalls the single worker on its first batch so the rest of
// the traffic is provably queued before the next cut.
func TestCoalescerFormsBatches(t *testing.T) {
	hpacml.ClearModelCache()
	dir := t.TempDir()
	path := saveMLP(t, dir, "m.gmod", 4, 3, 8, 1)

	entered := make(chan struct{}, 64)
	release := make(chan struct{})
	gate := release
	cfg := Config{
		MaxBatch: 16,
		// Generous: the fill loop drains whatever is queued, and only the
		// first batch (cut while the queue was still empty) pays the wait.
		MaxDelay: 50 * time.Millisecond,
		Workers:  1,
		batchHook: func(string, int) {
			entered <- struct{}{}
			<-gate
		},
	}
	s, err := NewServer(cfg, ModelSpec{Name: "m", Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const later = 16
	results := make(chan error, later+1)
	go func() { _, err := s.Infer("m", inputVec(0, 3)); results <- err }()
	<-entered // worker is stalled inside its first (size-1) batch

	m := s.models["m"]
	for k := 1; k <= later; k++ {
		go func(k int) { _, err := s.Infer("m", inputVec(k, 3)); results <- err }(k)
	}
	waitFor(t, func() bool { return m.waiting.Load() == later })
	close(release)

	for i := 0; i < later+1; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Snapshot()[0]
	if snap.Completed != later+1 {
		t.Fatalf("completed %d, want %d", snap.Completed, later+1)
	}
	// First batch was 1; the 16 queued requests must have coalesced into
	// a single full batch.
	if snap.BatchHist["1"] != 1 || snap.BatchHist["16"] != 1 || snap.Batches != 2 {
		t.Fatalf("histogram %v (batches %d): queued requests did not coalesce", snap.BatchHist, snap.Batches)
	}
	if snap.MeanBatch <= 1 {
		t.Fatalf("mean batch %v, want > 1", snap.MeanBatch)
	}
	if snap.Region.BatchedInvocations != later+1 {
		t.Fatalf("region counters did not aggregate: %+v", snap.Region)
	}
}

// TestBackpressure pins the bounded-queue contract: with the worker
// stalled and the queue full, Infer fails fast with ErrQueueFull instead
// of buffering, and the rejection is counted.
func TestBackpressure(t *testing.T) {
	hpacml.ClearModelCache()
	dir := t.TempDir()
	path := saveMLP(t, dir, "m.gmod", 4, 3, 8, 1)

	entered := make(chan struct{}, 64)
	release := make(chan struct{})
	cfg := Config{
		MaxBatch: 4,
		MaxDelay: time.Nanosecond,
		QueueCap: 2,
		Workers:  1,
		batchHook: func(string, int) {
			entered <- struct{}{}
			<-release
		},
	}
	s, err := NewServer(cfg, ModelSpec{Name: "m", Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	results := make(chan error, 3)
	go func() { _, err := s.Infer("m", inputVec(0, 3)); results <- err }()
	<-entered

	m := s.models["m"]
	for k := 1; k <= 2; k++ {
		go func(k int) { _, err := s.Infer("m", inputVec(k, 3)); results <- err }(k)
	}
	waitFor(t, func() bool { return m.waiting.Load() == 2 })

	if _, err := s.Infer("m", inputVec(9, 3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	close(release)
	for i := 0; i < 3; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	if snap := s.Snapshot()[0]; snap.Rejected != 1 || snap.Completed != 3 {
		t.Fatalf("rejected %d completed %d, want 1 and 3", snap.Rejected, snap.Completed)
	}
}

// TestHotReload: a retrained file swaps in via checksum detection
// without restarting; a reload that would change the model's I/O widths
// is refused and the old weights keep serving.
func TestHotReload(t *testing.T) {
	hpacml.ClearModelCache()
	dir := t.TempDir()
	path := saveMLP(t, dir, "m.gmod", 11, 4, 8, 2)
	in := inputVec(5, 4)

	s, err := NewServer(Config{Workers: 2}, ModelSpec{Name: "m", Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	out1, err := s.Infer("m", in)
	if err != nil {
		t.Fatal(err)
	}

	// Retrain: same shape, different weights.
	if err := mlp(12, 4, 8, 2).Save(path); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckReload(); err != nil {
		t.Fatal(err)
	}
	want := directForward(t, path, in)
	// Both replicas must swap; hit the pool several times.
	for k := 0; k < 8; k++ {
		out2, err := s.Infer("m", in)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if out2[i] != want[i] {
				t.Fatalf("call %d: got %v, want reloaded %v (old %v)", k, out2, want, out1)
			}
		}
	}
	snap := s.Snapshot()[0]
	if snap.Generation != 1 || snap.Reloads != 1 {
		t.Fatalf("generation %d reloads %d, want 1/1", snap.Generation, snap.Reloads)
	}

	// A width-changing "retrain" must be refused.
	if err := mlp(13, 5, 8, 2).Save(path); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckReload(); err == nil {
		t.Fatal("want reload-refused error")
	}
	out3, err := s.Infer("m", in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if out3[i] != want[i] {
			t.Fatal("refused reload still changed the served model")
		}
	}
	if snap := s.Snapshot()[0]; snap.ReloadErrors == 0 || snap.Generation != 1 {
		t.Fatalf("reload errors %d generation %d, want >0 and 1", snap.ReloadErrors, snap.Generation)
	}
}

// TestCloseDrains: requests queued before Close complete; requests after
// Close fail with ErrServerClosed.
func TestCloseDrains(t *testing.T) {
	hpacml.ClearModelCache()
	dir := t.TempDir()
	path := saveMLP(t, dir, "m.gmod", 4, 3, 8, 1)
	s, err := NewServer(Config{Workers: 1}, ModelSpec{Name: "m", Path: path})
	if err != nil {
		t.Fatal(err)
	}
	const n = 24
	results := make(chan error, n)
	for k := 0; k < n; k++ {
		go func(k int) { _, err := s.Infer("m", inputVec(k, 3)); results <- err }(k)
	}
	// Close concurrently with the burst: everything accepted must drain.
	time.Sleep(2 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := <-results; err != nil && !errors.Is(err, ErrServerClosed) {
			t.Fatal(err)
		}
	}
	if _, err := s.Infer("m", inputVec(0, 3)); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("want ErrServerClosed, got %v", err)
	}
	if s.Close() != nil {
		t.Fatal("second Close must be a no-op")
	}
}

// TestHTTPAPI drives the four endpoints through a real HTTP stack.
func TestHTTPAPI(t *testing.T) {
	hpacml.ClearModelCache()
	dir := t.TempDir()
	path := saveMLP(t, dir, "m.gmod", 6, 3, 8, 2)
	s, err := NewServer(Config{}, ModelSpec{Name: "m", Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	// Single invocation.
	in := inputVec(1, 3)
	body, _ := json.Marshal(InferRequest{Model: "m", Input: in})
	resp, payload := post(string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer: %d %s", resp.StatusCode, payload)
	}
	var ir InferResponse
	if err := json.Unmarshal(payload, &ir); err != nil {
		t.Fatal(err)
	}
	want := directForward(t, path, in)
	for i := range want {
		if ir.Output[i] != want[i] {
			t.Fatalf("HTTP output %v, want %v", ir.Output, want)
		}
	}

	// Fan-out list form: submitted concurrently, so it coalesces.
	body, _ = json.Marshal(InferRequest{Model: "m", Inputs: [][]float64{inputVec(2, 3), inputVec(3, 3)}})
	resp, payload = post(string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch infer: %d %s", resp.StatusCode, payload)
	}
	ir = InferResponse{}
	if err := json.Unmarshal(payload, &ir); err != nil {
		t.Fatal(err)
	}
	if len(ir.Outputs) != 2 || len(ir.Outputs[0]) != 2 {
		t.Fatalf("batch outputs: %v", ir.Outputs)
	}

	// Error mapping.
	if resp, _ := post(`{"model":"ghost","input":[1,2,3]}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: %d", resp.StatusCode)
	}
	if resp, _ := post(`{"model":"m","input":[1]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad width: %d", resp.StatusCode)
	}
	if resp, _ := post(`{"model":"m"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("no input: %d", resp.StatusCode)
	}
	if resp, _ := post(`{broken`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json: %d", resp.StatusCode)
	}

	for _, ep := range []string{"/v1/models", "/v1/stats", "/healthz"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", ep, resp.StatusCode)
		}
	}
	var sr StatsResponse
	resp2, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Models) != 1 || sr.Models[0].Completed < 3 {
		t.Fatalf("stats payload: %+v", sr)
	}

	// Provenance: /v1/models reports where the served weights came from
	// (path), what they hash to (the member-set checksum: sha256 of the
	// concatenated per-file sha256s), and when they were loaded.
	respM, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer respM.Body.Close()
	var infos []serveapi.ModelInfo
	if err := json.NewDecoder(respM.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("models payload: %+v", infos)
	}
	info := infos[0]
	if info.Path != path {
		t.Fatalf("model path %q, want %q", info.Path, path)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	leaf := sha256.Sum256(raw)
	agg := sha256.New()
	agg.Write(leaf[:])
	if want := hex.EncodeToString(agg.Sum(nil)); info.Checksum != want {
		t.Fatalf("model checksum %q, want %q", info.Checksum, want)
	}
	if info.LoadedAt.IsZero() || time.Since(info.LoadedAt) > time.Hour {
		t.Fatalf("model loaded_at %v is not a fresh load time", info.LoadedAt)
	}
}

// waitFor polls cond for up to ~2s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}

// TestSnapshotJSON makes sure the stats payload round-trips through
// encoding/json (the ModelSnapshot embeds hpacml.Stats).
func TestSnapshotJSON(t *testing.T) {
	hpacml.ClearModelCache()
	dir := t.TempDir()
	path := saveMLP(t, dir, "m.gmod", 6, 3, 8, 2)
	s, err := NewServer(Config{}, ModelSpec{Name: "m", Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Infer("m", inputVec(0, 3)); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"batch_hist"`)) || !bytes.Contains(b, []byte(`"throughput_rps"`)) {
		t.Fatalf("snapshot JSON missing fields: %s", b)
	}
}
