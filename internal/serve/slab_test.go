package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	hpacml "repro"

	"repro/internal/nn"
	"repro/internal/serveapi"
	"repro/internal/serveclient"
	"repro/internal/tensor"
)

// slabInputs is rows x cols of reproducible in-distribution features.
func slabInputs(seed int64, rows, cols int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	in := make([]float64, rows*cols)
	for i := range in {
		in[i] = rng.NormFloat64()
	}
	return in
}

// fitSidecar writes a gate-passing ".quant" sidecar beside the saved
// model. The tolerance is loose: the tests need the int8 program to
// serve, not to be accurate on an untrained network.
func fitSidecar(t testing.TB, path string) {
	t.Helper()
	net, err := nn.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := net.VectorIO()
	if err != nil {
		t.Fatal(err)
	}
	x, err := tensor.FromSlice(slabInputs(17, 400, in), 400, in)
	if err != nil {
		t.Fatal(err)
	}
	calib, err := hpacml.FitQuant(net, x, hpacml.QuantFitConfig{RTol: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := calib.SaveQuant(nn.QuantPath(path)); err != nil {
		t.Fatal(err)
	}
}

// directEngine runs rows through a fresh LocalEngine at the spec's
// precision in one call — the answer every serve entry must reproduce
// bit for bit, however it cut the rows into batches.
func directEngine(t testing.TB, spec ModelSpec, in []float64, rows, cols, outCols int) []float64 {
	t.Helper()
	e := hpacml.NewLocalEngine(spec.Path, localOptions(spec)...)
	x, err := tensor.FromSlice(in, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	y := tensor.New(rows, outCols)
	if err := e.Infer(context.Background(), x, y); err != nil {
		t.Fatal(err)
	}
	if want := askedPrecision(spec); e.Precision() != want {
		t.Fatalf("reference engine runs %s, want %s", e.Precision(), want)
	}
	return y.Data()
}

func sameBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("value %d: served %v, direct %v", i, got[i], want[i])
		}
	}
	return nil
}

// TestSlabMatchesDirectEngine is the differential table for the
// slab-native path: whatever the row count (below, at and above
// MaxBatch, several ranges and a tail), the entry (binary frame, JSON
// inputs, concurrent Server.Infer calls) and the precision, the served
// rows equal one direct LocalEngine.Infer over the same rows at the
// same precision, bitwise.
func TestSlabMatchesDirectEngine(t *testing.T) {
	const maxBatch, cols, outCols = 8, 5, 2
	for _, prec := range []struct {
		name     string
		f32, i8  bool
		wantPrec string
	}{{"f64", false, false, "f64"}, {"f32", true, false, "f32"}, {"i8", false, true, "int8"}} {
		t.Run(prec.name, func(t *testing.T) {
			hpacml.ClearModelCache()
			path := saveMLP(t, t.TempDir(), "m.gmod", 31, cols, 16, outCols)
			if prec.i8 {
				fitSidecar(t, path)
			}
			spec := ModelSpec{Name: "m", Path: path, F32: prec.f32, I8: prec.i8}
			s, err := NewServer(Config{MaxBatch: maxBatch, MaxDelay: time.Millisecond, Workers: 2}, spec)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if got := s.Models()[0].Precision; got != prec.wantPrec {
				t.Fatalf("server runs %q, want %q", got, prec.wantPrec)
			}
			ts := httptest.NewServer(NewHandler(s))
			defer ts.Close()
			binary := serveclient.New(ts.URL, serveclient.WithWire(serveclient.WireBinary))
			defer binary.CloseIdleConnections()

			for _, rows := range []int{1, maxBatch - 1, maxBatch, maxBatch + 1, 3*maxBatch + 5} {
				in := slabInputs(int64(rows), rows, cols)
				want := directEngine(t, spec, in, rows, cols, outCols)

				got, gotCols, err := binary.InferMatrix(context.Background(), "m", rows, cols, in, nil)
				if err != nil || gotCols != outCols {
					t.Fatalf("%d rows, frame: %d cols, %v", rows, gotCols, err)
				}
				if err := sameBits(got, want); err != nil {
					t.Fatalf("%d rows, frame: %v", rows, err)
				}

				inputs := make([][]float64, rows)
				for i := range inputs {
					inputs[i] = in[i*cols : (i+1)*cols]
				}
				body, _ := json.Marshal(InferRequest{Model: "m", Inputs: inputs})
				resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				var ir InferResponse
				err = json.NewDecoder(resp.Body).Decode(&ir)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || len(ir.Outputs) != rows {
					t.Fatalf("%d rows, JSON inputs: status %d, %d outputs, %v", rows, resp.StatusCode, len(ir.Outputs), err)
				}
				got = got[:0]
				for _, row := range ir.Outputs {
					got = append(got, row...)
				}
				if err := sameBits(got, want); err != nil {
					t.Fatalf("%d rows, JSON inputs: %v", rows, err)
				}

				// Independent callers, one row each: these coalesce through
				// the staging slab in whatever groups the timing yields.
				got = make([]float64, rows*outCols)
				errs := make(chan error, rows)
				for i := 0; i < rows; i++ {
					go func(i int) {
						out, err := s.Infer("m", in[i*cols:(i+1)*cols])
						copy(got[i*outCols:], out)
						errs <- err
					}(i)
				}
				for i := 0; i < rows; i++ {
					if err := <-errs; err != nil {
						t.Fatalf("%d rows, Server.Infer: %v", rows, err)
					}
				}
				if err := sameBits(got, want); err != nil {
					t.Fatalf("%d rows, Server.Infer: %v", rows, err)
				}
			}
		})
	}
}

// captureDefaultLog points slog's default logger at a buffer for the
// test's duration.
func captureDefaultLog(t *testing.T) *syncBuffer {
	t.Helper()
	prev := slog.Default()
	buf := newSyncBuffer()
	slog.SetDefault(slog.New(slog.NewTextHandler(buf, nil)))
	t.Cleanup(func() { slog.SetDefault(prev) })
	return buf
}

// TestPrecisionReported: /v1/models says which compute path serves, not
// which was asked for. An I8 spec without a sidecar serves f64 and says
// so — in the registry and in one warning — and the same spec with a
// fitted sidecar serves int8 silently. A reload that loses the sidecar
// is a downgrade too, reported once the replicas have swapped.
func TestPrecisionReported(t *testing.T) {
	hpacml.ClearModelCache()
	logs := captureDefaultLog(t)
	path := saveMLP(t, t.TempDir(), "m.gmod", 41, 5, 16, 2)
	spec := ModelSpec{Name: "m", Path: path, I8: true}
	const downgrade = "not served at the precision it was registered with"

	s, err := NewServer(Config{Workers: 2}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if info := s.Models()[0]; info.Precision != "f64" || !strings.Contains(info.PrecisionReason, "no sidecar") {
		t.Fatalf("no sidecar: precision %q, reason %q; want f64 for want of a sidecar", info.Precision, info.PrecisionReason)
	}
	s.Close()
	if n := strings.Count(logs.String(), downgrade); n != 1 {
		t.Fatalf("no sidecar: %d downgrade warnings, want 1 (not one per replica):\n%s", n, logs.String())
	}
	if l := logs.String(); !strings.Contains(l, "asked=int8") || !strings.Contains(l, "serving=f64") || !strings.Contains(l, "no sidecar") {
		t.Fatalf("warning does not name both precisions and the reason: %s", l)
	}

	hpacml.ClearModelCache()
	fitSidecar(t, path)
	if s, err = NewServer(Config{Workers: 2}, spec); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var infos []serveapi.ModelInfo
	err = json.NewDecoder(resp.Body).Decode(&infos)
	resp.Body.Close()
	if err != nil || len(infos) != 1 || infos[0].Precision != "int8" || infos[0].PrecisionReason != "" {
		t.Fatalf("fitted sidecar: /v1/models = %+v, %v; want precision int8 and no reason", infos, err)
	}
	if n := strings.Count(logs.String(), downgrade); n != 1 {
		t.Fatalf("fitted sidecar: a warning was logged for a model served as asked:\n%s", logs.String())
	}

	// Retrain, losing the sidecar: the swap keeps serving, on the wide
	// path, and says so.
	if err := os.Remove(nn.QuantPath(path)); err != nil {
		t.Fatal(err)
	}
	if err := mlp(42, 5, 16, 2).Save(path); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckReload(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Infer("m", inputVec(1, 5)); err != nil {
		t.Fatal(err)
	}
	if info := s.Models()[0]; info.Precision != "f64" || info.Generation != 1 {
		t.Fatalf("after reload without a sidecar: %+v, want f64 at generation 1", info)
	}
	if n := strings.Count(logs.String(), downgrade); n != 2 {
		t.Fatalf("reload downgrade: %d warnings in total, want 2:\n%s", n, logs.String())
	}
}

// TestEnsemblePrecisionReason: an ensemble asked for f32 serves f64
// and says why.
func TestEnsemblePrecisionReason(t *testing.T) {
	hpacml.ClearModelCache()
	dir := t.TempDir()
	spec := ModelSpec{Name: "e", Path: saveMLP(t, dir, "a.gmod", 43, 5, 8, 2),
		Ensemble: []string{saveMLP(t, dir, "b.gmod", 44, 5, 8, 2)}, F32: true}
	s, err := NewServer(Config{Workers: 1}, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if info := s.Models()[0]; info.Precision != "f64" || info.PrecisionReason != "ensemble runs f64" {
		t.Fatalf("f32 ensemble: precision %q, reason %q", info.Precision, info.PrecisionReason)
	}
}

// TestJSONRequestLimits: the JSON wire has the frame wire's armor — a
// body over serveapi.MaxFrameLen is 413 whether declared or streamed,
// a batch over the per-request row limit or with no rows is 400, and a
// ragged batch is the 400 a wrong-width vector always was.
func TestJSONRequestLimits(t *testing.T) {
	hpacml.ClearModelCache()
	dir := t.TempDir()
	path := saveMLP(t, dir, "m.gmod", 11, 3, 8, 1)
	s, err := NewServer(Config{MaxBatch: 4, MaxDelay: time.Millisecond, Workers: 1,
		CaptureDBs: []CaptureSpec{{Name: "d", Path: filepath.Join(dir, "cap.gh5")}}},
		ModelSpec{Name: "m", Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := NewHandler(s)

	tooManyRows := `{"model":"m","inputs":[` + strings.Repeat("[],", maxInferRows) + `[]]}`
	// An unterminated array of spaces: valid JSON so far at every byte,
	// so only the size bound can stop the decoder.
	endless := func() io.Reader {
		return io.MultiReader(strings.NewReader(`{"model":"m","input":[`), io.LimitReader(repeatReader(' '), serveapi.MaxFrameLen))
	}
	for _, tc := range []struct {
		name, target string
		body         io.Reader
		length       int64
		code         int
		contains     string
	}{
		{"infer: declared oversize", "/v1/infer", http.NoBody, serveapi.MaxFrameLen + 1, http.StatusRequestEntityTooLarge, ""},
		{"capture: declared oversize", "/v1/capture", http.NoBody, serveapi.MaxFrameLen + 1, http.StatusRequestEntityTooLarge, ""},
		{"infer: streamed oversize", "/v1/infer", endless(), -1, http.StatusRequestEntityTooLarge, ""},
		{"infer: too many rows", "/v1/infer", strings.NewReader(tooManyRows), int64(len(tooManyRows)), http.StatusBadRequest, "limit"},
		{"infer: no rows", "/v1/infer", strings.NewReader(`{"model":"m","inputs":[]}`), -1, http.StatusBadRequest, "at least one row"},
		{"infer: ragged row", "/v1/infer", strings.NewReader(`{"model":"m","inputs":[[1,2,3],[1,2]]}`), -1, http.StatusBadRequest, "wants 3 input features, got 2"},
		{"infer: well-formed", "/v1/infer", strings.NewReader(`{"model":"m","inputs":[[1,2,3],[3,2,1]]}`), -1, http.StatusOK, `"outputs"`},
	} {
		req := httptest.NewRequest(http.MethodPost, tc.target, tc.body)
		req.Header.Set("Content-Type", "application/json")
		req.ContentLength = tc.length
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.code || !strings.Contains(rec.Body.String(), tc.contains) {
			t.Errorf("%s: %d %s, want %d containing %q", tc.name, rec.Code, rec.Body, tc.code, tc.contains)
		}
	}
}

// stallHook is a batchHook that parks every batch until the test lets
// it through, keeping count of the rows parked inside it.
type stallHook struct {
	entered   chan int      // receives each batch's row count as it parks
	gate      chan struct{} // one receive (or a close) releases one batch
	inService atomic.Int64
}

func newStallHook() *stallHook {
	return &stallHook{entered: make(chan int, 1024), gate: make(chan struct{})}
}

func (h *stallHook) hook(_ string, rows int) {
	h.inService.Add(int64(rows))
	h.entered <- rows
	<-h.gate
	h.inService.Add(-int64(rows))
}

func queueDepth(t *testing.T, s *Server) int64 {
	t.Helper()
	return int64(metricValue(t, string(s.Metrics().AppendPrometheus(nil)), `hpacml_queue_depth{model="m"}`))
}

// postFrame drives one binary /v1/infer request straight through the
// handler and delivers the recorded response.
func postFrame(t *testing.T, h http.Handler, rows, cols int, in []float64) <-chan *httptest.ResponseRecorder {
	t.Helper()
	frame, err := serveapi.AppendInferRequest(nil, serveapi.DtypeF64, "m", rows, cols, in)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(frame))
		req.Header.Set("Content-Type", serveapi.ContentTypeFrame)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		done <- rec
	}()
	return done
}

// TestFrameInflightRowBound: however many rows one frame carries, no
// more than maxInflightRows of them are queued or in service at any
// moment — the rest wait in the handler, outside the bounded queue the
// other callers share. Both workers are parked in the batch hook and
// released one batch at a time; at every step the rows inside the hook
// plus hpacml_queue_depth stay at the bound, never above it.
func TestFrameInflightRowBound(t *testing.T) {
	hpacml.ClearModelCache()
	const maxBatch, cols, rows = 8, 3, 1000
	path := saveMLP(t, t.TempDir(), "m.gmod", 4, cols, 8, 1)
	stall := newStallHook()
	s, err := NewServer(Config{MaxBatch: maxBatch, Workers: 2, QueueCap: 4096, batchHook: stall.hook},
		ModelSpec{Name: "m", Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	in := slabInputs(5, rows, cols)
	resp := postFrame(t, NewHandler(s), rows, cols, in)
	held := func() int64 { return stall.inService.Load() + queueDepth(t, s) }
	for step := 0; step < 40; step++ {
		// Steady state between releases: both workers parked on a full
		// range, the handler's window filled up behind them.
		waitFor(t, func() bool { return stall.inService.Load() == 2*maxBatch && held() == maxInflightRows })
		for i := 0; i < 20; i++ {
			if h := held(); h > maxInflightRows {
				t.Fatalf("step %d: %d rows queued or in service, bound %d", step, h, maxInflightRows)
			}
			time.Sleep(50 * time.Microsecond)
		}
		stall.gate <- struct{}{}
	}
	close(stall.gate)
	rec := <-resp
	if rec.Code != http.StatusOK {
		t.Fatalf("frame: %d %s", rec.Code, rec.Body)
	}
	f, err := serveapi.DecodeInferResponse(rec.Body.Bytes(), nil)
	if err != nil || f.Rows != rows {
		t.Fatalf("response frame: %d rows, %v", f.Rows, err)
	}
	for _, i := range []int{0, maxBatch, rows / 2, rows - 1} {
		if want := directForward(t, path, in[i*cols:(i+1)*cols]); f.Data[i] != want[0] {
			t.Fatalf("row %d: served %v, direct %v", i, f.Data[i], want[0])
		}
	}
	for len(stall.entered) > 0 {
		if n := <-stall.entered; n > maxBatch {
			t.Fatalf("a batch of %d rows reached the engine, MaxBatch %d", n, maxBatch)
		}
	}
	if snap := s.Snapshot()[0]; snap.Completed != rows || snap.Rejected != 0 {
		t.Fatalf("completed %d rejected %d, want %d and 0", snap.Completed, snap.Rejected, rows)
	}
}

// TestFrameRefusedRangeWaitsForAdmitted: QueueCap still bounds the rows
// waiting, now per range, and a frame whose later range is refused
// answers 429 only after the ranges admitted before it have completed —
// they view the request's pooled slabs, which the handler gives back
// the moment it returns. The follow-up requests take those slabs out of
// the pool again; under -race a worker still writing into them after
// the 429 would be reported.
func TestFrameRefusedRangeWaitsForAdmitted(t *testing.T) {
	hpacml.ClearModelCache()
	const maxBatch, cols = 4, 3
	path := saveMLP(t, t.TempDir(), "m.gmod", 4, cols, 8, 1)
	stall := newStallHook()
	s, err := NewServer(Config{MaxBatch: maxBatch, QueueCap: 2 * maxBatch, Workers: 1, batchHook: stall.hook},
		ModelSpec{Name: "m", Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := NewHandler(s)

	// A lone row parks the worker; then the frame's first two ranges
	// fill the queue and its third is refused.
	lone := make(chan error, 1)
	go func() { _, err := s.Infer("m", inputVec(0, cols)); lone <- err }()
	<-stall.entered
	resp := postFrame(t, h, 3*maxBatch, cols, slabInputs(6, 3*maxBatch, cols))
	waitFor(t, func() bool { return s.Snapshot()[0].Rejected == 1 })
	if d := queueDepth(t, s); d != 2*maxBatch {
		t.Fatalf("queue depth %d rows, want the %d of the two waiting ranges", d, 2*maxBatch)
	}
	select {
	case rec := <-resp:
		t.Fatalf("answered %d while two admitted ranges still view the request's slabs", rec.Code)
	case <-time.After(20 * time.Millisecond):
	}
	close(stall.gate)
	if rec := <-resp; rec.Code != http.StatusTooManyRequests {
		t.Fatalf("refused frame: %d %s, want 429", rec.Code, rec.Body)
	}
	if err := <-lone; err != nil {
		t.Fatal(err)
	}
	if snap := s.Snapshot()[0]; snap.Completed != 1+2*maxBatch {
		t.Fatalf("completed %d rows, want the lone row and the %d admitted before the refusal", snap.Completed, 2*maxBatch)
	}
	for k := 0; k < 4; k++ {
		in := slabInputs(int64(10+k), 2*maxBatch, cols)
		rec := <-postFrame(t, h, 2*maxBatch, cols, in)
		if rec.Code != http.StatusOK {
			t.Fatalf("follow-up frame %d: %d %s", k, rec.Code, rec.Body)
		}
		f, err := serveapi.DecodeInferResponse(rec.Body.Bytes(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2*maxBatch; i++ {
			if want := directForward(t, path, in[i*cols:(i+1)*cols]); f.Data[i] != want[0] {
				t.Fatalf("follow-up frame %d row %d: served %v, direct %v", k, i, f.Data[i], want[0])
			}
		}
	}
}

// TestCloseDuringMultiRangeFrame: Close during a frame that is only
// partly enqueued drains the ranges already admitted and fails the rest
// with ErrServerClosed — the request answers 503, after its admitted
// ranges were served.
func TestCloseDuringMultiRangeFrame(t *testing.T) {
	hpacml.ClearModelCache()
	const maxBatch, cols, rows = 4, 3, 200
	path := saveMLP(t, t.TempDir(), "m.gmod", 4, cols, 8, 1)
	stall := newStallHook()
	s, err := NewServer(Config{MaxBatch: maxBatch, Workers: 1, QueueCap: 256, batchHook: stall.hook},
		ModelSpec{Name: "m", Path: path})
	if err != nil {
		t.Fatal(err)
	}
	resp := postFrame(t, NewHandler(s), rows, cols, slabInputs(7, rows, cols))
	<-stall.entered
	waitFor(t, func() bool { return queueDepth(t, s) == maxInflightRows-maxBatch })

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	waitFor(t, func() bool {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.closed
	})
	close(stall.gate)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	rec := <-resp
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("frame cut short by Close: %d %s, want 503", rec.Code, rec.Body)
	}
	if snap := s.Snapshot()[0]; snap.Completed != maxInflightRows || snap.Errors != 0 {
		t.Fatalf("completed %d errors %d, want exactly the %d rows admitted before Close", snap.Completed, snap.Errors, maxInflightRows)
	}
}

// TestSlabTrafficRace is the -race exercise for the range queue: 32
// single-row callers on one model and two slab callers on another, a
// hot reload landing mid-traffic on both, every answer checked. Single
// rows must still coalesce (mean batch above 1), no batch may exceed
// MaxBatch, and every range must come from exactly one generation: a
// reload swaps a replica only between batches, so a range's rows all
// match the old weights or all match the new ones — and a request sent
// after the reload returned must see the new ones.
func TestSlabTrafficRace(t *testing.T) {
	hpacml.ClearModelCache()
	const (
		maxBatch, cols, outCols = 8, 4, 2
		singles, slabRows       = 32, 3*maxBatch + 5
		afterReload             = 5 // requests each caller makes once the reload has returned
	)
	dir := t.TempDir()
	pathOne := saveMLP(t, dir, "one.gmod", 51, cols, 16, outCols)
	pathSlab := saveMLP(t, dir, "slab.gmod", 51, cols, 16, outCols)
	oldPath := saveMLP(t, dir, "old.gmod", 51, cols, 16, outCols)
	newPath := saveMLP(t, dir, "new.gmod", 52, cols, 16, outCols)

	var oversize atomic.Int64
	s, err := NewServer(Config{MaxBatch: maxBatch, MaxDelay: 500 * time.Microsecond, Workers: 2,
		batchHook: func(_ string, rows int) {
			if rows > maxBatch {
				oversize.Store(int64(rows))
			}
		}},
		ModelSpec{Name: "one", Path: pathOne}, ModelSpec{Name: "slab", Path: pathSlab})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	// check judges rows served in one range: all from the old weights
	// or all from the new ones, and the new ones if the request began
	// after the reload had returned. It counts which it saw.
	var sawOld, sawNew [2]atomic.Int64 // by model: one, slab
	check := func(model int, in, got []float64, rows int, reloadDone bool) error {
		old := directEngine(t, ModelSpec{Path: oldPath}, in, rows, cols, outCols)
		fresh := directEngine(t, ModelSpec{Path: newPath}, in, rows, cols, outCols)
		switch {
		case sameBits(got, fresh) == nil:
			sawNew[model].Add(1)
		case sameBits(got, old) != nil:
			return fmt.Errorf("%d-row range matches neither generation as a whole: %v (old %v, new %v)", rows, got, old, fresh)
		case reloadDone:
			return errors.New("old weights served to a request sent after the reload returned")
		default:
			sawOld[model].Add(1)
		}
		return nil
	}

	var wg sync.WaitGroup
	var reloaded atomic.Bool
	var sent [2]atomic.Int64 // rows, by model
	for g := 0; g < singles; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j, after := 0, 0; after < afterReload; j++ {
				in := slabInputs(int64(g*1000+j), 1, cols)
				reloadDone := reloaded.Load()
				if reloadDone {
					after++
				}
				sent[0].Add(1)
				out, err := s.Infer("one", in)
				if err == nil {
					err = check(0, in, out, 1, reloadDone)
				}
				if err != nil {
					t.Errorf("single caller %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := serveclient.New(ts.URL, serveclient.WithWire(serveclient.WireBinary))
			defer c.CloseIdleConnections()
			for j, after := 0, 0; after < afterReload; j++ {
				in := slabInputs(int64(100000+g*1000+j), slabRows, cols)
				reloadDone := reloaded.Load()
				if reloadDone {
					after++
				}
				sent[1].Add(slabRows)
				out, _, err := c.InferMatrix(context.Background(), "slab", slabRows, cols, in, nil)
				for lo := 0; lo < slabRows && err == nil; lo += maxBatch {
					hi := min(lo+maxBatch, slabRows)
					err = check(1, in[lo*cols:hi*cols], out[lo*outCols:hi*outCols], hi-lo, reloadDone)
				}
				if err != nil {
					t.Errorf("slab caller %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	// The reload, once traffic is flowing on both models.
	waitFor(t, func() bool {
		snaps := s.Snapshot()
		return snaps[0].Completed > 2*singles && snaps[1].Completed > 4*slabRows
	})
	for _, p := range []string{pathOne, pathSlab} {
		if err := mlp(52, cols, 16, outCols).Save(p); err != nil {
			t.Fatal(err)
		}
	}
	err = s.CheckReload()
	reloaded.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	if n := oversize.Load(); n != 0 {
		t.Fatalf("a batch of %d rows reached the engine, MaxBatch %d", n, maxBatch)
	}
	for i, snap := range s.Snapshot() { // name order: one, slab
		want := uint64(sent[i].Load())
		if snap.Completed != want || snap.Errors != 0 || snap.Rejected != 0 || snap.Generation != 1 {
			t.Fatalf("%s: completed %d (want %d) errors %d rejected %d generation %d", snap.Name, snap.Completed, want, snap.Errors, snap.Rejected, snap.Generation)
		}
		if uint64(snap.Region.TrustedRows) != want {
			t.Fatalf("%s: replicas counted %d trusted rows, served %d", snap.Name, snap.Region.TrustedRows, want)
		}
		if sawOld[i].Load() == 0 || sawNew[i].Load() == 0 {
			t.Fatalf("%s: the reload did not land mid-traffic: %d ranges on old weights, %d on new", snap.Name, sawOld[i].Load(), sawNew[i].Load())
		}
		for size := range snap.BatchHist {
			if n, _ := strconv.Atoi(size); n > maxBatch {
				t.Fatalf("%s: batch histogram has a %s-row batch, MaxBatch %d", snap.Name, size, maxBatch)
			}
		}
		if snap.Name == "one" && snap.MeanBatch <= 1 {
			t.Fatalf("single-row callers did not coalesce: mean batch %v, histogram %v", snap.MeanBatch, snap.BatchHist)
		}
	}
}

// discardWriter is the cheapest possible http.ResponseWriter, so the
// frame benchmark and allocation guard see the handler's own costs
// rather than a recorder's buffer growth.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// frameDriver replays one prebuilt frame request against a handler.
type frameDriver struct {
	h     http.Handler
	frame []byte
	url   *url.URL
	w     discardWriter
}

func newFrameDriver(t testing.TB, h http.Handler, rows, cols int) *frameDriver {
	t.Helper()
	frame, err := serveapi.AppendInferRequest(nil, serveapi.DtypeF64, "m", rows, cols, slabInputs(3, rows, cols))
	if err != nil {
		t.Fatal(err)
	}
	return &frameDriver{h: h, frame: frame, url: &url.URL{Path: "/v1/infer"},
		w: discardWriter{header: make(http.Header)}}
}

func (d *frameDriver) do(t testing.TB) {
	req := &http.Request{
		Method:        http.MethodPost,
		URL:           d.url,
		Header:        http.Header{"Content-Type": {serveapi.ContentTypeFrame}, serveapi.HeaderRequestID: {"bench"}},
		Body:          io.NopCloser(bytes.NewReader(d.frame)),
		ContentLength: int64(len(d.frame)),
	}
	d.w.code = http.StatusOK
	d.h.ServeHTTP(&d.w, req)
	if d.w.code != http.StatusOK {
		t.Fatalf("frame request: status %d", d.w.code)
	}
}

// TestFrameAllocsGrowWithRanges: a frame request's steady-state
// allocations depend on how many ranges it is cut into, not on how many
// rows it carries — nothing on the path allocates per row. Going from
// one 32-row range to eight costs a few allocations per extra range
// (the engine's two tensor views); the old path's request record,
// output slice and completion channel per row would be 224 rows x 3.
func TestFrameAllocsGrowWithRanges(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	hpacml.ClearModelCache()
	const cols = 6
	path := saveMLP(t, t.TempDir(), "m.gmod", 4, cols, 16, 2)
	s, err := NewServer(Config{Workers: 1}, ModelSpec{Name: "m", Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := NewHandler(s, WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))))
	one, eight := newFrameDriver(t, h, 32, cols), newFrameDriver(t, h, 256, cols)
	eight.do(t) // size the pooled slabs for the larger frame first
	allocsOne := testing.AllocsPerRun(200, func() { one.do(t) })
	allocsEight := testing.AllocsPerRun(200, func() { eight.do(t) })
	const perRange = 12
	if extra := allocsEight - allocsOne; extra > 7*perRange {
		t.Fatalf("a 256-row frame allocates %.0f, a 32-row frame %.0f: %.0f more for 7 more ranges, budget %d each",
			allocsEight, allocsOne, extra, perRange)
	}
	t.Logf("allocations per frame request: %.0f at 32 rows (1 range), %.0f at 256 rows (8 ranges)", allocsOne, allocsEight)
}
