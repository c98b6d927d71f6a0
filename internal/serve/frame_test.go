package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	hpacml "repro"

	"repro/internal/serveapi"
	"repro/internal/serveclient"
)

// TestFrameInferEndToEnd drives the binary wire against the real
// handler and coalescer: a WireBinary client's answers must be
// bit-identical to running the model directly (f64 frames are
// lossless), capture frames must land in the ingest registry, and the
// error statuses must match the JSON wire's.
func TestFrameInferEndToEnd(t *testing.T) {
	hpacml.ClearModelCache()
	dir := t.TempDir()
	path := saveMLP(t, dir, "m.gmod", 11, 5, 16, 2)
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

	c := serveclient.New(ts.URL, serveclient.WithWire(serveclient.WireBinary))
	ctx := context.Background()

	rows, cols := 8, 5
	in := make([]float64, rows*cols)
	for i := range in {
		in[i] = float64((i*13)%17)/17 - 0.5
	}
	out, outCols, err := c.InferMatrix(ctx, "m", rows, cols, in, nil)
	if err != nil || outCols != 2 {
		t.Fatalf("InferMatrix: %d cols, %v", outCols, err)
	}
	for i := 0; i < rows; i++ {
		want := directForward(t, path, in[i*cols:(i+1)*cols])
		for j := range want {
			if out[i*outCols+j] != want[j] {
				t.Fatalf("row %d: served %v, direct %v", i, out[i*outCols:(i+1)*outCols], want)
			}
		}
	}

	// Binary capture lands in the registry like JSON capture does.
	if n, err := c.Capture(ctx, "d", []serveapi.CaptureRecord{captureRec("r", 1), captureRec("r", 2)}); err != nil || n != 2 {
		t.Fatalf("Capture = %d, %v", n, err)
	}
	if snaps := s.CaptureSnapshot(); len(snaps) != 1 || snaps[0].Records != 2 {
		t.Fatalf("capture snapshot: %+v", snaps)
	}

	// Error mapping matches the JSON wire: unknown model 404, wrong
	// width 400, unknown db 404.
	var api *serveclient.APIError
	if _, _, err := c.InferMatrix(ctx, "ghost", 1, 5, in[:5], nil); !errors.As(err, &api) || api.Code != 404 {
		t.Fatalf("unknown model: %v", err)
	}
	if _, _, err := c.InferMatrix(ctx, "m", 1, 3, in[:3], nil); !errors.As(err, &api) || api.Code != 400 {
		t.Fatalf("wrong width: %v", err)
	}
	if _, err := c.Capture(ctx, "ghost", []serveapi.CaptureRecord{captureRec("r", 3)}); !errors.As(err, &api) || api.Code != 404 {
		t.Fatalf("unknown db: %v", err)
	}
}

// TestFrameNegotiation pins the raw protocol rules the client's
// fallback depends on: f32 frames are answered in f32, an unsupported
// frame version is 415, and garbage under the frame Content-Type is
// 400 — all with JSON error bodies.
func TestFrameNegotiation(t *testing.T) {
	hpacml.ClearModelCache()
	dir := t.TempDir()
	path := saveMLP(t, dir, "m.gmod", 11, 4, 8, 1)
	s, err := NewServer(Config{MaxBatch: 4, MaxDelay: time.Millisecond, Workers: 1},
		ModelSpec{Name: "m", Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	post := func(frame []byte) (*http.Response, []byte) {
		resp, err := http.Post(ts.URL+"/v1/infer", serveapi.ContentTypeFrame, bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body
	}

	in := []float64{0.25, -0.5, 0.125, 1}
	frame, err := serveapi.AppendInferRequest(nil, serveapi.DtypeF32, "m", 1, 4, in)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := post(frame)
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != serveapi.ContentTypeFrame {
		t.Fatalf("f32 frame: %d %s: %s", resp.StatusCode, resp.Header.Get("Content-Type"), body)
	}
	f, err := serveapi.DecodeInferResponse(body, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Dtype != serveapi.DtypeF32 || f.Rows != 1 {
		t.Fatalf("f32 request answered %s x [%d,%d]", f.Dtype, f.Rows, f.Cols)
	}
	// The inputs chosen are exactly representable in f32, so the only
	// rounding is the response's f64->f32 truncation.
	want := directForward(t, path, in)
	for j := range want {
		if got := f.Data[j]; got != float64(float32(want[j])) || math.Abs(got-want[j]) > 1e-6*math.Abs(want[j])+1e-9 {
			t.Fatalf("f32 output %d = %g, want ~%g", j, got, want[j])
		}
	}

	// Future frame version: 415, so clients downgrade to JSON.
	vNext := append([]byte(nil), frame...)
	vNext[4] = 99
	if resp, body := post(vNext); resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("future version: %d %s", resp.StatusCode, body)
	}
	// Garbage under the frame Content-Type: 400.
	if resp, body := post([]byte("{\"model\":\"m\"}")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage frame: %d %s", resp.StatusCode, body)
	}
	// Truncated frame: 400.
	if resp, body := post(frame[:len(frame)-2]); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated frame: %d %s", resp.StatusCode, body)
	}
	// Zero-row frame: 400, like a JSON request with neither input form.
	empty, _ := serveapi.AppendInferRequest(nil, serveapi.DtypeF64, "m", 0, 0, nil)
	if resp, body := post(empty); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("zero-row frame: %d %s", resp.StatusCode, body)
	}
}

// repeatReader yields its byte forever; wrapped in io.LimitReader it
// stands in for an attacker streaming an arbitrarily long body.
type repeatReader byte

func (b repeatReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestFrameRequestLimits pins the request-size armor on the frame
// endpoints: a forged Content-Length is refused before any allocation
// or read (413), a body that actually overruns serveapi.MaxFrameLen
// dies mid-read (413), a frame claiming more rows than one request may
// carry is a 400, and a forged zero-cols geometry never reaches the
// model queue (400 from the decoder).
func TestFrameRequestLimits(t *testing.T) {
	hpacml.ClearModelCache()
	dir := t.TempDir()
	path := saveMLP(t, dir, "m.gmod", 11, 4, 8, 1)
	s, err := NewServer(Config{MaxBatch: 4, MaxDelay: time.Millisecond, Workers: 1},
		ModelSpec{Name: "m", Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := NewHandler(s)

	do := func(target string, body io.Reader, contentLength int64) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, target, body)
		req.Header.Set("Content-Type", serveapi.ContentTypeFrame)
		req.ContentLength = contentLength
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	// Forged Content-Length with no body: rejected up front.
	if rec := do("/v1/infer", http.NoBody, serveapi.MaxFrameLen+1); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("forged Content-Length: %d %s", rec.Code, rec.Body)
	}
	// Unknown length (chunked), body really too long: killed mid-read.
	long := io.LimitReader(repeatReader(0), serveapi.MaxFrameLen+1)
	if rec := do("/v1/capture", long, -1); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("overlong chunked body: %d %s", rec.Code, rec.Body)
	}
	// A well-formed frame with more rows than one request may carry.
	rows := maxInferRows + 1
	frame, err := serveapi.AppendInferRequest(nil, serveapi.DtypeF32, "m", rows, 1, make([]float64, rows))
	if err != nil {
		t.Fatal(err)
	}
	rec := do("/v1/infer", bytes.NewReader(frame), int64(len(frame)))
	if rec.Code != http.StatusBadRequest || !bytes.Contains(rec.Body.Bytes(), []byte("limit")) {
		t.Fatalf("row-cap frame: %d %s", rec.Code, rec.Body)
	}
	// Forged geometry: cols=0 with rows=0xFFFFFFFF (hand-assembled, the
	// encoder refuses to build it). Must be a decoder 400, not an OOM.
	body := binary.LittleEndian.AppendUint16(nil, 1)
	body = append(body, 'm')
	body = binary.LittleEndian.AppendUint32(body, math.MaxUint32) // rows
	body = binary.LittleEndian.AppendUint32(body, 0)              // cols
	forged := binary.LittleEndian.AppendUint32(nil, serveapi.FrameMagic)
	forged = append(forged, serveapi.FrameVersion, serveapi.FrameInferRequest, byte(serveapi.DtypeF64), 0)
	forged = binary.LittleEndian.AppendUint32(forged, uint32(len(body)))
	forged = append(forged, body...)
	if rec := do("/v1/infer", bytes.NewReader(forged), int64(len(forged))); rec.Code != http.StatusBadRequest {
		t.Fatalf("forged zero-cols frame: %d %s", rec.Code, rec.Body)
	}
}

// TestServeF32Model: a registry entry with F32 set serves through the
// single-precision path — answers stay within f32 tolerance of the
// float64 model, on both wires.
func TestServeF32Model(t *testing.T) {
	hpacml.ClearModelCache()
	dir := t.TempDir()
	path := saveMLP(t, dir, "m.gmod", 7, 5, 16, 2)
	s, err := NewServer(Config{MaxBatch: 4, MaxDelay: time.Millisecond, Workers: 1},
		ModelSpec{Name: "m", Path: path, F32: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	for _, wire := range []serveclient.Wire{serveclient.WireJSON, serveclient.WireBinary} {
		c := serveclient.New(ts.URL, serveclient.WithWire(wire))
		in := inputVec(3, 5)
		got, err := c.Infer(context.Background(), "m", in)
		if err != nil {
			t.Fatalf("%v: %v", wire, err)
		}
		want := directForward(t, path, in)
		if len(got) != len(want) {
			t.Fatalf("%v: %d outputs, want %d", wire, len(got), len(want))
		}
		for j := range want {
			if diff := math.Abs(got[j] - want[j]); diff > 1e-5*math.Abs(want[j])+1e-6 {
				t.Fatalf("%v output %d: f32-served %g vs f64 %g", wire, j, got[j], want[j])
			}
		}
	}
}
