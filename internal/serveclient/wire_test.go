package serveclient_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/serveapi"
	"repro/internal/serveclient"
)

// wireCounts tracks which wire each hot-path request arrived on.
type wireCounts struct {
	frames atomic.Int64
	jsons  atomic.Int64
}

// dualStub speaks both wires on /v1/infer and /v1/capture, mimicking
// the real serve handler's negotiation: a frame Content-Type is decoded
// as a frame and /v1/infer answered in kind, everything else is JSON,
// error bodies always JSON. Models: "sum" doubles the row sum of a
// 2-wide row (400 on other widths, 429 when row[0] == -1), "quad" maps
// any row to [s, s+1, s+2, s+3].
// dualStub serves the stub on both wires; configure hooks run on the
// unstarted server (e.g. to install ConnState before the serve loop
// reads it).
func dualStub(t testing.TB, configure ...func(*httptest.Server)) (*httptest.Server, *wireCounts) {
	counts := &wireCounts{}
	infer := func(model string, row []float64) ([]float64, int) {
		s := 0.0
		for _, v := range row {
			s += v
		}
		switch model {
		case "sum":
			if len(row) != 2 {
				return nil, http.StatusBadRequest
			}
			if row[0] == -1 {
				return nil, http.StatusTooManyRequests
			}
			return []float64{2 * s}, http.StatusOK
		case "quad":
			return []float64{s, s + 1, s + 2, s + 3}, http.StatusOK
		}
		return nil, http.StatusNotFound
	}
	fail := func(w http.ResponseWriter, code int) {
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(serveapi.ErrorBody{Error: http.StatusText(code)})
	}
	// The stub's frame path pools its buffers like the real handler
	// does, so benchmark B/op reflects the server each wire actually
	// talks to (the httptest server allocates in-process).
	type stubScratch struct {
		body []byte
		in   []float64
		out  []float64
		enc  []byte
	}
	pool := sync.Pool{New: func() any { return new(stubScratch) }}
	readInto := func(r io.Reader, buf []byte) []byte {
		buf = buf[:0]
		for {
			if len(buf) == cap(buf) {
				buf = append(buf, 0)[:len(buf)]
			}
			n, err := r.Read(buf[len(buf):cap(buf)])
			buf = buf[:len(buf)+n]
			if err != nil {
				return buf
			}
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/infer", func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Content-Type") == serveapi.ContentTypeFrame {
			counts.frames.Add(1)
			fs := pool.Get().(*stubScratch)
			defer pool.Put(fs)
			fs.body = readInto(r.Body, fs.body)
			f, err := serveapi.DecodeInferRequest(fs.body, fs.in)
			if err != nil {
				code := http.StatusBadRequest
				if errors.Is(err, serveapi.ErrFrameVersion) {
					code = http.StatusUnsupportedMediaType
				}
				fail(w, code)
				return
			}
			fs.in = f.Data
			fs.out = fs.out[:0]
			outCols := 0
			for i := 0; i < f.Rows; i++ {
				row, code := infer(f.Model, f.Data[i*f.Cols:(i+1)*f.Cols])
				if code != http.StatusOK {
					fail(w, code)
					return
				}
				fs.out = append(fs.out, row...)
				outCols = len(row)
			}
			fs.enc, err = serveapi.AppendInferResponse(fs.enc[:0], f.Dtype, f.Model, f.Rows, outCols, fs.out)
			if err != nil {
				fail(w, http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", serveapi.ContentTypeFrame)
			w.Write(fs.enc)
			return
		}
		counts.jsons.Add(1)
		var req serveapi.InferRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			fail(w, http.StatusBadRequest)
			return
		}
		resp := serveapi.InferResponse{Model: req.Model}
		ins := req.Inputs
		if req.Input != nil {
			ins = [][]float64{req.Input}
		}
		for _, in := range ins {
			row, code := infer(req.Model, in)
			if code != http.StatusOK {
				fail(w, code)
				return
			}
			resp.Outputs = append(resp.Outputs, row)
		}
		if req.Input != nil {
			resp.Output, resp.Outputs = resp.Outputs[0], nil
		}
		json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc("/v1/capture", func(w http.ResponseWriter, r *http.Request) {
		var db string
		var n int
		if r.Header.Get("Content-Type") == serveapi.ContentTypeFrame {
			counts.frames.Add(1)
			body, _ := io.ReadAll(r.Body)
			d, recs, err := serveapi.DecodeCaptureRequest(body)
			if err != nil {
				code := http.StatusBadRequest
				if errors.Is(err, serveapi.ErrFrameVersion) {
					code = http.StatusUnsupportedMediaType
				}
				fail(w, code)
				return
			}
			db, n = d, len(recs)
		} else {
			counts.jsons.Add(1)
			var req serveapi.CaptureRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				fail(w, http.StatusBadRequest)
				return
			}
			db, n = req.DB, len(req.Records)
		}
		if db != "d" {
			fail(w, http.StatusNotFound)
			return
		}
		json.NewEncoder(w).Encode(serveapi.CaptureResponse{DB: db, Accepted: n})
	})
	ts := httptest.NewUnstartedServer(mux)
	for _, f := range configure {
		f(ts)
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, counts
}

func slab(rows, cols int) []float64 {
	s := make([]float64, rows*cols)
	for i := range s {
		s[i] = float64(i%13) - 4
	}
	return s
}

func TestClientBinaryRoundTrip(t *testing.T) {
	ts, counts := dualStub(t)
	c := serveclient.New(ts.URL, serveclient.WithWire(serveclient.WireBinary))
	ctx := context.Background()

	rows, cols := 3, 2
	in := slab(rows, cols)
	scratch := make([]float64, 16)
	out, outCols, err := c.InferMatrix(ctx, "sum", rows, cols, in, scratch)
	if err != nil || outCols != 1 || len(out) != rows {
		t.Fatalf("InferMatrix = %v, %d, %v", out, outCols, err)
	}
	for i := 0; i < rows; i++ {
		if want := 2 * (in[i*cols] + in[i*cols+1]); out[i] != want {
			t.Fatalf("row %d = %g, want %g", i, out[i], want)
		}
	}
	if &out[0] != &scratch[0] {
		t.Fatal("InferMatrix did not decode into the caller's scratch buffer")
	}

	// Single-shot Infer rides the binary wire too.
	one, err := c.Infer(ctx, "sum", []float64{3, 4})
	if err != nil || len(one) != 1 || one[0] != 14 {
		t.Fatalf("Infer = %v, %v", one, err)
	}

	recs := []serveapi.CaptureRecord{
		{Region: "r", InputShape: []int{1, 2}, Inputs: []float64{1, 2}, OutputShape: []int{1, 1}, Outputs: []float64{3}},
	}
	if n, err := c.Capture(ctx, "d", recs); err != nil || n != 1 {
		t.Fatalf("Capture = %d, %v", n, err)
	}

	if got := counts.jsons.Load(); got != 0 {
		t.Fatalf("binary client sent %d JSON hot-path requests", got)
	}
	if got := counts.frames.Load(); got != 3 {
		t.Fatalf("binary client sent %d frames, want 3", got)
	}
}

// TestClientReusesConnections is the satellite regression for body
// drain/close: across successes and every error shape, the client must
// keep using one pooled connection. A leaked (undrained or unclosed)
// body forces the transport to open a fresh connection and fails the
// count.
func TestClientReusesConnections(t *testing.T) {
	for _, wire := range []serveclient.Wire{serveclient.WireJSON, serveclient.WireBinary} {
		var conns atomic.Int64
		ts, _ := dualStub(t, func(ts *httptest.Server) {
			ts.Config.ConnState = func(c net.Conn, s http.ConnState) {
				if s == http.StateNew {
					conns.Add(1)
				}
			}
		})
		c := serveclient.New(ts.URL, serveclient.WithWire(wire))
		ctx := context.Background()

		for i := 0; i < 5; i++ {
			if _, err := c.Infer(ctx, "sum", []float64{1, float64(i)}); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Infer(ctx, "ghost", []float64{1, 2}); err == nil {
				t.Fatal("ghost model must fail")
			}
			if _, err := c.Infer(ctx, "sum", []float64{-1, 0}); !serveclient.Rejected(err) {
				t.Fatal("want rejection")
			}
			if _, err := c.Capture(ctx, "ghost", []serveapi.CaptureRecord{
				{Region: "r", InputShape: []int{1, 1}, Inputs: []float64{1}, OutputShape: []int{1, 1}, Outputs: []float64{2}},
			}); err == nil {
				t.Fatal("ghost db must fail")
			}
		}
		if got := conns.Load(); got != 1 {
			t.Fatalf("wire %s: %d connections for sequential requests, want 1 (body not drained/closed somewhere)", wire, got)
		}
	}
}

// BenchmarkWireJSONvsBinary measures one /v1/infer round trip over live
// HTTP on each wire: a [64, 16] request slab answered by a [64, 4]
// response. The binary frame must beat JSON by well over 2x on B/op —
// it skips per-value formatting entirely and reuses pooled buffers.
func BenchmarkWireJSONvsBinary(b *testing.B) {
	rows, cols := 64, 16
	in := slab(rows, cols)
	run := func(b *testing.B, wire serveclient.Wire) {
		ts, _ := dualStub(b)
		c := serveclient.New(ts.URL, serveclient.WithWire(wire))
		ctx := context.Background()
		scratch := make([]float64, rows*4)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, outCols, err := c.InferMatrix(ctx, "quad", rows, cols, in, scratch)
			if err != nil || outCols != 4 {
				b.Fatalf("InferMatrix: %d cols, %v", outCols, err)
			}
			scratch = out
		}
	}
	b.Run("json", func(b *testing.B) { run(b, serveclient.WireJSON) })
	b.Run("binary", func(b *testing.B) { run(b, serveclient.WireBinary) })
}
