package serveclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/serveapi"
)

// Wire selects the encoding the client uses on the two hot-path
// endpoints (/v1/infer and /v1/capture). Everything else — stats,
// model listings, health, error bodies — is JSON on either wire.
type Wire int

const (
	// WireJSON is the default: human-readable and curl-able.
	WireJSON Wire = iota
	// WireBinary sends binary frames (serveapi.ContentTypeFrame):
	// length-prefixed headers and raw float slabs, no per-value
	// formatting and near-zero garbage. Client and server ship
	// together, so the client never retries a refused frame as JSON:
	// every non-200 answer is the call's error.
	WireBinary
)

func (w Wire) String() string {
	if w == WireBinary {
		return "binary"
	}
	return "json"
}

// WithWire selects the hot-path encoding (default WireJSON).
func WithWire(w Wire) Option {
	return func(c *Client) { c.wire = w }
}

// frameBuf is the per-request scratch a frame round-trip needs: the
// encoded request and the raw response body. Pooled so steady-state
// binary traffic reuses the same two byte slabs per concurrent caller.
type frameBuf struct {
	enc  []byte
	body []byte
}

var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

// InferMatrix runs rows independent invocations of the named model in
// one request, taking the inputs as a flat row-major [rows, cols] slab
// and answering the outputs the same way: the returned data is the
// [rows, outCols] output slab, decoded into out's storage when it is
// large enough (pass a reused scratch slice to make steady-state calls
// allocation-free; its length is ignored). This is the hot-path entry
// the remote engine and bench's serve workloads use; under WireJSON the
// same call travels as JSON.
func (c *Client) InferMatrix(ctx context.Context, model string, rows, cols int, in, out []float64) ([]float64, int, error) {
	if rows < 0 || cols < 0 || len(in) != rows*cols {
		return nil, 0, fmt.Errorf("serveclient: input slab %d floats, want %d x %d", len(in), rows, cols)
	}
	if rows == 0 {
		return out[:0], 0, nil
	}
	if c.wire == WireBinary {
		return c.inferMatrixFrame(ctx, model, rows, cols, in, out)
	}
	return c.inferMatrixJSON(ctx, model, rows, cols, in, out)
}

func (c *Client) inferMatrixFrame(ctx context.Context, model string, rows, cols int, in, out []float64) ([]float64, int, error) {
	fb := framePool.Get().(*frameBuf)
	defer framePool.Put(fb)
	var err error
	if fb.enc, err = serveapi.AppendInferRequest(fb.enc[:0], serveapi.DtypeF64, model, rows, cols, in); err != nil {
		return nil, 0, fmt.Errorf("serveclient: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/infer", bytes.NewReader(fb.enc))
	if err != nil {
		return nil, 0, fmt.Errorf("serveclient: %w", err)
	}
	req.Header.Set("Content-Type", serveapi.ContentTypeFrame)
	stampRequestID(req)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("serveclient: POST /v1/infer: %w", err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, 0, apiError(resp)
	}
	if fb.body, err = readBody(resp, fb.body); err != nil {
		return nil, 0, fmt.Errorf("serveclient: POST /v1/infer: %w", err)
	}
	f, err := serveapi.DecodeInferResponse(fb.body, out)
	if err != nil {
		return nil, 0, fmt.Errorf("serveclient: POST /v1/infer: bad frame: %w", err)
	}
	if f.Rows != rows {
		return nil, 0, fmt.Errorf("serveclient: sent %d rows, server answered %d", rows, f.Rows)
	}
	return f.Data, f.Cols, nil
}

func (c *Client) inferMatrixJSON(ctx context.Context, model string, rows, cols int, in, out []float64) ([]float64, int, error) {
	ins := make([][]float64, rows)
	for i := range ins {
		ins[i] = in[i*cols : (i+1)*cols]
	}
	var resp serveapi.InferResponse
	if err := c.post(ctx, "/v1/infer", serveapi.InferRequest{Model: model, Inputs: ins}, &resp); err != nil {
		return nil, 0, err
	}
	if len(resp.Outputs) != rows {
		return nil, 0, fmt.Errorf("serveclient: sent %d inputs, server answered %d outputs", rows, len(resp.Outputs))
	}
	outCols := len(resp.Outputs[0])
	if cap(out) < rows*outCols {
		out = make([]float64, 0, rows*outCols)
	}
	out = out[:0]
	for i, row := range resp.Outputs {
		if len(row) != outCols {
			return nil, 0, fmt.Errorf("serveclient: ragged response: row %d has %d values, row 0 has %d", i, len(row), outCols)
		}
		out = append(out, row...)
	}
	return out, outCols, nil
}

// captureFrame ships the batch as a capture frame; the ack (and any
// error body) is JSON.
func (c *Client) captureFrame(ctx context.Context, db string, recs []serveapi.CaptureRecord) (int, error) {
	fb := framePool.Get().(*frameBuf)
	defer framePool.Put(fb)
	var err error
	if fb.enc, err = serveapi.AppendCaptureRequest(fb.enc[:0], serveapi.DtypeF64, db, recs); err != nil {
		return 0, fmt.Errorf("serveclient: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/capture", bytes.NewReader(fb.enc))
	if err != nil {
		return 0, fmt.Errorf("serveclient: %w", err)
	}
	req.Header.Set("Content-Type", serveapi.ContentTypeFrame)
	stampRequestID(req)
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, fmt.Errorf("serveclient: POST /v1/capture: %w", err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		err := apiError(resp)
		var api *APIError
		errors.As(err, &api)
		return api.Accepted, err
	}
	var ack serveapi.CaptureResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return 0, fmt.Errorf("serveclient: POST /v1/capture: bad payload: %w", err)
	}
	return ack.Accepted, nil
}

// readBody reads the whole response body into buf's storage (grown as
// needed), so pooled frame buffers absorb the read instead of a fresh
// io.ReadAll allocation per response. The Content-Length header sizes
// the pre-allocation only up to the frame cap — no valid response frame
// is bigger, and a buggy or hostile server shouldn't get to pick an
// arbitrary allocation size.
func readBody(resp *http.Response, buf []byte) ([]byte, error) {
	buf = buf[:0]
	if n := resp.ContentLength; n > 0 && n <= serveapi.MaxFrameLen && int64(cap(buf)) < n {
		buf = make([]byte, 0, n)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := resp.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
