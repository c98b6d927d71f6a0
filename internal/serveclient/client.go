// Package serveclient is the typed Go client for the hpacml-serve HTTP
// API (internal/serveapi). It owns everything a caller would
// otherwise hand-roll: request/response marshalling on either wire
// (JSON by default, the binary frame protocol under
// WithWire(WireBinary)), connection pooling tuned for many small POSTs
// against one host, context propagation so deadlines and cancellation
// reach the wire, and the mapping of non-200 responses into a
// structured *APIError callers can classify without string matching.
// Client and server ship together: a binary client sends one request
// per call and never retries it on the other wire.
//
// The runtime's remote inference engine (hpacml.RemoteEngine), its
// remote capture sink (hpacml.RemoteSink), and the benchmark's serve
// workloads are all built on this client.
package serveclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/serveapi"
)

// APIError is a non-200 answer from the server, carrying the HTTP
// status and the server's error message. Classify with errors.As plus
// the Code field (429 is backpressure, 404 an unknown model, 400 a
// malformed request, 503 shutdown), or with the Rejected helper.
// Accepted is non-zero only for failed capture batches: how many
// leading records the server durably appended before failing.
// RequestID is the X-Request-ID the failed call carried (from the
// server's error body, or the echoed response header): quote it when
// reporting the failure and the matching server log line is one grep
// away.
type APIError struct {
	Code      int
	Message   string
	Accepted  int
	RequestID string
}

func (e *APIError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("serveclient: server answered %d: %s (request %s)", e.Code, e.Message, e.RequestID)
	}
	return fmt.Sprintf("serveclient: server answered %d: %s", e.Code, e.Message)
}

// Rejected reports whether err is the server's queue-full backpressure
// refusal (HTTP 429) — the one failure a load driver counts
// separately from real errors.
func Rejected(err error) bool {
	var api *APIError
	return errors.As(err, &api) && api.Code == http.StatusTooManyRequests
}

// Option configures a Client.
type Option func(*Client)

// WithTimeout bounds every request end-to-end. Per-call contexts still
// apply; whichever expires first wins. Zero leaves requests unbounded
// except by their context.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.http.Timeout = d }
}

// Client talks to one hpacml-serve instance. It is safe for concurrent
// use; the default transport keeps idle connections to the server warm
// so steady-state inference traffic never pays connection setup.
type Client struct {
	base string
	http *http.Client
	wire Wire
}

// New builds a client for the server at base (e.g.
// "http://127.0.0.1:8080"). A trailing slash is tolerated.
func New(base string, opts ...Option) *Client {
	c := &Client{
		base: strings.TrimRight(base, "/"),
		http: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
		},
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Base returns the server base URL the client was built with.
func (c *Client) Base() string { return c.base }

// CloseIdleConnections drops pooled connections (call when the client
// is retired; in-flight requests are unaffected).
func (c *Client) CloseIdleConnections() { c.http.CloseIdleConnections() }

// Infer runs one invocation of the named model.
func (c *Client) Infer(ctx context.Context, model string, in []float64) ([]float64, error) {
	if c.wire == WireBinary {
		data, _, err := c.InferMatrix(ctx, model, 1, len(in), in, nil)
		return data, err
	}
	var resp serveapi.InferResponse
	err := c.post(ctx, "/v1/infer", serveapi.InferRequest{Model: model, Input: in}, &resp)
	if err != nil {
		return nil, err
	}
	if resp.Output == nil {
		return nil, fmt.Errorf("serveclient: server answered without an output vector")
	}
	return resp.Output, nil
}

// Capture ships a batch of capture records to the named capture
// database on the server's ingest endpoint (/v1/capture), returning
// how many records the server accepted. On error the count is still
// meaningful: a mid-batch server write failure reports the durably
// appended prefix (APIError.Accepted), so callers can count exactly
// what was lost. The runtime's remote capture sink (hpacml.RemoteSink)
// is built on this call. Under WithWire(WireBinary) the batch travels
// as a binary frame (the ack stays JSON).
func (c *Client) Capture(ctx context.Context, db string, recs []serveapi.CaptureRecord) (int, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	if c.wire == WireBinary {
		return c.captureFrame(ctx, db, recs)
	}
	return c.captureJSON(ctx, db, recs)
}

func (c *Client) captureJSON(ctx context.Context, db string, recs []serveapi.CaptureRecord) (int, error) {
	var resp serveapi.CaptureResponse
	if err := c.post(ctx, "/v1/capture", serveapi.CaptureRequest{DB: db, Records: recs}, &resp); err != nil {
		var api *APIError
		if errors.As(err, &api) {
			return api.Accepted, err
		}
		return 0, err
	}
	return resp.Accepted, nil
}

// Models lists the server's registry.
func (c *Client) Models(ctx context.Context) ([]serveapi.ModelInfo, error) {
	var infos []serveapi.ModelInfo
	if err := c.get(ctx, "/v1/models", &infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// Model resolves one registry entry by name; an empty name picks the
// server's first model.
func (c *Client) Model(ctx context.Context, name string) (serveapi.ModelInfo, error) {
	infos, err := c.Models(ctx)
	if err != nil {
		return serveapi.ModelInfo{}, err
	}
	if len(infos) == 0 {
		return serveapi.ModelInfo{}, fmt.Errorf("serveclient: %s hosts no models", c.base)
	}
	if name == "" {
		return infos[0], nil
	}
	for _, info := range infos {
		if info.Name == name {
			return info, nil
		}
	}
	return serveapi.ModelInfo{}, fmt.Errorf("serveclient: %s does not host model %q", c.base, name)
}

// Rollback asks the server's continuous-learning controller to
// restore the named model's parent generation (POST
// /v1/models/{model}/rollback). The response says which lineage
// generation the rollback created and which ancestor generation's
// weights are live again. 404 means the model has no learner, 409 that
// the live generation has no parent to return to.
func (c *Client) Rollback(ctx context.Context, model string) (serveapi.RollbackResponse, error) {
	var resp serveapi.RollbackResponse
	err := c.post(ctx, "/v1/models/"+model+"/rollback", struct{}{}, &resp)
	return resp, err
}

// Stats fetches the per-model serving stats.
func (c *Client) Stats(ctx context.Context) (serveapi.StatsResponse, error) {
	var sr serveapi.StatsResponse
	err := c.get(ctx, "/v1/stats", &sr)
	return sr, err
}

// ModelStats fetches one model's serving snapshot by name.
func (c *Client) ModelStats(ctx context.Context, name string) (serveapi.ModelSnapshot, error) {
	sr, err := c.Stats(ctx)
	if err != nil {
		return serveapi.ModelSnapshot{}, err
	}
	for i := range sr.Models {
		if sr.Models[i].Name == name {
			return sr.Models[i], nil
		}
	}
	return serveapi.ModelSnapshot{}, fmt.Errorf("serveclient: no stats for model %q", name)
}

// Health probes the server's liveness endpoint.
func (c *Client) Health(ctx context.Context) error {
	return c.get(ctx, "/healthz", &struct {
		Status string `json:"status"`
	}{})
}

// post sends a JSON body and decodes the JSON answer into out.
func (c *Client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("serveclient: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("serveclient: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	stampRequestID(req)
	return c.do(req, out)
}

// get fetches a JSON document into out.
func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return fmt.Errorf("serveclient: %w", err)
	}
	stampRequestID(req)
	return c.do(req, out)
}

// do executes the request, mapping non-200 statuses to *APIError and
// decoding 200 bodies into out. The body is always drained so the
// pooled connection stays reusable.
func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("serveclient: %s %s: %w", req.Method, req.URL.Path, err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("serveclient: %s %s: bad payload: %w", req.Method, req.URL.Path, err)
	}
	return nil
}

// Bounds for reading non-200 answers. An error body larger than
// maxErrorBytes is truncated at decode; a leftover body larger than
// maxDrainBytes is abandoned (closing mid-body retires the connection
// instead of stalling to keep it — the right trade for a response that
// large).
const (
	maxErrorBytes = 64 << 10
	maxDrainBytes = 1 << 20
)

// drainClose empties and closes a response body. Every response path —
// success, server error, and bad-payload alike — must run it, or the
// transport cannot return the connection to the idle pool and the next
// request pays a fresh TCP (and TLS) setup.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, maxDrainBytes))
	body.Close()
}

// apiError decodes a non-200 response's JSON error body into *APIError.
// Error bodies are JSON on every wire, including the binary frame
// protocol. The read is bounded and the remainder is left for
// drainClose. The request ID comes from the error body when the server
// stamped one, the echoed response header otherwise.
func apiError(resp *http.Response) error {
	var eb serveapi.ErrorBody
	if derr := json.NewDecoder(io.LimitReader(resp.Body, maxErrorBytes)).Decode(&eb); derr != nil || eb.Error == "" {
		eb.Error = resp.Status
	}
	rid := eb.RequestID
	if rid == "" {
		rid = resp.Header.Get(serveapi.HeaderRequestID)
	}
	return &APIError{Code: resp.StatusCode, Message: eb.Error, Accepted: eb.Accepted, RequestID: rid}
}
