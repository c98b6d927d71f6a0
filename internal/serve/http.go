package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/learner"
	"repro/internal/serveapi"
	"repro/internal/telemetry"
)

// The wire schema lives in internal/serveapi, shared with the typed
// client (internal/serveclient) and, through it, the runtime's remote
// engine. The aliases keep this package's exported API unchanged.
type (
	// InferRequest is the /v1/infer request body.
	InferRequest = serveapi.InferRequest
	// InferResponse mirrors the request: Output answers Input, Outputs
	// answers Inputs.
	InferResponse = serveapi.InferResponse
	// StatsResponse is the /v1/stats payload.
	StatsResponse = serveapi.StatsResponse
)

// HandlerOption configures NewHandler.
type HandlerOption func(*handler)

// WithLogger sets the structured request logger. Per-request lines log
// at Debug, slow requests at Warn, and 5xx responses at Error, so the
// production default (Info) stays quiet while anything worth waking up
// for still lands in the log. Default slog.Default().
func WithLogger(l *slog.Logger) HandlerOption {
	return func(h *handler) { h.log = l }
}

// WithSlowRequest sets the slow-request threshold: requests that take
// at least d log at Warn with their full stage breakdown and count in
// hpacml_slow_requests_total. Zero disables slow classification.
// Default 250ms.
func WithSlowRequest(d time.Duration) HandlerOption {
	return func(h *handler) { h.slow = d }
}

// WithLearner attaches a continuous-learning controller to the API:
// /v1/models entries gain their learner generation and lineage,
// /v1/stats gains the Learners section, and POST
// /v1/models/{model}/rollback restores a model's parent generation.
// Without it the rollback endpoint answers 404.
func WithLearner(l *learner.Controller) HandlerOption {
	return func(h *handler) { h.learner = l }
}

// defaultSlowRequest classifies a request as slow when no
// WithSlowRequest override is given: generous against a micro-batching
// target of single-digit milliseconds, tight enough to flag real
// stalls.
const defaultSlowRequest = 250 * time.Millisecond

// handler is the HTTP layer: the route mux wrapped in the
// tracing/logging middleware, plus the pre-resolved telemetry handles
// the per-request path records into (resolved once here so the
// request path never pays a label lookup).
type handler struct {
	s       *Server
	mux     *http.ServeMux
	log     *slog.Logger
	slow    time.Duration
	learner *learner.Controller // nil = continuous learning disabled

	okRequests  map[string]*telemetry.Counter // route -> 200 counter
	stageDecode *telemetry.Histogram
	stageEncode *telemetry.Histogram

	wireInfer   [3]*telemetry.Counter // json, frame-f64, frame-f32
	wireCapture [3]*telemetry.Counter
}

// wire-counter slots, indexed by how the request body arrived.
const (
	wireSlotJSON = iota
	wireSlotF64
	wireSlotF32
)

// NewHandler exposes the server over the HTTP API:
//
//	POST /v1/infer    {"model": "m", "input": [...]}  -> {"output": [...]}
//	POST /v1/capture  {"db": "d", "records": [...]}   -> {"accepted": N}
//	GET  /v1/models   registry listing (checksum/load-time/path provenance,
//	                  plus learner generation and lineage under WithLearner)
//	GET  /v1/stats    per-model serving stats + capture ingest stats
//	                  (+ the Learners section under WithLearner)
//	POST /v1/models/{model}/rollback   restore the parent generation
//	GET  /metrics     Prometheus text-format exposition
//	GET  /healthz     liveness + build/version info
//
// Backpressure surfaces as 429, unknown models/capture DBs as 404,
// malformed bodies, wrong input widths, too many rows and bad capture
// records as 400, a body over serveapi.MaxFrameLen (either wire) as
// 413, shutdown as 503.
//
// Both POST endpoints also speak the binary frame protocol: a request
// with Content-Type application/x-hpacml-frame is decoded as a frame
// (serveapi.AppendInferRequest / AppendCaptureRequest layouts), and
// /v1/infer answers in kind — a response frame of the request's dtype.
// The capture ack and every error body stay JSON. A frame of an
// unsupported version is refused with 415, a malformed frame with a
// plain 400; the client reports either as the call's error.
//
// Every request is traced: an incoming X-Request-ID is honored (a
// fresh ID is minted otherwise), echoed on the response header and in
// error bodies, and logged — with per-stage decode/queue/forward/
// encode timings — through the structured request logger (see
// WithLogger / WithSlowRequest).
func NewHandler(s *Server, opts ...HandlerOption) http.Handler {
	h := &handler{
		s:    s,
		mux:  http.NewServeMux(),
		log:  slog.Default(),
		slow: defaultSlowRequest,

		okRequests:  make(map[string]*telemetry.Counter),
		stageDecode: s.met.httpStage.With("decode"),
		stageEncode: s.met.httpStage.With("encode"),
		wireInfer: [3]*telemetry.Counter{
			s.met.wireRequests.With("infer", "json", "f64"),
			s.met.wireRequests.With("infer", "binary", "f64"),
			s.met.wireRequests.With("infer", "binary", "f32"),
		},
		wireCapture: [3]*telemetry.Counter{
			s.met.wireRequests.With("capture", "json", "f64"),
			s.met.wireRequests.With("capture", "binary", "f64"),
			s.met.wireRequests.With("capture", "binary", "f32"),
		},
	}
	for _, opt := range opts {
		opt(h)
	}
	for _, route := range []string{"/v1/infer", "/v1/capture", "/v1/models", "/v1/stats", routeRollback, "/metrics", "/healthz", "other"} {
		h.okRequests[route] = s.met.httpRequests.With(route, "200")
	}

	h.mux.HandleFunc("/v1/infer", h.serveInfer)
	h.mux.HandleFunc("/v1/capture", h.serveCapture)
	h.mux.HandleFunc("/v1/models", func(w http.ResponseWriter, r *http.Request) {
		infos := s.Models()
		if h.learner != nil {
			h.learner.Annotate(infos)
		}
		writeJSON(w, http.StatusOK, infos)
	})
	h.mux.HandleFunc("POST /v1/models/{model}/rollback", h.serveRollback)
	h.mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		resp := StatsResponse{
			UptimeSec: s.Uptime().Seconds(),
			Models:    s.Snapshot(),
			Captures:  s.CaptureSnapshot(),
			Wire:      h.wireSnapshot(),
		}
		if h.learner != nil {
			resp.Learners = h.learner.Snapshot()
		}
		writeJSON(w, http.StatusOK, resp)
	})
	h.mux.Handle("/metrics", telemetry.Handler(s.met.reg))
	h.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		b := telemetry.Build()
		writeJSON(w, http.StatusOK, serveapi.HealthResponse{
			Status:    "ok",
			Version:   b.Version,
			Revision:  b.Revision,
			GoVersion: b.GoVersion,
			UptimeSec: s.Uptime().Seconds(),
		})
	})
	return h
}

// statusWriter captures the response status code for accounting.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// routeRollback is the metric label of the admin rollback route — the
// model name in the path is collapsed away so label cardinality stays
// fixed.
const routeRollback = "/v1/models/{model}/rollback"

// routeLabel collapses request paths onto the fixed route set so a
// path-scanning client cannot mint unbounded label cardinality.
func routeLabel(path string) string {
	switch path {
	case "/v1/infer", "/v1/capture", "/v1/models", "/v1/stats", "/metrics", "/healthz":
		return path
	}
	if strings.HasPrefix(path, "/v1/models/") && strings.HasSuffix(path, "/rollback") {
		return routeRollback
	}
	return "other"
}

// serveRollback handles POST /v1/models/{model}/rollback: switch the
// model back to its parent generation's directory and hot-reload it. 404 without a learner (or for an unmanaged model), 409 when the
// live generation has no parent to return to.
func (h *handler) serveRollback(w http.ResponseWriter, r *http.Request) {
	if h.learner == nil {
		writeErr(w, r, http.StatusNotFound, errors.New("no continuous-learning controller attached"))
		return
	}
	resp, err := h.learner.Rollback(r.PathValue("model"))
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, resp)
	case errors.Is(err, learner.ErrUnknownModel):
		writeErr(w, r, http.StatusNotFound, err)
	case errors.Is(err, learner.ErrNoParent):
		writeErr(w, r, http.StatusConflict, err)
	default:
		writeErr(w, r, http.StatusInternalServerError, err)
	}
}

// ServeHTTP is the tracing/logging middleware around the route mux:
// resolve the request ID, serve, account the status, and emit one
// structured log line with the span's stage breakdown.
func (h *handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rid := r.Header.Get(serveapi.HeaderRequestID)
	if rid == "" {
		rid = serveapi.NewRequestID()
	}
	sp := &span{id: rid, start: start}
	w.Header().Set(serveapi.HeaderRequestID, rid)
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	h.mux.ServeHTTP(sw, r.WithContext(withSpan(r.Context(), sp)))
	dur := time.Since(start)

	route := routeLabel(r.URL.Path)
	if sw.code == http.StatusOK {
		h.okRequests[route].Inc()
	} else {
		h.s.met.httpRequests.With(route, strconv.Itoa(sw.code)).Inc()
	}

	slow := h.slow > 0 && dur >= h.slow
	if slow {
		h.s.met.slowRequests.Inc()
	}
	level := slog.LevelDebug
	switch {
	case sw.code >= http.StatusInternalServerError:
		level = slog.LevelError
	case slow:
		level = slog.LevelWarn
	}
	if !h.log.Enabled(r.Context(), level) {
		return
	}
	attrs := make([]slog.Attr, 0, 13)
	attrs = append(attrs,
		slog.String("rid", rid),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", sw.code),
		slog.Duration("dur", dur),
	)
	if sp.model != "" {
		attrs = append(attrs, slog.String("model", sp.model))
	}
	if sp.db != "" {
		attrs = append(attrs, slog.String("db", sp.db))
	}
	if sp.wire != "" {
		attrs = append(attrs,
			slog.String("wire", sp.wire),
			slog.String("dtype", sp.dtype),
			slog.Int("rows", sp.rows),
			slog.Duration("decode", sp.decode),
			slog.Duration("queue", sp.queue),
			slog.Duration("forward", sp.forward),
			slog.Duration("encode", sp.encode),
		)
	}
	if slow {
		attrs = append(attrs, slog.Bool("slow", true))
	}
	h.log.LogAttrs(r.Context(), level, "request", attrs...)
}

// serveInfer handles POST /v1/infer on either wire.
func (h *handler) serveInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, r, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	if isFrameRequest(r) {
		h.serveInferFrame(w, r)
		return
	}
	s, sp := h.s, spanFrom(r.Context())
	sp.wire, sp.dtype = "json", "f64"
	h.wireInfer[wireSlotJSON].Inc()
	decodeStart := time.Now()
	var req InferRequest
	if !decodeJSONBody(w, r, &req) {
		return
	}
	h.observeDecode(sp, time.Since(decodeStart))
	sp.model = req.Model
	switch {
	case req.Input != nil && req.Inputs == nil:
		sp.rows = 1
		out, err := s.inferRow(req.Model, req.Input, sp)
		if err != nil {
			writeErr(w, r, statusFor(err), err)
			return
		}
		h.encodeJSON(w, sp, InferResponse{Model: req.Model, Output: out})
	case req.Inputs != nil && req.Input == nil:
		rows := len(req.Inputs)
		sp.rows = rows
		if err := checkRowCount(rows); err != nil {
			writeErr(w, r, http.StatusBadRequest, err)
			return
		}
		// Flatten into one slab so a JSON batch takes the frame's path.
		fs := framePool.Get().(*frameScratch)
		defer framePool.Put(fs)
		m, err := s.lookup(req.Model, len(req.Inputs[0]))
		fs.in = fs.in[:0]
		for _, row := range req.Inputs {
			if err == nil {
				err = m.checkWidth(len(row))
			}
			if err != nil {
				writeErr(w, r, statusFor(err), err)
				return
			}
			fs.in = append(fs.in, row...)
		}
		fs.out = grow(fs.out, rows*m.out)
		if err := s.inferSlab(m, fs.in, fs.out, rows, sp); err != nil {
			writeErr(w, r, statusFor(err), err)
			return
		}
		outs := make([][]float64, rows)
		for i := range outs {
			outs[i] = fs.out[i*m.out : (i+1)*m.out]
		}
		h.encodeJSON(w, sp, InferResponse{Model: req.Model, Outputs: outs})
	default:
		writeErr(w, r, http.StatusBadRequest, errors.New(`set exactly one of "input" or "inputs"`))
	}
}

// decodeJSONBody decodes a JSON request body of at most
// serveapi.MaxFrameLen bytes into v — the same bound the frame wire
// has — answering 413 for an oversized body and 400 for a malformed
// one. It reports whether v is usable.
func decodeJSONBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := limitBody(w, r)
	if err == nil {
		err = json.NewDecoder(r.Body).Decode(v)
	}
	if err != nil {
		writeErr(w, r, bodyReadStatus(err), fmt.Errorf("bad JSON: %w", err))
		return false
	}
	return true
}

// serveCapture handles POST /v1/capture on either wire.
func (h *handler) serveCapture(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, r, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	if isFrameRequest(r) {
		h.serveCaptureFrame(w, r)
		return
	}
	s, sp := h.s, spanFrom(r.Context())
	sp.wire, sp.dtype = "json", "f64"
	h.wireCapture[wireSlotJSON].Inc()
	decodeStart := time.Now()
	var req serveapi.CaptureRequest
	if !decodeJSONBody(w, r, &req) {
		return
	}
	h.observeDecode(sp, time.Since(decodeStart))
	sp.db, sp.rows = req.DB, len(req.Records)
	if len(req.Records) == 0 {
		writeErr(w, r, http.StatusBadRequest, errors.New(`"records" must carry at least one capture record`))
		return
	}
	accepted, err := s.Capture(req.DB, req.Records)
	if err != nil {
		// Report the durably appended prefix alongside the error so
		// the client can account for a partial ingest exactly.
		writeJSON(w, statusFor(err), serveapi.ErrorBody{Error: err.Error(), Accepted: accepted, RequestID: requestIDFrom(r.Context())})
		return
	}
	h.encodeJSON(w, sp, serveapi.CaptureResponse{DB: req.DB, Accepted: accepted})
}

// observeDecode records a request's body-decode duration in both the
// span (for its log line) and the stage histogram.
func (h *handler) observeDecode(sp *span, d time.Duration) {
	sp.decode = d
	h.stageDecode.Observe(d.Seconds())
}

// encodeJSON writes a 200 JSON response, timing the encode stage.
func (h *handler) encodeJSON(w http.ResponseWriter, sp *span, v any) {
	encStart := time.Now()
	writeJSON(w, http.StatusOK, v)
	sp.encode = time.Since(encStart)
	h.stageEncode.Observe(sp.encode.Seconds())
}

// statusFor maps serving errors to HTTP codes. Anything that is not a
// recognized caller mistake is a server-side inference failure and must
// read as 5xx, so clients and monitors don't misfile region/model
// faults as bad requests.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrUnknownModel), errors.Is(err, ErrUnknownDB):
		return http.StatusNotFound
	case errors.Is(err, ErrBadInput), errors.Is(err, ErrBadCapture):
		return http.StatusBadRequest
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrServerClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeErr writes a JSON error body stamped with the request's trace
// ID, so the failure a client reports is joinable to this server's
// log line for the same request.
func writeErr(w http.ResponseWriter, r *http.Request, code int, err error) {
	writeJSON(w, code, serveapi.ErrorBody{Error: err.Error(), RequestID: requestIDFrom(r.Context())})
}

// --- binary frame protocol -------------------------------------------

// isFrameRequest reports whether the request negotiated the binary
// frame protocol via its Content-Type (parameters like charset are
// tolerated and ignored).
func isFrameRequest(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if ct == serveapi.ContentTypeFrame {
		return true
	}
	mt, _, err := mime.ParseMediaType(ct)
	return err == nil && mt == serveapi.ContentTypeFrame
}

// frameStatus maps a frame decode failure: an unsupported version is
// 415, so a caller can tell a frame revision this server does not speak
// from a broken frame; everything else — bad magic, truncation, forged
// dims, dtype mismatch — is a plain malformed-request 400.
func frameStatus(err error) int {
	if errors.Is(err, serveapi.ErrFrameVersion) {
		return http.StatusUnsupportedMediaType
	}
	return http.StatusBadRequest
}

// frameScratch holds one request's reusable buffers: the raw request
// body, the input slab (a decoded frame, or flattened JSON rows), the
// output slab the replicas write into, and the encoded response frame.
// in and out are what a request's queued ranges view, so the scratch
// goes back to the pool only after inferSlab has returned — which it
// does only once every range it enqueued has completed.
type frameScratch struct {
	body []byte
	in   []float64
	out  []float64
	enc  []byte
}

var framePool = sync.Pool{New: func() any { return new(frameScratch) }}

// grow returns buf resized to n elements, reallocating only when its
// capacity is short.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// errBodyTooLarge reports a request whose declared Content-Length
// already exceeds the body size limit, before any byte is read.
var errBodyTooLarge = fmt.Errorf("body exceeds %d bytes", serveapi.MaxFrameLen)

// bodyReadStatus maps a body read or decode failure: an oversized body
// — declared up front or discovered mid-read — is 413, anything else
// (malformed JSON, client disconnects, chunked-encoding garbage) a
// plain 400.
func bodyReadStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.Is(err, errBodyTooLarge) || errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// limitBody bounds the request body by serveapi.MaxFrameLen on both
// the declared Content-Length (refused before any read) and the actual
// byte count (the read fails past the limit).
func limitBody(w http.ResponseWriter, r *http.Request) error {
	if r.ContentLength > serveapi.MaxFrameLen {
		return fmt.Errorf("%w (declared %d)", errBodyTooLarge, r.ContentLength)
	}
	r.Body = http.MaxBytesReader(w, r.Body, serveapi.MaxFrameLen)
	return nil
}

// readFrameBody reads the whole request body into buf's storage (grown
// as needed), so pooled buffers absorb the read. The read is bounded by
// limitBody, and the attacker-controlled Content-Length only sizes the
// pre-allocation up to a modest cap — a forged header costs the sender
// real bytes, never a large allocation on this side.
func readFrameBody(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, error) {
	if err := limitBody(w, r); err != nil {
		return buf[:0], err
	}
	buf = buf[:0]
	const maxPrealloc = 1 << 20
	if n := r.ContentLength; n > 0 && n <= maxPrealloc && int64(cap(buf)) < n {
		buf = make([]byte, 0, n)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// maxInferRows is the most rows one request may carry, on either wire:
// a single huge (or forged) batch cannot size multi-GB slabs.
const maxInferRows = 1 << 20

// checkRowCount applies the per-request row limits.
func checkRowCount(rows int) error {
	if rows == 0 {
		return errors.New("request must carry at least one row")
	}
	if rows > maxInferRows {
		return fmt.Errorf("request carries %d rows, limit %d", rows, maxInferRows)
	}
	return nil
}

// wireSnapshot folds the hot-path wire counters into the /v1/stats
// Wire section, skipping combinations that have seen no traffic.
func (h *handler) wireSnapshot() []serveapi.WireStats {
	slots := []struct {
		wire, dtype string
	}{
		{"json", "f64"},
		{"binary", "f64"},
		{"binary", "f32"},
	}
	var out []serveapi.WireStats
	for _, ep := range []struct {
		name     string
		counters *[3]*telemetry.Counter
	}{{"infer", &h.wireInfer}, {"capture", &h.wireCapture}} {
		for i, slot := range slots {
			if n := ep.counters[i].Value(); n > 0 {
				out = append(out, serveapi.WireStats{
					Endpoint: ep.name, Wire: slot.wire, Dtype: slot.dtype, Requests: n,
				})
			}
		}
	}
	return out
}

// dtypeSlot maps a frame dtype to its metric slot and label.
func dtypeSlot(dt serveapi.Dtype) (slot int, label string) {
	switch dt {
	case serveapi.DtypeF32:
		return wireSlotF32, "f32"
	}
	return wireSlotF64, "f64"
}

// serveInferFrame is the binary hot path of /v1/infer: decode the
// request slab into pooled buffers, hand it to the model queue as row
// ranges whose outputs land directly in the pooled response slab, and
// answer a response frame of the request's dtype.
func (h *handler) serveInferFrame(w http.ResponseWriter, r *http.Request) {
	s, sp := h.s, spanFrom(r.Context())
	sp.wire = "binary"
	fs := framePool.Get().(*frameScratch)
	defer framePool.Put(fs)
	decodeStart := time.Now()
	var err error
	if fs.body, err = readFrameBody(w, r, fs.body); err != nil {
		writeErr(w, r, bodyReadStatus(err), fmt.Errorf("reading frame: %w", err))
		return
	}
	req, err := serveapi.DecodeInferRequest(fs.body, fs.in)
	if err != nil {
		writeErr(w, r, frameStatus(err), err)
		return
	}
	h.observeDecode(sp, time.Since(decodeStart))
	fs.in = req.Data
	slot, dlabel := dtypeSlot(req.Dtype)
	sp.dtype = dlabel
	sp.model, sp.rows = req.Model, req.Rows
	h.wireInfer[slot].Inc()
	if err := checkRowCount(req.Rows); err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	m, err := s.lookup(req.Model, req.Cols)
	if err != nil {
		writeErr(w, r, statusFor(err), err)
		return
	}
	fs.out = grow(fs.out, req.Rows*m.out)
	if err := s.inferSlab(m, req.Data, fs.out, req.Rows, sp); err != nil {
		writeErr(w, r, statusFor(err), err)
		return
	}
	encStart := time.Now()
	if fs.enc, err = serveapi.AppendInferResponse(fs.enc[:0], req.Dtype, req.Model, req.Rows, m.out, fs.out); err != nil {
		writeErr(w, r, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", serveapi.ContentTypeFrame)
	w.Header().Set("Content-Length", strconv.Itoa(len(fs.enc)))
	w.WriteHeader(http.StatusOK)
	w.Write(fs.enc)
	sp.encode = time.Since(encStart)
	h.stageEncode.Observe(sp.encode.Seconds())
}

// serveCaptureFrame is the binary path of /v1/capture. The decoded
// records are freshly allocated (ingest hands them to the database
// writer, which outlives the request); only the body read is pooled.
// The ack is JSON, like the JSON path's.
func (h *handler) serveCaptureFrame(w http.ResponseWriter, r *http.Request) {
	s, sp := h.s, spanFrom(r.Context())
	sp.wire = "binary"
	fs := framePool.Get().(*frameScratch)
	defer framePool.Put(fs)
	decodeStart := time.Now()
	var err error
	if fs.body, err = readFrameBody(w, r, fs.body); err != nil {
		writeErr(w, r, bodyReadStatus(err), fmt.Errorf("reading frame: %w", err))
		return
	}
	db, recs, err := serveapi.DecodeCaptureRequest(fs.body)
	if err != nil {
		writeErr(w, r, frameStatus(err), err)
		return
	}
	h.observeDecode(sp, time.Since(decodeStart))
	// DecodeCaptureRequest erases the wire dtype into float64 records;
	// re-read it from the header so telemetry sees the real mix.
	dt, _ := serveapi.FrameDtype(fs.body)
	slot, dlabel := dtypeSlot(dt)
	sp.dtype = dlabel
	sp.db, sp.rows = db, len(recs)
	h.wireCapture[slot].Inc()
	if len(recs) == 0 {
		writeErr(w, r, http.StatusBadRequest, errors.New("frame must carry at least one capture record"))
		return
	}
	accepted, err := s.Capture(db, recs)
	if err != nil {
		writeJSON(w, statusFor(err), serveapi.ErrorBody{Error: err.Error(), Accepted: accepted, RequestID: requestIDFrom(r.Context())})
		return
	}
	h.encodeJSON(w, sp, serveapi.CaptureResponse{DB: db, Accepted: accepted})
}
