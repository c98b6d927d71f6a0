package serve

import "repro/internal/telemetry"

// Metric names and label conventions (documented in
// docs/ARCHITECTURE.md, asserted by the CI metrics smoke):
//
//   - every name is hpacml_-prefixed, seconds are the base unit for
//     every duration, and totals end in _total;
//   - model-level series carry a model label (the registry name), the
//     capture side a db label;
//   - outcome-style labels are closed enums: outcome=ok|error|rejected,
//     result=ok|error, stage=decode|encode, wire=json|binary,
//     dtype=f64|f32.
//
// The hot path records through child handles resolved once per model
// at registration (see modelStats / captureDB), so serving traffic
// never pays a label lookup; values that already live elsewhere (queue
// depths, uptime) bridge in through func-backed gauges that read only
// when a scrape happens.

// metrics is the server's telemetry surface: one registry plus the
// family handles the serving layers record into.
type metrics struct {
	reg *telemetry.Registry

	// HTTP layer.
	httpRequests *telemetry.CounterVec   // path, code
	httpStage    *telemetry.HistogramVec // stage (decode | encode)
	wireRequests *telemetry.CounterVec   // endpoint, wire, dtype
	slowRequests *telemetry.Counter

	// Coalescer / per-model serving, resolved per model into
	// modelMetrics at registration.
	inferRequests *telemetry.CounterVec   // model, outcome
	inferBatches  *telemetry.CounterVec   // model
	batchSize     *telemetry.HistogramVec // model
	queueWait     *telemetry.HistogramVec // model
	forward       *telemetry.HistogramVec // model
	latency       *telemetry.HistogramVec // model
	reloads       *telemetry.CounterVec   // model, result

	// Capture ingest, resolved per db into captureDB.
	captureRecords *telemetry.CounterVec // db
	captureBatches *telemetry.CounterVec // db, outcome
}

// batchSizeBuckets covers micro-batch sizes: exact small steps where
// coalescing evidence lives, powers of two beyond.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// newMetrics registers every serving family on reg (a fresh registry
// unless the Config injected a shared one).
func newMetrics(reg *telemetry.Registry) *metrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	lat := telemetry.DefaultLatencyBuckets
	m := &metrics{
		reg: reg,

		httpRequests: reg.CounterVec("hpacml_http_requests_total",
			"HTTP requests served, by route and status code.", "path", "code"),
		httpStage: reg.HistogramVec("hpacml_http_stage_seconds",
			"Time spent in the HTTP request-body decode and response encode stages.", lat, "stage"),
		wireRequests: reg.CounterVec("hpacml_wire_requests_total",
			"Hot-path requests by endpoint, wire protocol, and payload dtype.", "endpoint", "wire", "dtype"),
		slowRequests: reg.Counter("hpacml_slow_requests_total",
			"Requests that exceeded the slow-request log threshold."),

		inferRequests: reg.CounterVec("hpacml_infer_requests_total",
			"Inference rows by model and outcome (ok, error, or rejected by queue backpressure).", "model", "outcome"),
		inferBatches: reg.CounterVec("hpacml_infer_batches_total",
			"Coalesced batches executed per model.", "model"),
		batchSize: reg.HistogramVec("hpacml_infer_batch_size",
			"Rows per engine batch — mass above 1 is the coalescer doing its job.", batchSizeBuckets, "model"),
		queueWait: reg.HistogramVec("hpacml_infer_queue_seconds",
			"Per-row wait from enqueue to batch cut.", lat, "model"),
		forward: reg.HistogramVec("hpacml_infer_forward_seconds",
			"Per-batch engine phase: the replica engine call plus the staging copies of a coalesced batch.", lat, "model"),
		latency: reg.HistogramVec("hpacml_infer_latency_seconds",
			"Per-row latency from enqueue to completion.", lat, "model"),
		reloads: reg.CounterVec("hpacml_model_reloads_total",
			"Hot-reload attempts by model and result.", "model", "result"),

		captureRecords: reg.CounterVec("hpacml_capture_records_total",
			"Capture records durably ingested per database.", "db"),
		captureBatches: reg.CounterVec("hpacml_capture_batches_total",
			"Capture ingest batches by database and outcome.", "db", "outcome"),
	}
	reg.RegisterBuildInfo("hpacml_build_info")
	return m
}

// modelMetrics is one model's pre-resolved telemetry handles — the
// single source of truth for the model's traffic totals. The JSON
// /v1/stats snapshot reads these same counters, so /metrics and
// /v1/stats can never disagree on a total.
type modelMetrics struct {
	ok        *telemetry.Counter
	errors    *telemetry.Counter
	rejected  *telemetry.Counter
	batches   *telemetry.Counter
	batchSize *telemetry.Histogram
	queueWait *telemetry.Histogram
	forward   *telemetry.Histogram
	latency   *telemetry.Histogram
	reloadOK  *telemetry.Counter
	reloadErr *telemetry.Counter
}

func (m *metrics) forModel(model string) modelMetrics {
	return modelMetrics{
		ok:        m.inferRequests.With(model, "ok"),
		errors:    m.inferRequests.With(model, "error"),
		rejected:  m.inferRequests.With(model, "rejected"),
		batches:   m.inferBatches.With(model),
		batchSize: m.batchSize.With(model),
		queueWait: m.queueWait.With(model),
		forward:   m.forward.With(model),
		latency:   m.latency.With(model),
		reloadOK:  m.reloads.With(model, "ok"),
		reloadErr: m.reloads.With(model, "error"),
	}
}

// registerServerFuncs installs the scrape-time gauges that read state
// the server already maintains: queue depths and uptime. They run only
// when /metrics is scraped.
func (s *Server) registerServerFuncs() {
	reg := s.met.reg
	reg.GaugeFunc("hpacml_uptime_seconds",
		"Seconds since the server started accepting traffic.", nil,
		func(emit telemetry.Emit) { emit(s.Uptime().Seconds()) })
	reg.GaugeFunc("hpacml_queue_depth",
		"Rows currently waiting in each model's bounded queue.", []string{"model"},
		func(emit telemetry.Emit) {
			for name, m := range s.models {
				emit(float64(m.waiting.Load()), name)
			}
		})
	reg.GaugeFunc("hpacml_queue_capacity",
		"Most rows that may wait in each model's queue (submissions beyond it are rejected).", []string{"model"},
		func(emit telemetry.Emit) {
			for name := range s.models {
				emit(float64(s.cfg.QueueCap), name)
			}
		})
}
