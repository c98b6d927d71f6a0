// Package serveapi defines the wire schema of the hpacml-serve HTTP
// JSON API: the request/response bodies of /v1/infer and /v1/capture
// and the payloads of /v1/models and /v1/stats. It is the single
// source of truth shared by the server (internal/serve), the typed
// client (internal/serveclient), and — through the client — the
// runtime's remote inference engine and remote capture sink, so they
// can never drift apart. The package deliberately has no dependencies
// beyond the standard library: the server imports the hpacml runtime,
// the runtime imports the client, and keeping the schema free of both
// is what breaks that cycle.
package serveapi

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"time"
)

// InferRequest is the /v1/infer request body. Input carries one
// invocation; Inputs carries several rows of the model's input width,
// which the handler flattens into one slab and serves in ranges of at
// most MaxBatch rows, like a binary frame. Exactly one of the two must
// be set.
type InferRequest struct {
	Model  string      `json:"model"`
	Input  []float64   `json:"input,omitempty"`
	Inputs [][]float64 `json:"inputs,omitempty"`
}

// InferResponse mirrors the request: Output answers Input, Outputs
// answers Inputs.
type InferResponse struct {
	Model   string      `json:"model"`
	Output  []float64   `json:"output,omitempty"`
	Outputs [][]float64 `json:"outputs,omitempty"`
}

// ErrorBody is every non-200 response. Accepted is set only by
// /v1/capture failures: how many leading records of the batch were
// durably appended before the failure, so clients can account for a
// partial ingest instead of assuming the whole batch was lost.
// RequestID echoes the request's trace ID (see HeaderRequestID), so a
// failure reported client-side is joinable to the server's log line
// for the same request.
type ErrorBody struct {
	Error     string `json:"error"`
	Accepted  int    `json:"accepted,omitempty"`
	RequestID string `json:"request_id,omitempty"`
}

// HealthResponse is the /healthz payload: liveness plus the build
// identity of the serving binary, so a fleet operator can tell at a
// glance which version every server runs.
type HealthResponse struct {
	Status    string  `json:"status"`
	Version   string  `json:"version,omitempty"`
	Revision  string  `json:"revision,omitempty"`
	GoVersion string  `json:"go_version,omitempty"`
	UptimeSec float64 `json:"uptime_sec,omitempty"`
}

// CaptureRecord is one region invocation's training sample on the
// wire: the model-layout input and output tensors (shape plus
// row-major data) and the accurate path's runtime. It mirrors exactly
// what the local capture sink appends to a .gh5 database, so a remote
// ingest produces the same training records a local collection would.
type CaptureRecord struct {
	Region      string    `json:"region"`
	InputShape  []int     `json:"input_shape"`
	Inputs      []float64 `json:"inputs"`
	OutputShape []int     `json:"output_shape"`
	Outputs     []float64 `json:"outputs"`
	RuntimeNS   float64   `json:"runtime_ns"`
}

// CaptureRequest is the /v1/capture request body: a batch of capture
// records destined for one registered capture database. Batching is
// the client's flush unit — many solver invocations travel as one
// POST.
type CaptureRequest struct {
	DB      string          `json:"db"`
	Records []CaptureRecord `json:"records"`
}

// CaptureResponse acknowledges an ingest batch.
type CaptureResponse struct {
	DB       string `json:"db"`
	Accepted int    `json:"accepted"`
}

// CaptureDBInfo is the registry view of a server-owned capture
// database.
type CaptureDBInfo struct {
	Name   string `json:"name"`
	Path   string `json:"path"`
	Shards int    `json:"shards"`
}

// CaptureSnapshot is one capture database's ingest stats (part of the
// /v1/stats payload).
type CaptureSnapshot struct {
	CaptureDBInfo

	// Records and Batches count successfully ingested capture records
	// and the POSTs that carried them; Errors counts rejected or failed
	// ingest batches.
	Records uint64 `json:"records"`
	Batches uint64 `json:"batches"`
	Errors  uint64 `json:"errors"`
}

// ModelInfo is the registry view of a hosted model (the /v1/models
// payload).
type ModelInfo struct {
	Name string `json:"name"`
	Path string `json:"path"`
	// Ensemble is the served member count: 1 for a single model, N for
	// a deep-ensemble model set (the response is then the member mean).
	Ensemble   int    `json:"ensemble,omitempty"`
	InDim      int    `json:"input_dim"`
	OutDim     int    `json:"output_dim"`
	Checksum   string `json:"checksum"`
	Generation uint64 `json:"generation"`
	Replicas   int    `json:"replicas"`
	// Precision is the compute path that actually serves the model's
	// batches — "int8", "f32" or "f64" — as opposed to the one the
	// registry entry asked for: an int8 or f32 request whose sidecar is
	// missing, corrupt or gate-failed, or whose model does not compile,
	// reads as the wider path here. Ensembles report "f64".
	Precision string `json:"precision,omitempty"`
	// PrecisionReason says why Precision is not the asked path: the
	// engine's first compile failure (no, corrupt or gate-failed int8
	// sidecar, a geometry or depth mismatch, a layer the f32 compiler
	// refuses) or "ensemble runs f64". Empty when the asked path serves.
	PrecisionReason string `json:"precision_reason,omitempty"`
	// LoadedAt is when the currently served weights were (re)loaded —
	// provenance for the hot-reload path alongside Path and Checksum.
	LoadedAt time.Time `json:"loaded_at,omitzero"`

	// The continuous-learning annotation, present only when a learner
	// manages this model: the published learner generation (distinct
	// from Generation, which counts every registry hot reload) and the
	// recorded lineage of retrain attempts.
	LearnerGeneration uint64         `json:"learner_generation,omitempty"`
	Lineage           []LineageEntry `json:"lineage,omitempty"`
}

// Lineage verdicts (LineageEntry.Verdict).
const (
	// VerdictSeed marks the initial generation: the weights the model
	// was first registered with.
	VerdictSeed = "seed"
	// VerdictPublished marks a candidate that passed the shadow gate
	// and was hot-reloaded into the replica pools.
	VerdictPublished = "published"
	// VerdictRejected marks a candidate the gate refused (worse than
	// the published model, NaN-poisoned, or failed to train); the
	// entry's Reason says why.
	VerdictRejected = "rejected"
	// VerdictRollback marks an operator rollback to the parent
	// generation.
	VerdictRollback = "rollback"
)

// LineageEntry is one entry of a model's continuous-learning lineage:
// every retrain attempt (published or not), the seed generation, and
// every rollback, in order. The same schema is persisted in the
// model's .lineage.json sidecar and served inside /v1/models, so the
// on-disk provenance and the wire view can never drift.
type LineageEntry struct {
	// Gen is the lineage generation this entry created (monotonic;
	// rejected candidates consume a generation number too, so the
	// sidecar records every attempt).
	Gen  uint64    `json:"gen"`
	Time time.Time `json:"time,omitzero"`
	// Verdict is one of "seed" (initial load), "published",
	// "rejected", or "rollback".
	Verdict string `json:"verdict"`
	// Reason says why a candidate was rejected (gate failure, NaN
	// poisoning, training error) or what a rollback restored.
	Reason string `json:"reason,omitempty"`
	// ParentGen/ParentChecksum identify the published model this entry
	// derives from.
	ParentGen      uint64 `json:"parent_gen"`
	ParentChecksum string `json:"parent_checksum,omitempty"`
	// Checksum is the candidate's weight checksum (the registry
	// checksum after publication).
	Checksum string `json:"checksum,omitempty"`
	// TrainRecords/HoldoutRecords count the snapshot split the
	// candidate was trained and gated on.
	TrainRecords   int `json:"train_records,omitempty"`
	HoldoutRecords int `json:"holdout_records,omitempty"`
	// CandidateErr and PublishedErr are the shadow-gate relative
	// errors of the candidate and the then-published model on the
	// held-out captures. A NaN-poisoned candidate is recorded as -1
	// (JSON cannot carry NaN) with the reason naming the poisoning.
	CandidateErr float64 `json:"candidate_err,omitempty"`
	PublishedErr float64 `json:"published_err,omitempty"`
}

// LearnerSnapshot is one model's continuous-learning stats (the
// /v1/stats payload): the published generation, retrain outcome
// counters, and the last gate verdict.
type LearnerSnapshot struct {
	Model      string `json:"model"`
	Generation uint64 `json:"generation"`

	Retrains  uint64 `json:"retrains"`
	Published uint64 `json:"published"`
	Rejected  uint64 `json:"rejected"`
	Errors    uint64 `json:"errors"`
	Rollbacks uint64 `json:"rollbacks"`

	// PendingRecords is how many captured rows (training samples) have
	// arrived since the last retrain — the progress toward the next
	// trigger. A capture record of n rows counts n.
	PendingRecords int `json:"pending_records"`

	LastVerdict      string  `json:"last_verdict,omitempty"`
	LastCandidateErr float64 `json:"last_candidate_err,omitempty"`
	LastPublishedErr float64 `json:"last_published_err,omitempty"`
}

// RollbackResponse answers POST /v1/models/{model}/rollback: the
// lineage generation the rollback itself created, and which ancestor
// generation's weights are now live again.
type RollbackResponse struct {
	Model string `json:"model"`
	// Generation is the new current lineage generation (the rollback
	// entry).
	Generation uint64 `json:"generation"`
	// RestoredGen is the ancestor generation whose weights were
	// restored.
	RestoredGen uint64 `json:"restored_gen"`
	Checksum    string `json:"checksum,omitempty"`
}

// RegionStats is the wire form of the runtime's Region accounting
// (hpacml.Stats). Field names match hpacml.Stats exactly — the runtime
// struct has no JSON tags, so matching Go names is what keeps the
// /v1/stats payload identical to marshalling hpacml.Stats directly.
type RegionStats struct {
	Invocations  int
	Inferences   int
	Collections  int
	AccurateRuns int

	Batches            int
	BatchedInvocations int

	Fallbacks       int
	RemoteInference int

	TrustedRows     int
	UncertainRows   int
	OutOfDomainRows int

	ToTensor   time.Duration
	Inference  time.Duration
	FromTensor time.Duration
	Accurate   time.Duration
	DBWrite    time.Duration

	BatchInference time.Duration
}

// ModelSnapshot is one model's serving stats (the /v1/stats payload):
// row totals, throughput, the batch-size histogram, latency quantiles,
// and the replica pool's phase split in Region form.
type ModelSnapshot struct {
	ModelInfo

	// Completed, Errors and Rejected count rows: served, failed in
	// their batch, and refused by queue backpressure. Together they are
	// the rows offered. Batches counts engine batches cut.
	Completed uint64 `json:"completed"`
	Errors    uint64 `json:"errors"`
	Rejected  uint64 `json:"rejected"`
	Batches   uint64 `json:"batches"`

	// ThroughputRPS is completed rows per second of serving uptime.
	ThroughputRPS float64 `json:"throughput_rps"`
	// MeanBatch is completed+errored rows per batch — above 1
	// exactly when the coalescer is doing its job.
	MeanBatch float64 `json:"mean_batch"`
	// BatchHist maps batch size (as a string, for JSON) to how many
	// batches were cut at that size. Zero entries are omitted.
	BatchHist map[string]uint64 `json:"batch_hist,omitempty"`

	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP95Ms float64 `json:"latency_p95_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`

	Reloads      uint64 `json:"reloads"`
	ReloadErrors uint64 `json:"reload_errors"`

	// Region is the replica pool's accounting in Region form: the
	// to-tensor / inference / from-tensor phase split of the traffic
	// served so far. Replicas run ungated and never fall back, so every
	// served row counts as an invocation, inference, batched invocation
	// and trusted row, and ToTensor / FromTensor are the staging copies
	// of batches that stacked several ranges.
	Region RegionStats `json:"region"`
}

// WireStats is one hot-path encoding's request count in the /v1/stats
// Wire section: how many /v1/infer or /v1/capture requests arrived
// over a given wire protocol and payload dtype since the server
// started. Combinations with zero requests are omitted.
type WireStats struct {
	Endpoint string `json:"endpoint"` // "infer" or "capture"
	Wire     string `json:"wire"`     // "json" or "binary"
	Dtype    string `json:"dtype"`    // "f64" or "f32"
	Requests uint64 `json:"requests"`
}

// StatsResponse is the /v1/stats payload.
type StatsResponse struct {
	UptimeSec float64         `json:"uptime_sec"`
	Models    []ModelSnapshot `json:"models"`
	// Captures lists the ingest stats of the server's capture
	// databases; absent when capture ingest is not enabled.
	Captures []CaptureSnapshot `json:"captures,omitempty"`
	// Learners lists the continuous-learning stats per managed model;
	// absent when no learner is attached.
	Learners []LearnerSnapshot `json:"learners,omitempty"`
	// Wire breaks the hot-path traffic down by endpoint, wire protocol,
	// and payload dtype — the JSON view of the
	// hpacml_wire_requests_total metric, so the encoding mix is
	// visible without a metrics scraper.
	Wire []WireStats `json:"wire,omitempty"`
}

// sidecarSuffixes name the files beside a member that belong to its
// generation: the int8 calibration (nn.QuantPath) and the guardrail
// (hpacml.GuardrailPath).
var sidecarSuffixes = [...]string{".quant", ".guard"}

// ModelFiles names a generation's file set: each member path in order,
// each followed by the ".quant" and ".guard" sidecars beside it that
// exist. The registry reads and checksums this set, and the learner
// adopts it into a generation directory, so both name the same files.
func ModelFiles(paths []string) []string {
	files := make([]string, 0, len(paths)*(1+len(sidecarSuffixes)))
	for _, p := range paths {
		files = append(files, p)
		for _, suf := range sidecarSuffixes {
			if _, err := os.Stat(p + suf); err == nil {
				files = append(files, p+suf)
			}
		}
	}
	return files
}

// ModelChecksum is ModelInfo.Checksum of a member set: SetChecksum of
// the bytes of its ModelFiles. Member order matters, and a change to
// any member or sidecar changes it; a set without sidecars hashes as
// its members alone. The registry computes it over the files it serves
// and the learner over the files it publishes, so a lineage entry and
// /v1/models agree on the same bytes.
func ModelChecksum(paths []string) (string, error) {
	files := ModelFiles(paths)
	data := make([][]byte, len(files))
	for i, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		data[i] = b
	}
	return SetChecksum(data), nil
}

// SetChecksum is the hex sha256 of the concatenation of each file's own
// sha256, in ModelFiles order: ModelChecksum of bytes already read.
func SetChecksum(data [][]byte) string {
	h := sha256.New()
	for _, b := range data {
		s := sha256.Sum256(b)
		h.Write(s[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
