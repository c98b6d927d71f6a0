// Package results defines the machine-readable result schema shared by
// the repo's command-line tools: hpacml-eval's -json output and
// hpacml-collect's -out report both emit one Record, so CI artifacts
// (BENCH_*.json) have a single shape regardless of which tool produced
// them.
package results

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Record is one tool run. Exactly one of Eval or Collect is set,
// according to Tool.
type Record struct {
	// Tool names the producer: "hpacml-eval" or "hpacml-collect".
	Tool string `json:"tool"`
	// Benchmark is the benchmark name.
	Benchmark string `json:"benchmark,omitempty"`
	// Model is the surrogate the run exercised: a .gmod path or model
	// URI for eval; empty for collection.
	Model string `json:"model,omitempty"`

	Eval    *Eval    `json:"eval,omitempty"`
	Collect *Collect `json:"collect,omitempty"`
}

// Eval is a deployed-surrogate measurement: end-to-end speedup, QoI
// error, and the HPAC-ML phase breakdown (the data behind the paper's
// Figures 5-8, previously available only as CSV).
type Eval struct {
	Speedup       float64 `json:"speedup"`
	Error         float64 `json:"error"`
	Metric        string  `json:"metric"`
	Params        int     `json:"params"`
	ToTensorSec   float64 `json:"to_tensor_sec"`
	InferenceSec  float64 `json:"inference_sec"`
	FromTensorSec float64 `json:"from_tensor_sec"`
	BaselineError float64 `json:"baseline_error"`

	// Fallbacks counts surrogate invocations that fell back to the
	// accurate path (engine failure or expired deadline, in a region
	// whose model() is an http(s):// URI or that carries a trust(...)
	// clause) during the surrogate timing runs; RemoteInference counts
	// the surrogate invocations of a region whose model() is a URI.
	// Both are zero for purely local, healthy deployments.
	Fallbacks       int `json:"fallbacks"`
	RemoteInference int `json:"remote_inference"`

	// Trust-routing counters of the deployed region: rows whose
	// surrogate prediction was kept (every served row when ungated),
	// rows rejected by the variance gate, rows rejected by the
	// input-domain guardrail (both non-zero only under a trust(...)
	// clause). They match the
	// TrustedRows/UncertainRows/OutOfDomainRows fields of /v1/stats.
	TrustedRows     int `json:"trusted_rows"`
	UncertainRows   int `json:"uncertain_rows"`
	OutOfDomainRows int `json:"out_of_domain_rows"`
}

// Collect is a data-collection run through the capture pipeline: how
// many region invocations ran, what the sink accepted, where it
// landed (local shards and/or a remote ingest database), and what was
// lost. dropped/flush_errors/write_errors > 0 means the training set
// is incomplete — hpacml-collect exits non-zero on it.
type Collect struct {
	Runs int `json:"runs"`
	// DB is the db reference the region collected into (a local .gh5
	// path or a remote capture URI).
	DB string `json:"db"`

	Records     int `json:"records"`
	Sampled     int `json:"sampled"`
	Shards      int `json:"shards"`
	Dropped     int `json:"dropped"`
	Flushes     int `json:"flushes"`
	FlushErrors int `json:"flush_errors"`
	WriteErrors int `json:"write_errors"`
	// RemoteRecords counts records acknowledged by the remote ingest
	// endpoint (0 for local collection).
	RemoteRecords int `json:"remote_records"`
}

// WriteJSON writes the record as indented JSON to w.
func (r *Record) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the record as indented JSON to path ("" or "-" means
// stdout).
func (r *Record) WriteFile(path string) error {
	if path == "" || path == "-" {
		return r.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("results: %w", err)
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
