package main

// The benchmark's definition: workload and metric names are fixed here
// and mirrored in the repository's BENCHMARK.json (bench_test.go keeps
// the two from drifting apart). Later performance and simplicity
// changes are judged by these names, so renaming one is a change to
// the definition, not a refactor.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end metrics only
}

const (
	higher = "higher"
	lower  = "lower"
)

var workloadDefs = []workloadDef{
	{"embed_infer", "One caller, Region.Execute on the 8192-option binomial region: the paper's shape, bridge, LocalEngine, scatter; f64 GEMM does ~97% of the work, serve and wire none."},
	{"embed_collect", "Same region in collection mode to a sharded .gh5: the bridge gathers inputs and outputs, Sink and h5 work, the engine does nothing; writes beside reads."},
	{"serve_slab", "Two closed-loop callers, 256-row slabs, tiny model over the binary wire: per-row serve overhead (decode, fan-out, coalescer, copies, encode, HTTP) dominates the engine."},
	{"serve_wide_f64", "Two callers, 64-row slabs, 64-512-512-16 model in f64: the engine is ~95% of worker time, so a GEMM change moves it and a serve-path change does not."},
	{"serve_wide_f32", "As serve_wide_f64 with ModelSpec.F32: same model, wire, rows and callers, only compute precision differs; covers Forward32 end to end."},
	{"serve_wide_i8", "As serve_wide_f64 with ModelSpec.I8 and a .quant sidecar fitted in setup: covers ForwardI8, sidecar load and gate re-check; a zero error means f64 was served and fails."},
}

// Bounds are sized on the shared 2-core box the benchmark was built on,
// where the quiet baseline drifts by ~10% between sets of runs minutes
// apart and whole quarters of an hour run 20-25% slow; a tighter bound
// would reject identical code. op_p95_ms could not hold even 0.25 there
// (run-to-run spread up to 0.24 within one quiet set), so the tail is a
// layer metric, client.op_p95_ms, not a gate.
var endToEnd = []metricDef{
	{"rows_per_s", "rows/s", higher, 0.25},
	{"op_p50_ms", "ms", lower, 0.25},
	{"setup_s", "s", lower, 0.25},
}

// perLayer lists every layer metric by the module it measures. A
// workload reports only the layers on its path; the driver's result
// line fills the rest with 0 because its contract wants every name on
// every run.
var perLayer = []metricDef{
	{"serveclient.infer_matrix_us_p50", "us", lower, 0},
	{"serveclient.self_us_per_row", "us/row", lower, 0},

	{"serveapi.encode_request_ns_per_row", "ns/row", lower, 0},
	{"serveapi.decode_request_ns_per_row", "ns/row", lower, 0},
	{"serveapi.encode_response_ns_per_row", "ns/row", lower, 0},
	{"serveapi.decode_response_ns_per_row", "ns/row", lower, 0},
	{"serveapi.encode_request_ns_per_row.f32", "ns/row", lower, 0},
	{"serveapi.decode_request_ns_per_row.f32", "ns/row", lower, 0},
	{"serveapi.request_bytes_per_row", "B/row", lower, 0},

	{"serve.handler_us_p50", "us", lower, 0},
	{"serve.self_us_per_row", "us/row", lower, 0},
	{"serve.engine_wait_us_per_row", "us/row", lower, 0},
	{"serve.bridge_wait_us_per_row", "us/row", lower, 0},
	{"serve.queue_wait_us_mean", "us", lower, 0},
	{"serve.forward_us_mean", "us", lower, 0},
	{"serve.decode_us_mean", "us", lower, 0},
	{"serve.encode_us_mean", "us", lower, 0},
	{"serve.mean_batch", "rows", higher, 0},
	{"serve.batches", "count", lower, 0},
	{"serve.rejected", "count", lower, 0},
	{"serve.errors", "count", lower, 0},
	{"serve.single_row_ms_p50", "ms", lower, 0},

	{"bridge.to_tensor_ns_per_row", "ns/row", lower, 0},
	{"bridge.from_tensor_ns_per_row", "ns/row", lower, 0},
	{"bridge.overhead_ratio", "ratio", lower, 0},

	{"hpacml.engine_ns_per_row", "ns/row", lower, 0},
	{"hpacml.self_ns_per_row", "ns/row", lower, 0},
	{"hpacml.execute_batch_ns_per_row", "ns/row", lower, 0},
	{"hpacml.local_engine_ns_per_row", "ns/row", lower, 0},
	{"hpacml.db_write_ns_per_row", "ns/row", lower, 0},
	{"hpacml.region_build_ms", "ms", lower, 0},
	{"hpacml.warmup_ms", "ms", lower, 0},
	{"hpacml.quant_fit_s", "s", lower, 0},

	{"nn.forward_ns_per_row.f64", "ns/row", lower, 0},
	{"nn.forward_ns_per_row.f32", "ns/row", lower, 0},
	{"nn.forward_ns_per_row.i8", "ns/row", lower, 0},
	{"nn.flops_per_row", "flop/row", lower, 0},
	{"nn.train_s", "s", lower, 0},
	{"nn.load_ms", "ms", lower, 0},

	{"tensor.matmul_gflops.f64", "Gflop/s", higher, 0},
	{"tensor.matmul_gflops.f32", "Gflop/s", higher, 0},
	{"tensor.matmul_gflops.i8", "Gop/s", higher, 0},
	{"tensor.matmul_bytes_per_flop", "B/flop", lower, 0},

	{"sink.capture_us_per_op", "us", lower, 0},
	{"sink.dropped", "count", lower, 0},
	{"sink.flushes", "count", lower, 0},
	{"sink.write_errors", "count", lower, 0},
	{"h5.bytes_per_row", "B/row", lower, 0},
	{"h5.write_mb_per_s", "MB/s", higher, 0},
	{"h5.reopen_ms", "ms", lower, 0},

	{"process.allocs_per_row", "1/row", lower, 0},
	{"process.alloc_bytes_per_row", "B/row", lower, 0},
	{"process.gc_pause_ms", "ms", lower, 0},
	{"process.heap_inuse_mb", "MB", lower, 0},
	{"process.cpu_us_per_row", "us/row", lower, 0},

	{"app.collect_s", "s", lower, 0},
	{"app.accurate_ms_p50", "ms", lower, 0},
	{"app.speedup_vs_accurate", "ratio", higher, 0},
	{"app.qoi_error", "error", lower, 0},

	{"client.ops", "count", higher, 0},
	{"client.op_p95_ms", "ms", lower, 0},
	{"client.op_p99_ms", "ms", lower, 0},
	{"client.op_max_ms", "ms", lower, 0},
	{"client.round_spread", "ratio", lower, 0},
	{"client.fail_ratio", "ratio", lower, 0},
	{"trace.overhead_ratio", "ratio", lower, 0},
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
