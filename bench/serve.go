package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/serve"
	"repro/internal/serveclient"
)

// The serve workloads run the hpacml-serve defaults (MaxBatch 32,
// MaxDelay 2 ms, 2 workers) and as many closed-loop callers as a
// 2-core box has cores: callers model simulation ranks, each blocked on
// one slab at a time.
const (
	serveCallers   = 2
	serveBatch     = 32 // serve.Config{}.MaxBatch: the batch the coalescer hands the engine
	servedModel    = "m"
	singleRowOps   = 64
	requestTimeout = 30 * time.Second
)

type precision string

const (
	precF64 precision = "f64"
	precF32 precision = "f32"
	precI8  precision = "i8"
)

// slab is one request's input rows and the f64 reference answer.
type slab struct{ in, ref []float64 }

// serveWorkload is the served path: serveclient -> HTTP on loopback ->
// serve handler -> coalescer -> replica Region -> engine, and back.
type serveWorkload struct {
	*base
	cfg    config
	model  *modelFile
	prec   precision
	srv    *serve.Server
	hs     *http.Server
	served chan error // hs.Serve's return
	url    string
	client *serveclient.Client
	trace  traceSwitch
	rings  [][]slab    // per caller
	out    [][]float64 // per caller response scratch
}

func setupServe(cfg config, def workloadDef, build func(config, string) (*modelFile, error), rows int, prec precision, bd band) (workload, error) {
	b, err := newBase(cfg, def, rows, serveCallers, bd)
	if err != nil {
		return nil, err
	}
	w := &serveWorkload{base: b, cfg: cfg, prec: prec}
	if w.model, err = build(cfg, b.dir); err != nil {
		return nil, err
	}
	if w.model.trainS > 0 {
		b.setup["app.collect_s"] = w.model.collectS
		b.setup["nn.train_s"] = w.model.trainS
	}
	if prec == precI8 {
		if b.setup["hpacml.quant_fit_s"], err = fitQuant(w.model); err != nil {
			return nil, err
		}
	}

	start := time.Now()
	w.srv, err = serve.NewServer(serve.Config{}, serve.ModelSpec{
		Name: servedModel, Path: w.model.path, F32: prec == precF32, I8: prec == precI8})
	if err != nil {
		return nil, err
	}
	b.setup["hpacml.region_build_ms"] = msSince(start)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.hs = &http.Server{Handler: w.trace.middleware(serve.NewHandler(w.srv))}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.url = "http://" + ln.Addr().String()
	w.client = serveclient.New(w.url, serveclient.WithWire(serveclient.WireBinary), serveclient.WithTimeout(requestTimeout))

	rng := rand.New(rand.NewSource(cfg.seed + 2))
	w.rings = make([][]slab, serveCallers)
	w.out = make([][]float64, serveCallers)
	for c := range w.rings {
		w.rings[c] = make([]slab, ringSlabs)
		for k := range w.rings[c] {
			if w.rings[c][k], err = w.newSlab(rows, rng); err != nil {
				return nil, err
			}
		}
	}

	start = time.Now()
	if err := w.eachCaller(func(c int) error {
		for i := 0; i < warmupOps; i++ {
			if _, err := w.op(c, i, nil); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	b.setup["hpacml.warmup_ms"] = msSince(start)
	return w, nil
}

func (w *serveWorkload) newSlab(rows int, rng *rand.Rand) (slab, error) {
	in := make([]float64, rows*w.model.in)
	fillInputs(in, w.model.in, rng)
	ref, err := forward(w.model.net, in, rows, w.model.in, w.model.out)
	return slab{in, ref}, err
}

// eachCaller runs fn once per caller, concurrently, and returns the
// first error.
func (w *serveWorkload) eachCaller(fn func(caller int) error) error {
	errs := make(chan error, w.callers)
	for c := 0; c < w.callers; c++ {
		go func() { errs <- fn(c) }()
	}
	var first error
	for c := 0; c < w.callers; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (w *serveWorkload) setTracer(t *tracer) { w.trace.cur.Store(t) }

func (w *serveWorkload) op(caller, seq int, tr *tracer) (time.Duration, error) {
	sl := &w.rings[caller][seq%ringSlabs]
	ctx := context.Background()
	var root int
	if tr != nil {
		rid := fmt.Sprintf("%s-%d-%d", w.def.Name, caller, seq)
		ctx = serveclient.WithRequestID(ctx, rid)
		root = tr.begin(spanInferMatrix, 0, rid)
	}
	start := time.Now()
	out, cols, err := w.client.InferMatrix(ctx, servedModel, w.rowsPerOp, w.model.in, sl.in, w.out[caller])
	d := time.Since(start)
	if tr != nil {
		tr.end(root)
	}
	if err != nil {
		return d, err
	}
	w.out[caller] = out
	_, err = w.judge(out, cols, sl)
	return d, err
}

// judge scores a response against the slab's f64 reference. Every
// timed response must stay under the band's upper edge (be bit-exact
// for f64 compute); the lower edge is checked once, on the held-out
// slab.
func (w *serveWorkload) judge(out []float64, cols int, sl *slab) (float64, error) {
	if cols != w.model.out || len(out) != len(sl.ref) {
		return 0, fmt.Errorf("response is %d values in %d columns, want %d in %d", len(out), cols, len(sl.ref), w.model.out)
	}
	e := meanRelL2(out, sl.ref, len(out)/cols, cols)
	if !(e <= w.band.hi) {
		return e, fmt.Errorf("response differs from the f64 reference by %g (mean per-row relative L2), the band is %v", e, w.band)
	}
	return e, nil
}

func (w *serveWorkload) snapshot() (counters, error) {
	prom, err := scrapeMetrics(w.url)
	if err != nil {
		return counters{}, err
	}
	snaps := w.srv.Snapshot()
	if len(snaps) != 1 {
		return counters{}, fmt.Errorf("server hosts %d models, want 1", len(snaps))
	}
	return counters{phases: phasesOfWire(snaps[0].Region), serve: snaps[0], prom: prom}, nil
}

func (w *serveWorkload) layers(before, after counters, agg map[string]*spanTotals, rows int) map[string]float64 {
	p := after.phases.sub(before.phases)
	m := map[string]float64{
		"bridge.to_tensor_ns_per_row":   perRow(p.toTensor, rows),
		"bridge.from_tensor_ns_per_row": perRow(p.fromTensor, rows),
		"bridge.overhead_ratio":         float64(p.toTensor+p.fromTensor) / float64(p.engine),
		"hpacml.engine_ns_per_row":      perRow(p.engine, rows),
		"serve.rejected":                float64(after.serve.Rejected - before.serve.Rejected),
		"serve.errors":                  float64(after.serve.Errors - before.serve.Errors),
	}
	if batches := after.serve.Batches - before.serve.Batches; batches > 0 {
		m["serve.batches"] = float64(batches)
		m["serve.mean_batch"] = float64(after.serve.Completed+after.serve.Errors-before.serve.Completed-before.serve.Errors) / float64(batches)
	}
	model := fmt.Sprintf(`{model=%q}`, servedModel)
	for name, series := range map[string][2]string{
		"serve.queue_wait_us_mean": {"hpacml_infer_queue_seconds", model},
		"serve.forward_us_mean":    {"hpacml_infer_forward_seconds", model},
		"serve.decode_us_mean":     {"hpacml_http_stage_seconds", `{stage="decode"}`},
		"serve.encode_us_mean":     {"hpacml_http_stage_seconds", `{stage="encode"}`},
	} {
		if mean, ok := histMeanUs(before.prom, after.prom, series[0], series[1]); ok {
			m[name] = mean
		}
	}
	root, handler := agg[spanInferMatrix], agg[spanHandler]
	if root == nil || handler == nil {
		return m
	}
	m["serveclient.infer_matrix_us_p50"] = root.p50us()
	m["serve.handler_us_p50"] = handler.p50us()

	// Outside in, as the caller waits. The client's share is the root
	// span minus the handler span (client codec, HTTP, loopback). Inside
	// the handler a request waits on its rows; the mean row spends
	// latency - queue wait inside its batch's ExecuteBatch, which the
	// replica regions' phase counters split into bridge, engine and the
	// region's own staging. The server's share is the remainder of the
	// handler span (decode, fan-out, queue, channels, staging, encode),
	// so the four parts sum to the root span. Worker-seconds
	// (hpacml.engine_ns_per_row) cannot be subtracted from a span
	// directly: both workers serve one request's rows at once.
	usPerRow := func(d time.Duration) float64 { return perRow(d, rows) / 1e3 }
	m["serveclient.self_us_per_row"] = usPerRow(root.self)
	latency, okL := histMeanUs(before.prom, after.prom, "hpacml_infer_latency_seconds", model)
	queue, okQ := histMeanUs(before.prom, after.prom, "hpacml_infer_queue_seconds", model)
	forwardS := after.prom["hpacml_infer_forward_seconds_sum"+model] - before.prom["hpacml_infer_forward_seconds_sum"+model]
	if okL && okQ && forwardS > 0 {
		inBatch := (latency - queue) / float64(w.rowsPerOp) // us per row of the request
		engine := inBatch * p.engine.Seconds() / forwardS
		bridge := inBatch * (p.toTensor + p.fromTensor).Seconds() / forwardS
		m["serve.engine_wait_us_per_row"] = engine
		m["serve.bridge_wait_us_per_row"] = bridge
		m["serve.self_us_per_row"] = usPerRow(handler.total) - engine - bridge
	}
	return m
}

func (w *serveWorkload) replay() (map[string]float64, error) {
	sl := &w.rings[0][0]
	m, err := replayModel(w.cfg.replayChunk, w.model, w.prec, sl.in[:serveBatch*w.model.in], serveBatch)
	if err != nil {
		return nil, err
	}
	if m["hpacml.execute_batch_ns_per_row"], err = replayExecuteBatch(w.cfg.replayChunk, w.model, w.prec, sl.in, serveBatch); err != nil {
		return nil, err
	}
	if err := replayCodec(w.cfg.replayChunk, m, sl, w.rowsPerOp, w.model.in, w.model.out); err != nil {
		return nil, err
	}
	if w.def.Name == "serve_slab" {
		// Single-row requests are not a workload: below nproc callers
		// they never coalesce and time the MaxDelay timer. They stay
		// visible here.
		ms := make([]float64, singleRowOps)
		for i := range ms {
			start := time.Now()
			if _, _, err := w.client.InferMatrix(context.Background(), servedModel, 1, w.model.in, sl.in[:w.model.in], nil); err != nil {
				return nil, err
			}
			ms[i] = msSince(start)
		}
		m["serve.single_row_ms_p50"] = median(ms)
	}
	return m, nil
}

func (w *serveWorkload) verify() verdict {
	v := verdict{qoi: math.NaN()}
	held, err := w.newSlab(w.rowsPerOp, rand.New(rand.NewSource(w.cfg.seed+3)))
	if err != nil {
		v.problemf("held-out slab: %v", err)
		return v
	}
	out, cols, err := w.client.InferMatrix(context.Background(), servedModel, w.rowsPerOp, w.model.in, held.in, nil)
	if err != nil {
		v.problemf("held-out request: %v", err)
		return v
	}
	if v.qoi, err = w.judge(out, cols, &held); err != nil {
		v.problemf("held-out slab: %v", err)
	}
	return v
}

func (w *serveWorkload) close() error {
	w.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.hs.Shutdown(ctx)
	if serr := <-w.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := w.srv.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	return err
}
