// Package experiments wires the five benchmarks to the HPAC-ML runtime
// and regenerates every table and figure of the paper's evaluation
// (Tables I–V, Figures 5–9). Each benchmark gets a Harness that can
// collect training data through its annotated region, train surrogate
// models from the database, and measure end-to-end speedup and QoI error
// with a deployed model — the same three phases the paper's campaign
// automates with Parsl.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	hpacml "repro"

	"repro/internal/benchmarks/common"
	"repro/internal/bo"
	"repro/internal/directive"
	"repro/internal/h5"
	"repro/internal/nn"
)

// Options tunes campaign cost. Quick settings keep a full table/figure
// regeneration in CI-scale time; Full settings push the search wider.
type Options struct {
	// CollectRuns is the number of region invocations recorded during
	// data collection.
	CollectRuns int
	// TrainEpochs bounds surrogate training.
	TrainEpochs int
	// EvalRuns is the number of repetitions per timing measurement (the
	// paper uses 20 and drops warmups).
	EvalRuns int
	// Seed drives every stochastic choice.
	Seed int64
	// Capture tunes the collection pipeline (shard rotation, queue
	// bound, block-or-drop backpressure, flush cadence, sampling); the
	// zero value is the asynchronous single-shard default.
	Capture hpacml.CaptureConfig
	// Normalize wraps trained tabular surrogates in fixed per-feature
	// standardization fitted on the training set: inputs are shifted to
	// zero mean / unit variance before the first layer and outputs are
	// mapped back after the last, so the saved model still eats and
	// emits raw application data. Off by default; turn it on for models
	// headed to int8 quantization, whose per-layer accuracy depends on
	// conditioned activation ranges.
	Normalize bool
}

// QuickOptions is sized for tests and CI.
func QuickOptions() Options {
	return Options{CollectRuns: 6, TrainEpochs: 40, EvalRuns: 3, Seed: 29}
}

// FullOptions is sized for a real campaign run.
func FullOptions() Options {
	return Options{CollectRuns: 20, TrainEpochs: 200, EvalRuns: 20, Seed: 29}
}

// EvalResult is one deployed-model measurement: the data behind Figures
// 5–8.
type EvalResult struct {
	Benchmark string
	// Speedup is accurate end-to-end time / surrogate end-to-end time.
	Speedup float64
	// Error is the QoI error under the benchmark's Table I metric.
	Error float64
	// Params is the model's scalar parameter count.
	Params int
	// Phase timings per surrogate invocation, for Figure 6;
	// InferenceSec is the model's inference latency.
	ToTensorSec   float64
	InferenceSec  float64
	FromTensorSec float64
	// BaselineError is the QoI error of the application's own
	// algorithmic approximation where one exists (ParticleFilter's
	// original filter — the vertical line of Figure 7); 0 otherwise.
	BaselineError float64
	// Fallbacks and RemoteInference surface the deployed region's
	// engine accounting: accurate-path fallbacks taken and invocations
	// served by a remote engine during the surrogate timing runs.
	Fallbacks       int
	RemoteInference int
	// Trust-routing counters of the deployed region (non-zero only for
	// trust-gated deployments): rows kept from the surrogate, rows the
	// variance gate routed to the accurate path, rows the input-domain
	// guardrail routed.
	TrustedRows     int
	UncertainRows   int
	OutOfDomainRows int
}

// CollectStats is one Table III row.
type CollectStats struct {
	Benchmark  string
	PlainSec   float64
	CollectSec float64
	DataSizeMB float64
	OverheadX  float64
}

// CollectReport summarizes one collection run's capture pipeline: what
// the sink accepted, where it landed, and what (if anything) was lost.
// A driver should treat Failed() as a failed collection even when
// every Execute call succeeded — the asynchronous pipeline reports its
// losses here.
type CollectReport struct {
	// Invocations is how many region invocations ran in collection
	// mode; Records is how many reached the sink (fewer when the
	// region's capture(...) clause thinned the stream, Sampled counts
	// those).
	Invocations int
	Records     int
	Sampled     int
	// Shards is how many files the local database spans (0 for purely
	// remote collection).
	Shards int
	// Dropped / Flushes / FlushErrors / WriteErrors are the sink's
	// backpressure and durability accounting.
	Dropped     int
	Flushes     int
	FlushErrors int
	WriteErrors int
	// RemoteRecords counts records acknowledged by a remote ingest
	// endpoint.
	RemoteRecords int
}

// Failed reports whether the pipeline lost or failed to persist any
// record.
func (r CollectReport) Failed() bool {
	return r.Dropped > 0 || r.FlushErrors > 0 || r.WriteErrors > 0
}

// collectReport drains the region's capture pipeline and assembles the
// report: Close first (the final flush), then read the sink counters.
// The returned error is any Execute error, else the Close error.
func collectReport(region *hpacml.Region, runErr error) (CollectReport, error) {
	st := region.Stats()
	err := region.Close()
	if runErr != nil {
		err = runErr
	}
	rep := CollectReport{Invocations: st.Collections}
	if ss, ok := region.CaptureStats(); ok {
		rep.Records = int(ss.Captured)
		rep.Sampled = int(ss.Sampled)
		rep.Shards = int(ss.Shards)
		rep.Dropped = int(ss.Dropped)
		rep.Flushes = int(ss.Flushes)
		rep.FlushErrors = int(ss.FlushErrors)
		rep.WriteErrors = int(ss.WriteErrors)
		rep.RemoteRecords = int(ss.RemoteRecords)
	}
	return rep, err
}

// Harness is one benchmark wired to HPAC-ML: its Table I entry, its
// Table IV search space, its annotated region, and the hooks (app) that
// say what its runs are. Collect, CollectOverhead, Train and Evaluate
// are written once, here, for all five benchmarks.
type Harness struct {
	info       common.Info
	arch       *bo.Space // run-scaled architecture search space
	paperArch  []string  // Table IV rows, verbatim
	directives func(model, db string) string
	bind       []hpacml.Option // the region's bindings over the app's buffers
	app        app
}

// app is what one benchmark supplies to its Harness.
type app interface {
	// collect drives opt.CollectRuns collection runs through r.
	collect(r *hpacml.Region, opt Options) error
	// overhead readies Table III's input and returns its plain run and
	// the same run through the annotated region.
	overhead(opt Options) (plain func() error, annotated func(*hpacml.Region) error)
	// evaluation readies held-out input and returns what Evaluate times
	// and scores.
	evaluation(opt Options) evaluation
	// build realizes an architecture as an untrained network for the
	// training set ds, with the loss it trains under (nil for MSE).
	build(arch map[string]bo.Value, dropout float64, ds *nn.Dataset, opt Options) (*nn.Network, nn.Loss, error)
}

// evaluation is one benchmark's Evaluate measurement.
type evaluation struct {
	runs      int          // timed repetitions of each path
	accurate  func() error // the original computation
	surrogate func(*hpacml.Region) error
	// reference is called once the accurate runs are timed: it keeps
	// their answer and returns the scorer of the surrogate's under the
	// benchmark's Table I metric.
	reference func(common.Metric) scorer
}

// scorer reports the surrogate run's QoI error and the error of the
// application's own approximation where one exists (0 otherwise).
type scorer func() (qoi, baseline float64, err error)

// compare keeps the answer the accurate runs left and scores the
// surrogate's later answer against it under metric m.
func compare(m common.Metric, answer func() []float64) scorer {
	metric := common.RMSE
	if m == common.MetricMAPE {
		metric = common.MAPE
	}
	ref := slices.Clone(answer())
	return func() (float64, float64, error) {
		e, err := metric(answer(), ref)
		return e, 0, err
	}
}

// newHarness completes h's Table I entry with the Table II counts of
// its directives.
func newHarness(h *Harness) *Harness {
	h.info.HPACMLLoC, h.info.DirectiveCount = common.DirectiveStats(h.directives("model.gmod", "data.gh5"))
	return h
}

// Info returns the Table I registry entry (QoI, metric, LoC counts).
func (h *Harness) Info() common.Info { return h.info }

// ArchSpace is the (run-scaled) architecture search space; the
// paper-scale space is reported by PaperArchSpace for Table IV.
func (h *Harness) ArchSpace() *bo.Space { return h.arch }

// PaperArchSpace renders the Table IV rows verbatim.
func (h *Harness) PaperArchSpace() []string { return h.paperArch }

// region builds the benchmark's annotated region: inference mode when
// modelPath is set, collection mode otherwise.
func (h *Harness) region(modelPath, dbPath string, extra ...hpacml.Option) (*hpacml.Region, error) {
	infer := modelPath != ""
	opts := []hpacml.Option{
		hpacml.Directives(h.directives(modelPath, dbPath)),
		hpacml.BindPredicate("useModel", func() bool { return infer }),
	}
	opts = append(append(opts, h.bind...), extra...)
	return hpacml.NewRegion(h.info.Name, opts...)
}

// Collect records CollectRuns collection runs into dbPath (a local .gh5
// path or a remote http(s):// capture-db URI), driving them through the
// capture pipeline Options.Capture configures, and reports what the
// pipeline did with them. Even when a run errors, the region is closed
// through the report path so already-captured records are flushed,
// never silently truncated.
func (h *Harness) Collect(dbPath string, opt Options) (CollectReport, error) {
	region, err := h.region("", dbPath, hpacml.WithCapture(opt.Capture))
	if err != nil {
		return CollectReport{}, err
	}
	defer region.Close()
	runErr := h.app.collect(region, opt)
	if runErr != nil {
		runErr = fmt.Errorf("%s collect %w", h.info.Name, runErr)
	}
	return collectReport(region, runErr)
}

// CollectOverhead measures Table III: plain runtime vs collection
// runtime plus database size.
func (h *Harness) CollectOverhead(dir string, opt Options) (CollectStats, error) {
	plainRun, annotated := h.app.overhead(opt)
	plain, err := timeIt(opt.EvalRuns, plainRun)
	if err != nil {
		return CollectStats{}, err
	}
	dbPath := filepath.Join(dir, h.info.Name+"-overhead.gh5")
	region, err := h.region("", dbPath)
	if err != nil {
		return CollectStats{}, err
	}
	defer region.Close()
	collect, err := timeIt(opt.EvalRuns, func() error { return annotated(region) })
	if err != nil {
		return CollectStats{}, err
	}
	if err := region.Close(); err != nil {
		return CollectStats{}, err
	}
	mb, err := fileSizeMB(dbPath)
	if err != nil {
		return CollectStats{}, err
	}
	return CollectStats{
		Benchmark:  h.info.Name,
		PlainSec:   plain.Seconds(),
		CollectSec: collect.Seconds(),
		DataSizeMB: mb,
		OverheadX:  collect.Seconds() / plain.Seconds(),
	}, nil
}

// Train fits a surrogate with the given architecture and
// hyperparameters (nil trains nn.Recipe) from dbPath and saves it to
// modelPath, returning the validation error of the saved weights: the
// best epoch's, on the 20 % of the shuffled database Fit holds out.
func (h *Harness) Train(dbPath, modelPath string, arch, hyper map[string]bo.Value, opt Options) (float64, error) {
	ds, err := loadDataset(dbPath, h.info.Name)
	if err != nil {
		return 0, err
	}
	net, loss, err := h.app.build(arch, dropoutOf(hyper), ds, opt)
	if err != nil {
		return 0, err
	}
	cfg := trainCfg(hyper, opt)
	cfg.Loss = loss
	hist, err := net.Fit(ds, nil, cfg)
	if err != nil {
		return 0, err
	}
	if err := net.Save(modelPath); err != nil {
		return 0, err
	}
	return hist.BestVal, nil
}

// Evaluate deploys modelPath and measures end-to-end speedup and QoI
// error against the accurate path.
func (h *Harness) Evaluate(modelPath string, opt Options) (EvalResult, error) {
	ev := h.app.evaluation(opt)
	accurate, err := timeIt(ev.runs, ev.accurate)
	if err != nil {
		return EvalResult{}, err
	}
	score := ev.reference(h.info.Metric)

	region, err := h.region(modelPath, "")
	if err != nil {
		return EvalResult{}, err
	}
	defer region.Close()
	hpacml.ClearModelCache()
	surrogate, err := timeIt(ev.runs, func() error { return ev.surrogate(region) })
	if err != nil {
		return EvalResult{}, err
	}
	qoiErr, baseline, err := score()
	if err != nil {
		return EvalResult{}, err
	}
	params, err := modelParams(modelPath)
	if err != nil {
		return EvalResult{}, err
	}
	st := region.Stats()
	inv := float64(max(st.Inferences, 1))
	res := EvalResult{
		Benchmark:       h.info.Name,
		Speedup:         accurate.Seconds() / surrogate.Seconds(),
		Error:           qoiErr,
		Params:          params,
		ToTensorSec:     st.ToTensor.Seconds() / inv,
		InferenceSec:    st.Inference.Seconds() / inv,
		FromTensorSec:   st.FromTensor.Seconds() / inv,
		BaselineError:   baseline,
		Fallbacks:       st.Fallbacks,
		RemoteInference: st.RemoteInference,
		TrustedRows:     st.TrustedRows,
		UncertainRows:   st.UncertainRows,
		OutOfDomainRows: st.OutOfDomainRows,
	}
	return res, checkFinite(h.info.Name, res.Speedup, res.Error)
}

// HyperSpace is the Table V hyperparameter space, shared by every
// benchmark: learning rate, weight decay, dropout, batch size.
func HyperSpace() *bo.Space {
	return &bo.Space{Params: []bo.Param{
		bo.FloatParam{Key: "lr", Min: 1e-4, Max: 1e-2, Log: true},
		bo.FloatParam{Key: "weight_decay", Min: 1e-4, Max: 1e-1, Log: true},
		bo.FloatParam{Key: "dropout", Min: 0, Max: 0.8},
		bo.IntParam{Key: "batch", Min: 32, Max: 512},
	}}
}

// PaperHyperSpace renders Table V verbatim.
func PaperHyperSpace() []string {
	return []string{
		"Learning Rate: [1e-4, 1e-2]",
		"Weight Decay: [1e-4, 1e-1]",
		"Dropout: [0, 0.8]",
		"Batch Size: [32, 512]",
	}
}

// benchmarks names each benchmark's constructor, in the paper's order.
var benchmarks = []struct {
	name  string
	build func(Scale) *Harness
}{
	{"minibude", NewMiniBUDE},
	{"binomial", NewBinomial},
	{"bonds", NewBonds},
	{"miniweather", NewMiniWeather},
	{"particlefilter", NewParticleFilter},
}

// Registry returns every harness, in the paper's benchmark order.
func Registry(scale Scale) []*Harness {
	out := make([]*Harness, len(benchmarks))
	for i, b := range benchmarks {
		out[i] = b.build(scale)
	}
	return out
}

// Lookup builds the named benchmark's harness, and only that one.
func Lookup(name string, scale Scale) (*Harness, error) {
	names := make([]string, len(benchmarks))
	for i, b := range benchmarks {
		if b.name == name {
			return b.build(scale), nil
		}
		names[i] = b.name
	}
	return nil, fmt.Errorf("unknown benchmark %q (valid: %s)", name, strings.Join(names, ", "))
}

// Scale selects problem sizes.
type Scale int

// Problem-size scales: test-sized and campaign-sized.
const (
	ScaleTest Scale = iota
	ScaleFull
)

// modelParams reports the deployed surrogate's scalar parameter count.
// For a plain path the .gmod is loaded and counted; for a remote model
// URI the weights live on the server (the serve registry does not
// expose a parameter count), so 0 is reported and the eval row's
// RemoteInference counter identifies the deployment instead.
func modelParams(modelPath string) (int, error) {
	if directive.IsRemoteModel(modelPath) {
		return 0, nil
	}
	net, err := nn.Load(modelPath)
	if err != nil {
		return 0, err
	}
	return net.NumParams(), nil
}

// loadDataset reads the inputs/outputs datasets of one region group,
// merging every shard of the database (a single-file database is a
// one-shard set, so the plain path reads as before).
func loadDataset(dbPath, group string) (*nn.Dataset, error) {
	f, err := h5.OpenShards(dbPath)
	if err != nil {
		return nil, err
	}
	x, err := f.Read(group, "inputs")
	if err != nil {
		return nil, err
	}
	y, err := f.Read(group, "outputs")
	if err != nil {
		return nil, err
	}
	return nn.NewDataset(x, y)
}

// trainCfg assembles a Table V hyperparameter assignment into a training
// config: nn.Recipe, with each hyperparameter the assignment names
// overriding the recipe's.
func trainCfg(hyper map[string]bo.Value, opt Options) nn.TrainConfig {
	cfg := nn.Recipe(opt.TrainEpochs, opt.Seed)
	if v, ok := hyper["lr"]; ok {
		cfg.LR = v.Float
	}
	if v, ok := hyper["weight_decay"]; ok {
		cfg.WeightDecay = v.Float
	}
	if v, ok := hyper["batch"]; ok {
		cfg.BatchSize = v.Int
	}
	return cfg
}

// dropoutOf extracts the dropout probability from a hyperparameter
// assignment (a model property in our engine, per Table V).
func dropoutOf(hyper map[string]bo.Value) float64 {
	if v, ok := hyper["dropout"]; ok {
		return v.Float
	}
	return 0
}

// fileSizeMB returns a file's size in MB.
func fileSizeMB(path string) (float64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return float64(st.Size()) / (1024 * 1024), nil
}

// timeIt runs fn repeatedly and returns the mean wall time, dropping one
// warmup run when runs > 1 (the paper drops its first two of twenty).
func timeIt(runs int, fn func() error) (time.Duration, error) {
	if runs < 1 {
		runs = 1
	}
	if runs > 1 {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := 0; i < runs; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(runs), nil
}

// checkFinite guards campaign results against NaN pollution.
func checkFinite(name string, vals ...float64) error {
	for _, v := range vals {
		if v != v {
			return fmt.Errorf("experiments: %s produced NaN", name)
		}
	}
	return nil
}
