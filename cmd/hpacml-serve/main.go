// hpacml-serve hosts trained surrogates behind the dynamic micro-batching
// HTTP API (internal/serve): slabs of rows from simulation ranks run as
// MaxBatch-row engine calls on views of the request itself, many
// concurrent single-invocation clients are coalesced into such calls, all
// over a pool of replica engines, with checksum-based hot reload when a
// model file is retrained in place.
//
// Serve one or more .gmod models:
//
//	hpacml-serve -addr :8080 -model binomial=models/binomial.gmod \
//	    -max-batch 32 -max-delay 2ms -workers 2 -reload 2s
//
// Servers started with -f32 run inference in single precision (see
// the f32(on) directive clause).
//
// Applications reach a hosted model from their own annotated regions by
// swapping the model path for a model URI — model("http://host:8080/binomial")
// — which selects the runtime's remote engine (with accurate-path
// fallback) instead of in-process inference; see examples/remote.
//
// The server also hosts capture ingest: -capture name=path registers a
// server-owned sharded .gh5 database behind POST /v1/capture, and
// collection regions feed it by writing the matching URI in their db()
// clause — db("http://host:8080/name") — so many distributed ranks
// build one training database; see examples/capture.
//
// With -retrain-every N (or -retrain-max-age) the server closes the
// loop: a continuous-learning controller (internal/learner) watches
// each capture database, and once N new rows (training samples) have
// been ingested it snapshots them, retrains a candidate from the
// published weights in the background, shadow-gates it on held-out
// captures (reject unless candidate error <= published error +
// -retrain-rtol), and publishes only passing candidates through the
// checksum hot-reload — recording every attempt in a .lineage.json
// sidecar served by /v1/models.
// -learn model=db pairs a model with its capture feed (auto-paired
// when exactly one of each is registered); POST
// /v1/models/{name}/rollback restores the parent generation. Any
// collection region feeds the loop, e.g. hpacml-collect -db
// http://host:8080/name.
//
// Observability: GET /metrics serves the Prometheus text exposition of
// the serving pipeline (request/batch/queue/latency/reload/capture and
// trust-router series plus build info), /healthz reports build and
// uptime, and every request carries an X-Request-ID (honored from the
// client or minted) that shows up in structured logs and error bodies.
// -log-level debug logs every request with its per-stage timings;
// -slow-request bounds the warn threshold; -pprof-addr opens a
// localhost-only admin listener with net/http/pprof and a second
// /metrics. -version prints build metadata and exits.
//
// The server exits 0 on SIGINT/SIGTERM after draining queued requests —
// the clean shutdown the CI smoke step asserts.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/h5"
	"repro/internal/learner"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// modelFlags collects repeated -model name=path[,path2,...][:in:out]
// values. A comma-separated path list registers a deep-ensemble model
// set: the first path is the primary, the rest are ensemble members,
// and the server responds with the member-mean prediction.
type modelFlags []serve.ModelSpec

func (m *modelFlags) String() string { return fmt.Sprintf("%v", []serve.ModelSpec(*m)) }

func (m *modelFlags) Set(v string) error {
	name, rest, ok := strings.Cut(v, "=")
	if !ok || name == "" || rest == "" {
		return fmt.Errorf("want name=path[,path2,...][:in:out], got %q", v)
	}
	spec := serve.ModelSpec{Name: name, Path: rest}
	if parts := strings.Split(rest, ":"); len(parts) == 3 {
		spec.Path = parts[0]
		if _, err := fmt.Sscanf(parts[1]+" "+parts[2], "%d %d", &spec.In, &spec.Out); err != nil {
			return fmt.Errorf("bad dims in %q: %v", v, err)
		}
	}
	if members := strings.Split(spec.Path, ","); len(members) > 1 {
		for _, p := range members {
			if p == "" {
				return fmt.Errorf("empty ensemble member path in %q", v)
			}
		}
		spec.Path = members[0]
		spec.Ensemble = members[1:]
	}
	*m = append(*m, spec)
	return nil
}

// learnFlags collects repeated -learn model=db values pairing a served
// model with the capture database that retrains it.
type learnFlags []learnPair

type learnPair struct{ model, db string }

func (l *learnFlags) String() string { return fmt.Sprintf("%v", []learnPair(*l)) }

func (l *learnFlags) Set(v string) error {
	model, db, ok := strings.Cut(v, "=")
	if !ok || model == "" || db == "" {
		return fmt.Errorf("want model=db, got %q", v)
	}
	*l = append(*l, learnPair{model: model, db: db})
	return nil
}

// captureFlags collects repeated -capture name=path values.
type captureFlags []serve.CaptureSpec

func (c *captureFlags) String() string { return fmt.Sprintf("%v", []serve.CaptureSpec(*c)) }

func (c *captureFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*c = append(*c, serve.CaptureSpec{Name: name, Path: path})
	return nil
}

func main() {
	var models modelFlags
	flag.Var(&models, "model", "model to serve as name=path[,path2,...][:in:out]; repeatable. Comma-separated paths form a deep-ensemble model set; dims are inferred from dense-first .gmod files")
	var captures captureFlags
	flag.Var(&captures, "capture", "capture database to ingest into as name=path; repeatable. Collection regions reach it with db(\"http://host:port/name\")")
	captureShard := flag.Int("capture-shard-records", 0, "rotate each capture database to a fresh shard every N ingested records (0 = single file)")
	addr := flag.String("addr", ":8080", "listen address")
	maxBatch := flag.Int("max-batch", 32, "most rows in one engine call: longer requests are cut into ranges of this size, shorter ones coalesce up to it")
	maxDelay := flag.Duration("max-delay", 2*time.Millisecond, "max wait for a batch to fill before cutting it")
	queueCap := flag.Int("queue", 0, "most rows waiting per model (0 = 8*max-batch); overflow rejects with 429")
	workers := flag.Int("workers", 2, "replica engines per model")
	reload := flag.Duration("reload", 2*time.Second, "model-file checksum poll interval for hot reload (0 disables)")
	f32 := flag.Bool("f32", false, "run inference in single precision: model weights convert to float32 once at load and batches skip the float64 round trip (unsupported models stay float64)")
	int8Flag := flag.Bool("int8", false, "run inference through the quantized int8 path: each model's .quant calibration sidecar (written by hpacml-quant) is loaded beside its .gmod; models without a gate-passing sidecar stay in wide precision")
	logLevel := flag.String("log-level", "info", "log verbosity: debug (per-request lines), info, warn, or error")
	slowReq := flag.Duration("slow-request", 0, "log requests slower than this at warn even below -log-level debug (0 = the handler default, 250ms)")
	pprofAddr := flag.String("pprof-addr", "", "admin listen address for net/http/pprof profiling and a second /metrics endpoint (empty disables; bind it to localhost)")
	version := flag.Bool("version", false, "print version and exit")

	var learns learnFlags
	flag.Var(&learns, "learn", "pair a model with its capture feed as model=db for continuous learning; repeatable (default: auto-pair when exactly one -model and one -capture are given)")
	retrainEvery := flag.Int("retrain-every", 0, "retrain a candidate once this many new captured rows (training samples) have been ingested since the last attempt (0 disables the count trigger)")
	retrainMaxAge := flag.Duration("retrain-max-age", 0, "retrain once any pending captured row is this old, regardless of count (0 disables the age trigger)")
	retrainMin := flag.Int("retrain-min", 0, "minimum total captured rows (training samples) before any retrain (0 = learner default, 8)")
	retrainInterval := flag.Duration("retrain-interval", 5*time.Second, "continuous-learning trigger poll interval")
	retrainRtol := flag.Float64("retrain-rtol", 0.05, "shadow gate slack: publish a candidate iff its held-out relative error <= the published model's + this")
	retrainHoldout := flag.Float64("retrain-holdout", 0.25, "fraction of the capture snapshot held out for the shadow gate (never trained on)")
	retrainEpochs := flag.Int("retrain-epochs", 20, "training epochs per retrain (warm-started from the published weights)")

	flag.Parse()

	if *version {
		fmt.Println(telemetry.VersionString("hpacml-serve"))
		return
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fatal(fmt.Errorf("bad -log-level %q: %w", *logLevel, err))
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	if len(models) == 0 && len(captures) == 0 {
		fmt.Fprintln(os.Stderr, "hpacml-serve: at least one -model name=path (or -capture name=path) is required")
		flag.Usage()
		os.Exit(2)
	}
	build := telemetry.Build()
	log.Info("hpacml-serve starting", "version", build.Version, "revision", build.Revision, "go", build.GoVersion)
	for i := range captures {
		captures[i].ShardRecords = *captureShard
	}
	if *f32 {
		for i := range models {
			models[i].F32 = true
		}
	}
	if *int8Flag {
		for i := range models {
			models[i].I8 = true
		}
	}
	s, err := serve.NewServer(serve.Config{
		MaxBatch:       *maxBatch,
		MaxDelay:       *maxDelay,
		QueueCap:       *queueCap,
		Workers:        *workers,
		ReloadInterval: *reload,
		CaptureDBs:     captures,
	}, models...)
	if err != nil {
		fatal(err)
	}

	handlerOpts := []serve.HandlerOption{serve.WithLogger(log)}
	if *slowReq > 0 {
		handlerOpts = append(handlerOpts, serve.WithSlowRequest(*slowReq))
	}

	// Continuous learning: pair each model with its capture feed and
	// hand the controller the server's snapshot/reload hooks. The
	// controller owns the background retrain goroutine; the handler gets
	// it for /v1/models lineage, /v1/stats learners, and rollback.
	var ctl *learner.Controller
	if *retrainEvery > 0 || *retrainMaxAge > 0 {
		pairs := learns
		if len(pairs) == 0 {
			if len(models) == 1 && len(captures) == 1 {
				pairs = learnFlags{{model: models[0].Name, db: captures[0].Name}}
			} else {
				fatal(fmt.Errorf("-retrain-every/-retrain-max-age need explicit -learn model=db pairs unless exactly one -model and one -capture are registered"))
			}
		}
		specByName := make(map[string]serve.ModelSpec, len(models))
		for _, spec := range models {
			specByName[spec.Name] = spec
		}
		dbByName := make(map[string]bool, len(captures))
		for _, cs := range captures {
			dbByName[cs.Name] = true
		}
		var pols []learner.Policy
		for _, pr := range pairs {
			spec, ok := specByName[pr.model]
			if !ok {
				fatal(fmt.Errorf("-learn %s=%s names an unregistered model", pr.model, pr.db))
			}
			if !dbByName[pr.db] {
				fatal(fmt.Errorf("-learn %s=%s names an unregistered capture db", pr.model, pr.db))
			}
			model, db := pr.model, pr.db
			pols = append(pols, learner.Policy{
				Model:        model,
				Paths:        append([]string{spec.Path}, spec.Ensemble...),
				RetrainEvery: *retrainEvery,
				MaxAge:       *retrainMaxAge,
				MinRecords:   *retrainMin,
				HoldoutFrac:  *retrainHoldout,
				Rtol:         *retrainRtol,
				Train:        nn.TrainConfig{Epochs: *retrainEpochs},
				Snapshot:     func() (*h5.File, error) { return s.SnapshotCaptureDB(db) },
				Reload:       func() error { return s.ReloadModel(model) },
			})
			log.Info("continuous learning enabled", "model", model, "capture_db", db,
				"retrain_every", *retrainEvery, "max_age", *retrainMaxAge, "rtol", *retrainRtol)
		}
		var lerr error
		ctl, lerr = learner.New(learner.Config{
			Interval: *retrainInterval,
			Logger:   log,
			Metrics:  s.Metrics(),
		}, pols...)
		if lerr != nil {
			fatal(lerr)
		}
		handlerOpts = append(handlerOpts, serve.WithLearner(ctl))
	}
	httpSrv := &http.Server{Addr: *addr, Handler: serve.NewHandler(s, handlerOpts...)}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	if *pprofAddr != "" {
		// The admin mux is separate from the serving mux on purpose:
		// pprof exposes heap contents and must never ride a port that is
		// reachable by inference clients. Explicit registrations, not
		// http.DefaultServeMux, so nothing else leaks onto the port.
		admin := http.NewServeMux()
		admin.HandleFunc("/debug/pprof/", pprof.Index)
		admin.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		admin.HandleFunc("/debug/pprof/profile", pprof.Profile)
		admin.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		admin.HandleFunc("/debug/pprof/trace", pprof.Trace)
		admin.Handle("/metrics", telemetry.Handler(s.Metrics()))
		go func() {
			log.Info("admin endpoint listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, admin); err != nil {
				log.Error("admin endpoint failed", "addr", *pprofAddr, "err", err)
			}
		}()
	}
	uriHost := *addr
	if strings.HasPrefix(uriHost, ":") {
		uriHost = "<this-host>" + uriHost
	}
	for _, info := range s.Models() {
		// The model-URI attribute is the annotation form regions use to
		// execute against this server: the same clause as the local
		// case, with the path swapped for the URI (the runtime's remote
		// engine takes it from there).
		log.Info("serving model",
			"model", info.Name, "path", info.Path,
			"in", info.InDim, "out", info.OutDim,
			"replicas", info.Replicas, "ensemble", info.Ensemble,
			"model_uri", fmt.Sprintf("http://%s/%s", uriHost, info.Name))
	}
	for _, cs := range s.CaptureSnapshot() {
		// The db-URI attribute is what collection regions write in their
		// db() clause to feed this database.
		log.Info("ingesting capture db",
			"db", cs.Name, "path", cs.Path,
			"db_uri", fmt.Sprintf("http://%s/%s", uriHost, cs.Name))
	}
	log.Info("listening", "addr", *addr, "max_batch", *maxBatch, "max_delay", *maxDelay)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		log.Info("draining", "signal", sig.String())
	}
	// The learner stops first: its Stop hook cancels any in-flight
	// training at the next minibatch, and a candidate interrupted here
	// is never gated or published — SIGTERM cannot ship a half-vetted
	// model.
	if ctl != nil {
		ctl.Close()
	}
	// Shutdown (not Close) lets handlers blocked in Infer write their
	// responses as the workers drain — no accepted request loses its
	// reply. The coalescer's own drain follows.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Error("shutdown", "err", err)
	}
	if err := s.Close(); err != nil {
		fatal(err)
	}
	for _, snap := range s.Snapshot() {
		log.Info("model served",
			"model", snap.Name, "completed", snap.Completed,
			"batches", snap.Batches, "mean_batch", snap.MeanBatch,
			"rejected", snap.Rejected)
	}
	for _, cs := range s.CaptureSnapshot() {
		log.Info("capture db ingested",
			"db", cs.Name, "records", cs.Records, "batches", cs.Batches,
			"shards", cs.Shards, "errors", cs.Errors)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hpacml-serve:", err)
	os.Exit(1)
}
