// Package serve is the HPAC-ML surrogate inference server: the
// concurrent-caller execution path the embedded programming model lacks.
//
// Region.ExecuteBatch amortizes bridge and model-call overhead only when
// one caller already holds a batch of invocations in application memory.
// A serving deployment has two other shapes: simulation ranks that each
// send a slab of rows (a frame that is already a tensor), and many
// independent callers carrying a single invocation each. This package
// serves both through one queue whose unit is a row range of a
// caller-owned slab:
//
//   - A request's rows enter the bounded per-model queue as ranges of at
//     most MaxBatch rows — views of the decoded request and of the
//     response slab, never copies — at most 64 rows of one request at a
//     time. More than QueueCap rows waiting rejects immediately
//     (ErrQueueFull): explicit backpressure, never unbounded buffering.
//   - Worker goroutines drain the queue. A MaxBatch-row range is a batch
//     by itself and the engine runs directly on the caller's memory;
//     shorter ranges (Server.Infer, a frame's tail) are stacked across
//     requests in a per-replica staging slab until MaxBatch rows have
//     accumulated or MaxDelay has elapsed since the batch's first range
//     — the micro-batching coalescer.
//   - An engine is not safe for concurrent use, so each worker owns a
//     replica: its own hpacml.Engine (LocalEngine, or EnsembleEngine for
//     a member set), staging slabs and phase counters. Replicas share
//     the loaded model through the runtime's path-keyed model cache, and
//     the nn engine's pooled scratch buffers keep concurrent Forward
//     calls safe. The bridge (Region) is not involved: it maps
//     application memory to tensors, and the server already holds one.
//
// Models are named entries in a registry loaded from .gmod files; a
// checksum poll detects retrained files, validates and publishes the new
// network once (hpacml.StoreModel), and swaps replicas onto it at their
// next batch boundary without dropping in-flight requests or re-reading
// disk per replica. A serving stats layer tracks per-model throughput,
// the batch-size histogram (the direct evidence coalescing happens),
// p50/p95/p99 latency, the compute precision actually serving, and the
// replicas' staging/engine phase counters in Region.Stats form.
//
// The server is also the capture-side aggregation point: a registry of
// server-owned sharded .gh5 databases (Config.CaptureDBs) behind the
// /v1/capture ingest endpoint, so many distributed collection ranks —
// regions whose db() clause carries an http(s):// URI — feed one
// training database with batch-atomic, flush-on-ack appends.
package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/h5"
	"repro/internal/serveapi"
	"repro/internal/telemetry"
)

// Sentinel errors returned by Server.Infer.
var (
	// ErrQueueFull is backpressure: the model's bounded queue is at
	// capacity and the request was rejected rather than buffered.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrServerClosed means the server is shutting down.
	ErrServerClosed = errors.New("serve: server closed")
	// ErrUnknownModel means the request named an unregistered model.
	ErrUnknownModel = errors.New("serve: unknown model")
	// ErrBadInput means the request's input vector does not match the
	// model's input width — a caller mistake, distinct from server-side
	// inference failures.
	ErrBadInput = errors.New("serve: bad input")
)

// Config is the batching and pooling policy shared by every model the
// server hosts.
type Config struct {
	// MaxBatch caps the rows of one engine call. A batch is cut as soon
	// as it reaches MaxBatch. Default 32.
	MaxBatch int
	// MaxDelay bounds how long the first request of a batch waits for
	// company before the batch is cut anyway. Default 2ms.
	MaxDelay time.Duration
	// QueueCap bounds the rows waiting in each model's queue;
	// submissions beyond it fail with ErrQueueFull. Default 8 * MaxBatch.
	QueueCap int
	// Workers is the replica-pool size per model: how many engines serve
	// the shared queue concurrently. Default 2.
	Workers int
	// ReloadInterval is how often model files are re-checksummed for
	// hot reload. Zero disables background polling (CheckReload still
	// works on demand).
	ReloadInterval time.Duration

	// CaptureDBs registers server-owned capture databases for the
	// /v1/capture ingest endpoint: distributed collection ranks POST
	// their capture batches here and the server appends them to sharded
	// .gh5 files. Empty leaves ingest disabled.
	CaptureDBs []CaptureSpec

	// Metrics, when set, is the telemetry registry the server
	// registers its metric families on; the HTTP handler exposes it at
	// GET /metrics. Families are registered once, so give each server
	// its own registry. Nil gets a fresh private one.
	Metrics *telemetry.Registry

	// batchHook, when set, runs before each batch's engine call with the
	// batch's row count. Test seam for stalling workers
	// deterministically.
	batchHook func(model string, rows int)
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 8 * c.MaxBatch
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	return c
}

// Server hosts a registry of surrogate models behind micro-batching
// queues. All methods are safe for concurrent use.
type Server struct {
	cfg Config
	// rangeRows is the most rows one queued range carries and inflight
	// the most ranges one request keeps outstanding.
	rangeRows, inflight int

	models map[string]*model // immutable after NewServer
	ingest *ingest           // nil when capture ingest is disabled
	met    *metrics
	start  time.Time

	// mu serializes queue sends against Close closing the queues.
	mu     sync.RWMutex
	closed bool

	wg       sync.WaitGroup
	stopPoll chan struct{}
	pollDone chan struct{}
}

// NewServer builds the registry (loading every model to resolve and
// validate its dimensions), spins up each model's replica pool, and
// starts the hot-reload poller when configured. Every replica runs one
// zero-input warmup inference so model-load errors surface here, not on
// the first request.
func NewServer(cfg Config, specs ...ModelSpec) (*Server, error) {
	if len(specs) == 0 && len(cfg.CaptureDBs) == 0 {
		return nil, fmt.Errorf("serve: no models registered")
	}
	cfg = cfg.withDefaults()
	rangeRows := min(cfg.MaxBatch, cfg.QueueCap) // a range QueueCap could never admit would be refused forever
	s := &Server{
		cfg:       cfg,
		rangeRows: rangeRows,
		inflight:  max(1, maxInflightRows/rangeRows),
		models:    make(map[string]*model, len(specs)),
		met:       newMetrics(cfg.Metrics),
		start:     time.Now(),
		stopPoll:  make(chan struct{}),
		pollDone:  make(chan struct{}),
	}
	closeAll := func() {
		for _, m := range s.models {
			m.closeReplicas()
		}
		if s.ingest != nil {
			s.ingest.close()
		}
	}
	if len(cfg.CaptureDBs) > 0 {
		g, err := newIngest(cfg.CaptureDBs, s.met)
		if err != nil {
			return nil, err
		}
		s.ingest = g
	}
	for _, spec := range specs {
		if _, dup := s.models[spec.Name]; dup {
			closeAll()
			return nil, fmt.Errorf("serve: model %q registered twice", spec.Name)
		}
		m, err := newModel(spec, cfg, s.met)
		if err != nil {
			closeAll()
			return nil, err
		}
		s.models[m.name] = m
	}
	s.registerServerFuncs()
	for _, m := range s.models {
		for _, rep := range m.replicas {
			s.wg.Add(1)
			go s.worker(m, rep)
		}
	}
	if cfg.ReloadInterval > 0 {
		go s.pollReload()
	} else {
		close(s.pollDone)
	}
	return s, nil
}

// Infer runs one invocation of the named model: in must hold the model's
// input-feature count and the returned slice holds its output features.
// The call blocks until a worker has served the request as part of a
// coalesced batch; it fails fast with ErrQueueFull under backpressure.
func (s *Server) Infer(modelName string, in []float64) ([]float64, error) {
	return s.inferRow(modelName, in, nil)
}

// inferRow is Infer plus trace plumbing: the row is a one-row slab, and
// its queue-wait and forward durations fold into sp when it is non-nil.
func (s *Server) inferRow(modelName string, in []float64, sp *span) ([]float64, error) {
	m, err := s.lookup(modelName, len(in))
	if err != nil {
		return nil, err
	}
	out := make([]float64, m.out)
	if err := s.inferSlab(m, in, out, 1, sp); err != nil {
		return nil, err
	}
	return out, nil
}

// lookup resolves a request's model and checks its rows' input width.
func (s *Server) lookup(modelName string, width int) (*model, error) {
	m := s.models[modelName]
	if m == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, modelName)
	}
	return m, m.checkWidth(width)
}

// checkWidth refuses a row that is not the model's input width.
func (m *model) checkWidth(width int) error {
	if width != m.in {
		return fmt.Errorf("%w: model %q wants %d input features, got %d", ErrBadInput, m.name, m.in, width)
	}
	return nil
}

// Metrics returns the server's telemetry registry — the one the
// handler serves at GET /metrics — so embedders (an admin mux, tests)
// can scrape or extend it.
func (s *Server) Metrics() *telemetry.Registry { return s.met.reg }

// Capture appends a batch of capture records to the named registered
// capture database, returning how many records were accepted. A nil
// error means the whole batch (with a flush behind it) is durable; on
// error the accepted count says how many leading records landed.
// Requests during or after shutdown fail with ErrServerClosed so
// clients never write into a closing database.
func (s *Server) Capture(db string, recs []serveapi.CaptureRecord) (int, error) {
	if s.ingest == nil {
		return 0, fmt.Errorf("%w: capture ingest not enabled", ErrUnknownDB)
	}
	// The read lock holds Close's writer teardown off until in-flight
	// batches finish, mirroring the Infer queue-send guard.
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0, ErrServerClosed
	}
	return s.ingest.capture(db, recs)
}

// CaptureSnapshot returns the per-database ingest stats, nil when
// capture ingest is disabled.
func (s *Server) CaptureSnapshot() []serveapi.CaptureSnapshot {
	if s.ingest == nil {
		return nil
	}
	return s.ingest.snapshot()
}

// Models lists the registry in name order.
func (s *Server) Models() []ModelInfo {
	names := make([]string, 0, len(s.models))
	for n := range s.models {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]ModelInfo, 0, len(names))
	for _, n := range names {
		out = append(out, s.models[n].info())
	}
	return out
}

// Snapshot returns the per-model serving stats in name order.
func (s *Server) Snapshot() []ModelSnapshot {
	infos := s.Models()
	out := make([]ModelSnapshot, 0, len(infos))
	for _, info := range infos {
		m := s.models[info.Name]
		out = append(out, m.stats.snapshot(info))
	}
	return out
}

// Uptime reports how long the server has been accepting traffic.
func (s *Server) Uptime() time.Duration { return time.Since(s.start) }

// CheckReload re-checksums every model file now, arming replica swaps
// for any that changed. It returns the first validation failure (a
// missing file, an unloadable model, or a dimension change, which the
// slabs sized by the registered widths could not hold); failed models
// keep serving their current weights.
func (s *Server) CheckReload() error {
	var first error
	for _, info := range s.Models() {
		if err := s.models[info.Name].checkReload(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ReloadModel re-checksums one model's files now, arming replica swaps
// when they changed — the publish hook the continuous-learning
// controller calls after installing a gated candidate, so the new
// generation goes live at the next batch boundary instead of waiting
// for the poll.
func (s *Server) ReloadModel(name string) error {
	m := s.models[name]
	if m == nil {
		return fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	return m.checkReload()
}

// SnapshotCaptureDB takes a set-atomic read snapshot of the named
// capture database — the learner's retrain input. The snapshot is
// taken under the database's writer mutex with a flush first, so it
// always lands on a record-set boundary: never half a training sample.
func (s *Server) SnapshotCaptureDB(db string) (*h5.File, error) {
	if s.ingest == nil {
		return nil, fmt.Errorf("%w: capture ingest not enabled", ErrUnknownDB)
	}
	return s.ingest.snapshotDB(db)
}

// pollReload is the background hot-reload loop.
func (s *Server) pollReload() {
	defer close(s.pollDone)
	t := time.NewTicker(s.cfg.ReloadInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.CheckReload() // per-model errors are counted in stats
		case <-s.stopPoll:
			return
		}
	}
}

// Close stops accepting requests, lets the workers drain everything
// already queued, and waits for them to exit. In-flight and queued
// ranges complete normally; only later submissions — a new request, or
// the not-yet-enqueued remainder of a multi-range one — see
// ErrServerClosed.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for _, m := range s.models {
		close(m.queue)
	}
	s.mu.Unlock()
	close(s.stopPoll)
	s.wg.Wait()
	<-s.pollDone
	for _, m := range s.models {
		m.closeReplicas()
	}
	if s.ingest != nil {
		return s.ingest.close()
	}
	return nil
}
