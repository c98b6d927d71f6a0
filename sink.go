package hpacml

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bridge"
	"repro/internal/directive"
	"repro/internal/tensor"
)

// Sink is the pluggable capture backend of a Region — the data-
// collection twin of Engine. During accurate execution of a
// collection-mode region, the runtime gathers the invocation's inputs
// and outputs in the model layout and hands them to the sink as one
// CaptureRecord; the sink decides where and how they land — appended
// asynchronously to sharded local .gh5 files (LocalSink, the default),
// shipped in batches to a running hpacml-serve ingest endpoint
// (RemoteSink, selected by an http(s):// db URI), or filtered through
// a sampling policy first (SamplingSink, selected by the capture(...)
// directive clause). Custom sinks plug in with the WithSink option.
//
// Unlike a Region, a Sink IS safe for concurrent use: several replica
// regions (or solver ranks in one process) may share one sink, which
// is how many producers feed one training database.
type Sink interface {
	// Capture submits one invocation's training sample. From this call
	// on the sink owns the record: the runtime gathers into tensors of
	// its own, never views of application memory, so an asynchronous
	// sink may write them after the solver has moved on, with no copy.
	// Those tensors come from the region's record pool. A sink that is
	// done with a record — written, shipped, dropped or filtered out —
	// calls rec.Release to hand its storage back for the next capture,
	// and must not touch the record after that. A sink that never
	// releases keeps the record for as long as it likes and leaves it
	// to the garbage collector. If Capture returns an error the sink
	// has not taken the record, and the runtime releases it. Capture
	// returns quickly — backpressure is handled by the sink's
	// block-or-drop policy, not by failing the solver.
	Capture(rec *CaptureRecord) error

	// Flush is a barrier: it returns once every record captured before
	// the call is durably handed to the backend (written and flushed
	// for local sinks, acknowledged by the server for remote ones),
	// reporting any write error the asynchronous path has hit.
	Flush() error

	// Close flushes and releases the sink. Capturing after Close is an
	// error.
	Close() error
}

// CaptureRecord is one region invocation's training sample: the
// model-layout input and output tensors and the accurate path's
// runtime. It is exactly what one collection invocation used to append
// to the database inline — inputs, outputs, runtime_ns — kept together
// so the sink can write it atomically (a crash or a mid-batch failure
// never leaves inputs without outputs).
type CaptureRecord struct {
	Region    string
	Inputs    *tensor.Tensor
	Outputs   *tensor.Tensor
	RuntimeNS float64

	// slot is the pooled storage behind a record the runtime gathered;
	// nil for a record built by hand.
	slot *captureSlot
}

// Release hands a record the runtime gathered back to its region's
// record pool, so a later capture reuses its tensors instead of
// allocating new ones. The caller must not touch the record, or the
// tensors it held, afterwards. Release is idempotent, safe from any
// goroutine, and a no-op on a record built by hand.
func (rec *CaptureRecord) Release() {
	if rec.slot != nil {
		rec.slot.release()
	}
}

// captureSlot is one reusable capture record of a region: the input
// and output tensors with the gather stagers bindStagers bound to them
// once, when the slot was made. It keeps its own pointers to the
// tensors, so a sink that reassigns the exported fields of rec cannot
// change what the next capture gathers into.
type captureSlot struct {
	rec         CaptureRecord
	in, out     *tensor.Tensor
	inSt, outSt []*bridge.Stager
	pool        *sync.Pool
	// releases counts Release calls since the slot was handed out; the
	// first one returns it to pool.
	releases atomic.Int32
}

// release returns the slot to its pool on the first call since the
// slot was handed out.
func (s *captureSlot) release() {
	if s.releases.Add(1) == 1 {
		s.pool.Put(s)
	}
}

// SinkStats is a sink's own accounting, surfaced through
// Region.CaptureStats and folded into Stats (CaptureDrops,
// CaptureFlushes, RemoteCaptures) for the results schema and
// /v1/stats.
type SinkStats struct {
	// Captured counts records accepted into the sink (enqueued, not
	// necessarily durable yet — Flush for that).
	Captured int64
	// Dropped counts records rejected by backpressure (full queue under
	// the drop policy) or lost to a failed remote batch.
	Dropped int64
	// Sampled counts records filtered out by a sampling policy — a
	// deliberate thinning, counted separately from Dropped.
	Sampled int64
	// Flushes counts completed flushes (explicit barriers and the
	// periodic timer); FlushErrors counts flushes that failed.
	Flushes     int64
	FlushErrors int64
	// WriteErrors counts records the asynchronous writer failed to
	// persist.
	WriteErrors int64
	// Shards is how many shard files the local database spans.
	Shards int64
	// RemoteBatches / RemoteRecords count successful ingest POSTs and
	// the records they carried.
	RemoteBatches int64
	RemoteRecords int64
}

// Failed reports whether the sink lost or failed to persist any
// record — what a collection driver should turn into a non-zero exit.
func (s SinkStats) Failed() bool {
	return s.Dropped > 0 || s.FlushErrors > 0 || s.WriteErrors > 0
}

// sinkStatser is implemented by the built-in sinks; Region folds the
// counters into its Stats snapshot.
type sinkStatser interface{ SinkStats() SinkStats }

// ErrSinkClosed is returned by Capture on a closed sink.
var ErrSinkClosed = errors.New("hpacml: capture sink closed")

// CaptureConfig tunes the capture pipeline a region builds for its
// db() reference. The zero value is the asynchronous default: a
// single-shard local database behind a 256-record blocking queue with
// a 1-second periodic flush, no sampling.
type CaptureConfig struct {
	// ShardRecords rotates the local database to a fresh shard file
	// after this many captured invocations; 0 keeps a single file.
	// Remote sinks ignore it — the server owns its databases, so
	// rotation there is the ingest registry's policy (hpacml-serve
	// -capture-shard-records).
	ShardRecords int
	// QueueCap bounds the asynchronous queue in records (default 256).
	QueueCap int
	// DropWhenFull switches backpressure from blocking the solver to
	// dropping the record (counted in SinkStats.Dropped). Blocking
	// never loses data; dropping never stalls the solve.
	DropWhenFull bool
	// FlushEvery is the periodic flush interval of the writer
	// goroutine (default 1s; negative disables the timer, leaving
	// explicit Flush/Close as the only barriers).
	FlushEvery time.Duration
	// BatchRecords is the remote sink's records-per-POST flush unit
	// (default 16).
	BatchRecords int
	// Every / Frac impose a sampling policy (see SamplingSink): keep
	// every N-th record, or each record with probability Frac. Zero
	// values mean "no override" — the capture(...) directive clause
	// applies instead, if present.
	Every int
	Frac  float64
	// Seed drives the frac policy's RNG (0 picks a fixed default, so
	// runs are reproducible by default).
	Seed int64
}

const (
	defaultCaptureQueue = 256
	defaultCaptureFlush = time.Second
	defaultCaptureBatch = 16
)

// withDefaults fills unset tuning fields.
func (c CaptureConfig) withDefaults() CaptureConfig {
	if c.QueueCap <= 0 {
		c.QueueCap = defaultCaptureQueue
	}
	if c.FlushEvery == 0 {
		c.FlushEvery = defaultCaptureFlush
	}
	if c.BatchRecords <= 0 {
		c.BatchRecords = defaultCaptureBatch
	}
	return c
}

// NewSink builds the capture pipeline for a db reference under cfg: a
// LocalSink for a plain path, a RemoteSink for an http(s):// URI,
// wrapped in a SamplingSink when cfg carries a sampling policy. This
// is exactly what a Region does lazily on its first collection; it is
// exported so drivers can build the same pipeline around a sink they
// want to own (e.g. one shared by several regions).
func NewSink(dbRef string, cfg CaptureConfig) (Sink, error) {
	var (
		s   Sink
		err error
	)
	if directive.IsRemoteDB(dbRef) {
		s, err = NewRemoteSink(dbRef, cfg)
	} else {
		s, err = NewLocalSink(dbRef, cfg)
	}
	if err != nil {
		return nil, err
	}
	if cfg.Every > 1 || (cfg.Frac > 0 && cfg.Frac < 1) {
		s = NewSamplingSink(s, cfg)
	}
	return s, nil
}

// WithSink injects a capture sink, overriding the pipeline the region
// would derive from its db() clause. The region does not take
// ownership: Close flushes but never closes an injected sink, so one
// sink may serve several regions concurrently.
func WithSink(s Sink) Option {
	return func(r *Region) error {
		if s == nil {
			return fmt.Errorf("hpacml: WithSink(nil)")
		}
		r.sink = s
		r.sinkOwned = false
		return nil
	}
}

// WithCapture tunes the capture pipeline the region builds lazily from
// its db() clause (shard rotation, queue bound, block-or-drop policy,
// flush cadence, sampling). Non-zero sampling fields override the
// directive's capture(...) clause; everything else composes with it.
func WithCapture(cfg CaptureConfig) Option {
	return func(r *Region) error {
		if cfg.Every < 0 || cfg.Frac < 0 || cfg.Frac > 1 {
			return fmt.Errorf("hpacml: invalid capture sampling (every %d, frac %g)", cfg.Every, cfg.Frac)
		}
		r.captureCfg = cfg
		return nil
	}
}
