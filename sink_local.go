package hpacml

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/h5"
)

// LocalSink is the default capture backend: an asynchronous writer
// goroutine appending records to a sharded local .gh5 database, so the
// solver's accurate path pays only an enqueue — not the serialization
// and I/O the old inline writer charged every invocation.
//
//   - Capture hands the record to the bounded queue (captureQueue).
//     When the queue is full the configured backpressure policy
//     applies: block (default; never loses data) or drop (never stalls
//     the solve; counted in SinkStats.Dropped).
//   - The writer goroutine drains the queue, appending each record's
//     inputs/outputs/runtime as one atomic set to the current shard
//     (h5.ShardWriter rotates to a fresh file every ShardRecords
//     invocations and recovers partial tails on resume).
//   - A periodic timer flushes buffered bytes to the OS, bounding how
//     much a crash can lose; Flush is a queue barrier that reports any
//     asynchronous write error.
//
// The sink is safe for concurrent Capture/Flush from many goroutines.
type LocalSink struct {
	captureQueue

	writeErrors atomic.Int64
	shards      atomic.Int64

	w *h5.ShardWriter
}

// NewLocalSink opens (or resumes, with crash recovery) the sharded
// database at path and starts the writer goroutine. Open failures
// surface here, synchronously — exactly where the old inline writer
// reported them.
func NewLocalSink(path string, cfg CaptureConfig) (*LocalSink, error) {
	if path == "" {
		return nil, fmt.Errorf("hpacml: local sink needs a database path")
	}
	cfg = cfg.withDefaults()
	w, err := h5.NewShardWriter(path, cfg.ShardRecords, h5.SampleRecords)
	if err != nil {
		return nil, err
	}
	s := &LocalSink{w: w}
	s.initQueue(cfg.QueueCap, cfg.DropWhenFull)
	s.shards.Store(int64(w.Shards()))
	go s.run(cfg.FlushEvery)
	return s, nil
}

// run is the writer goroutine: drain records, serve flush barriers,
// flush periodically, and on queue close flush-and-close the shards.
func (s *LocalSink) run(flushEvery time.Duration) {
	defer close(s.done)
	var tickC <-chan time.Time
	if flushEvery > 0 {
		tick := time.NewTicker(flushEvery)
		tickC = tick.C
		defer tick.Stop()
	}
	for {
		select {
		case m, ok := <-s.queue:
			if !ok {
				s.finish()
				return
			}
			if m.rec != nil {
				s.write(m.rec)
			}
			if m.ack != nil {
				m.ack <- s.flushNow()
			}
		case <-tickC:
			s.periodicFlush()
		}
	}
}

// periodicFlush is the timer path: flush the shard and record any
// failure, but never consume the sticky error — only barriers
// (Flush/Close) report-and-clear it, so a failure between barriers is
// never silently absorbed by the ticker.
func (s *LocalSink) periodicFlush() {
	if err := s.w.Flush(); err != nil {
		s.setErr(err)
		s.flushErrors.Add(1)
		return
	}
	s.flushes.Add(1)
}

// write appends one record set to the current shard and releases the
// record, whether or not the append succeeded.
func (s *LocalSink) write(rec *CaptureRecord) {
	w, err := s.w.BeginSet()
	if err == nil {
		err = h5.AppendSample(w, rec.Region, rec.Inputs, rec.Outputs, rec.RuntimeNS)
	}
	rec.Release()
	s.shards.Store(int64(s.w.Shards()))
	if err != nil {
		s.writeErrors.Add(1)
		s.setErr(err)
	}
}

// flushNow flushes the current shard and returns the sticky error
// state (a past write failure is a flush failure: the barrier promises
// durability of everything before it).
func (s *LocalSink) flushNow() error {
	err := s.w.Flush()
	if err != nil {
		s.setErr(err)
	}
	if err = s.takeErr(err); err != nil {
		s.flushErrors.Add(1)
		return err
	}
	s.flushes.Add(1)
	return nil
}

// finish is the close path of the writer goroutine.
func (s *LocalSink) finish() {
	if err := s.w.Close(); err != nil {
		s.setErr(err)
		s.flushErrors.Add(1)
		return
	}
	s.flushes.Add(1)
}

// Close drains the queue, flushes, and closes the shard files. Later
// Capture calls fail with ErrSinkClosed; Close is idempotent.
func (s *LocalSink) Close() error { return s.shutdown() }

// SinkStats snapshots the sink's accounting.
func (s *LocalSink) SinkStats() SinkStats {
	st := s.queueStats()
	st.WriteErrors = s.writeErrors.Load()
	st.Shards = s.shards.Load()
	return st
}
