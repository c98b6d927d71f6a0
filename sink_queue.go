package hpacml

import (
	"sync"
	"sync/atomic"
)

// captureQueue is the bounded-queue front end shared by the built-in
// asynchronous sinks (LocalSink, RemoteSink): concurrent producers
// enqueue records under a block-or-drop backpressure policy, one
// consumer goroutine (owned by the embedding sink) drains them, and
// Flush is a FIFO barrier through the same channel. Close semantics,
// the sticky asynchronous error, and the shared counters live here so
// the two sinks cannot drift apart on lifecycle behavior.
type captureQueue struct {
	drop  bool
	queue chan sinkMsg

	// mu guards closed against concurrent Capture/Flush sends — the
	// serve.Server idiom: senders hold the read lock, close flips
	// closed under the write lock before closing the channel.
	mu     sync.RWMutex
	closed bool
	done   chan struct{}

	captured    atomic.Int64
	dropped     atomic.Int64
	flushes     atomic.Int64
	flushErrors atomic.Int64

	// errMu guards lastErr, the sticky first asynchronous failure
	// reported by the next barrier (Flush or Close).
	errMu   sync.Mutex
	lastErr error
}

// sinkMsg is one queue entry: a record to process, or (rec == nil) a
// flush barrier to acknowledge on ack. FIFO queue order is what makes
// the barrier correct: every record enqueued before the barrier is
// processed before the barrier is acknowledged.
type sinkMsg struct {
	rec *CaptureRecord
	ack chan error
}

// initQueue sets up the queue; the embedding sink starts its own
// consumer goroutine, which must close done when it exits.
func (q *captureQueue) initQueue(capacity int, drop bool) {
	q.drop = drop
	q.queue = make(chan sinkMsg, capacity)
	q.done = make(chan struct{})
}

// Capture enqueues one record under the configured backpressure
// policy: block (never lose data) or drop-and-count (never stall the
// solver). A dropped record is released; an enqueued one is the
// consumer's to release.
func (q *captureQueue) Capture(rec *CaptureRecord) error {
	q.mu.RLock()
	defer q.mu.RUnlock()
	if q.closed {
		return ErrSinkClosed
	}
	if q.drop {
		select {
		case q.queue <- sinkMsg{rec: rec}:
			q.captured.Add(1)
		default:
			q.dropped.Add(1)
			rec.Release()
		}
		return nil
	}
	q.queue <- sinkMsg{rec: rec}
	q.captured.Add(1)
	return nil
}

// Flush blocks until every record captured before the call is durably
// with the backend, returning any asynchronous failure hit since the
// last barrier.
func (q *captureQueue) Flush() error {
	q.mu.RLock()
	if q.closed {
		q.mu.RUnlock()
		return q.takeErr(nil)
	}
	ack := make(chan error, 1)
	q.queue <- sinkMsg{ack: ack}
	q.mu.RUnlock()
	return <-ack
}

// shutdown closes the queue once and waits for the consumer goroutine
// to drain and exit; idempotent.
func (q *captureQueue) shutdown() error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		<-q.done
		return q.takeErr(nil)
	}
	q.closed = true
	close(q.queue)
	q.mu.Unlock()
	<-q.done
	return q.takeErr(nil)
}

// setErr records the first asynchronous failure since the last
// barrier.
func (q *captureQueue) setErr(err error) {
	q.errMu.Lock()
	if q.lastErr == nil {
		q.lastErr = err
	}
	q.errMu.Unlock()
}

// takeErr returns the sticky error (or fallback), clearing it so one
// failure is reported once, on the next barrier.
func (q *captureQueue) takeErr(fallback error) error {
	q.errMu.Lock()
	defer q.errMu.Unlock()
	if q.lastErr != nil {
		err := q.lastErr
		q.lastErr = nil
		return err
	}
	return fallback
}

// queueStats snapshots the counters the queue owns.
func (q *captureQueue) queueStats() SinkStats {
	return SinkStats{
		Captured:    q.captured.Load(),
		Dropped:     q.dropped.Load(),
		Flushes:     q.flushes.Load(),
		FlushErrors: q.flushErrors.Load(),
	}
}
