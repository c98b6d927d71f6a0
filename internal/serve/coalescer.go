package serve

import (
	"context"
	"fmt"
	"time"

	"repro/internal/tensor"
)

// rowRange is the coalescer's unit: n consecutive rows of a slab the
// caller owns. in holds the rows' input features and out receives their
// outputs, both row-major views into the caller's buffers (a decoded
// frame and its response slab, or Server.Infer's vectors) — the worker
// reads in and writes out only between the enqueue and the done send,
// and the caller touches neither in that window, so the views need no
// lock and no copy. Ranges travel by value: a request allocates its
// completion channel once, not one record per range.
type rowRange struct {
	in, out []float64
	n       int
	enq     time.Time
	done    chan<- rangeDone
}

// rangeDone is a served range's completion: the batch's outcome and the
// two stage durations the request's span reports.
type rangeDone struct {
	err     error
	queued  time.Duration // enqueue -> batch cut
	forward time.Duration // the batch's engine phase, staging copies included
}

// maxInflightRows bounds how many rows of one request may be queued or
// in service at once (at least one range, when MaxBatch is larger). A
// request keeps every replica busy at this depth without one huge frame
// taking the whole bounded queue from the other callers.
const maxInflightRows = 64

// inferSlab serves rows rows of in (row-major, m.in wide) into out
// (m.out wide) on the calling goroutine: it feeds the model queue
// ranges of at most s.rangeRows rows, keeps at most s.inflight of them
// outstanding, and returns only when every range it enqueued has come
// back — so the caller may reuse or pool both slabs the moment this
// returns, whatever the outcome. The first failure (a refused range, a
// failed batch, shutdown) stops further submissions; ranges admitted
// before it still complete. The rows it never submitted count as
// rejected after a refusal and as errors after any other failure, and
// observe counts the submitted ones, so the model's ok, error and
// rejected rows add up to the rows offered. Each served range's
// queue-wait and forward durations fold into sp when it is non-nil.
func (s *Server) inferSlab(m *model, in, out []float64, rows int, sp *span) error {
	// One slot per outstanding range: workers never block on it.
	done := make(chan rangeDone, min(s.inflight, (rows+s.rangeRows-1)/s.rangeRows))
	var first error
	next, outstanding := 0, 0
	for {
		for first == nil && next < rows && outstanding < s.inflight {
			n := min(s.rangeRows, rows-next)
			first = s.enqueue(m, rowRange{
				in:   in[next*m.in : (next+n)*m.in],
				out:  out[next*m.out : (next+n)*m.out],
				n:    n,
				enq:  time.Now(),
				done: done,
			})
			if first == nil {
				next += n
				outstanding++
			} else {
				m.stats.unsent(rows-next, first)
			}
		}
		if outstanding == 0 {
			return first
		}
		d := <-done
		outstanding--
		if sp != nil {
			sp.addRange(d.queued, d.forward)
		}
		if first == nil && d.err != nil {
			first = d.err
			m.stats.unsent(rows-next, first)
		}
	}
}

// enqueue admits one range to the model queue or refuses it. QueueCap
// bounds the rows waiting, so admission counts rows; the channel has a
// slot per row of capacity and every waiting range holds at least one
// row, so once the row count admits a range the send finds room.
func (s *Server) enqueue(m *model, rg rowRange) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrServerClosed
	}
	n := int64(rg.n)
	for {
		w := m.waiting.Load()
		if w+n > int64(s.cfg.QueueCap) {
			return fmt.Errorf("%w: model %q at capacity %d", ErrQueueFull, m.name, s.cfg.QueueCap)
		}
		if m.waiting.CompareAndSwap(w, w+n) {
			m.queue <- rg
			return nil
		}
	}
}

// worker is one replica's serving loop. A range of MaxBatch rows is a
// batch by itself; shorter ones (single invocations, a frame's tail)
// keep filling until MaxBatch rows have accumulated or MaxDelay has
// passed since the first arrived — whichever trips first cuts the
// batch. A range that would overflow the batch is carried whole to open
// the next one, never split. Workers exit once the queue is closed and
// drained, so Close never drops admitted work.
func (s *Server) worker(m *model, rep *replica) {
	defer s.wg.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	maxBatch := s.cfg.MaxBatch
	batch := make([]rowRange, 0, maxBatch)
	var carry rowRange
	carried := false
	for {
		first := carry
		if !carried {
			var ok bool
			if first, ok = <-m.queue; !ok {
				return
			}
			m.waiting.Add(-int64(first.n))
		}
		carried = false
		batch = append(batch[:0], first)
		rows := first.n
		if rows < maxBatch {
			timer.Reset(s.cfg.MaxDelay)
		fill:
			for rows < maxBatch {
				select {
				case rg, ok := <-m.queue:
					if !ok {
						break fill
					}
					m.waiting.Add(-int64(rg.n))
					if rows+rg.n > maxBatch {
						carry, carried = rg, true
						break fill
					}
					batch = append(batch, rg)
					rows += rg.n
				case <-timer.C:
					break fill
				}
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		}
		s.runBatch(m, rep, batch, rows)
	}
}

// runBatch serves one cut batch on the worker's replica and completes
// its ranges. A pending hot reload is applied first — the batch
// boundary is the only point where the single-threaded replica can
// safely swap models.
func (s *Server) runBatch(m *model, rep *replica, batch []rowRange, rows int) {
	var err error
	if gen := m.gen.Load(); gen != rep.gen {
		err = rep.reload(m, gen)
	}
	if s.cfg.batchHook != nil {
		s.cfg.batchHook(m.name, rows)
	}
	cut := time.Now()
	var ph batchPhases
	if err == nil {
		ph, err = rep.run(m, batch, rows)
	}
	end := time.Now()
	m.stats.observe(ph, batch, rows, cut, end, err)
	forward := end.Sub(cut)
	for _, rg := range batch {
		rg.done <- rangeDone{err: err, queued: cut.Sub(rg.enq), forward: forward}
	}
}

// batchPhases is one batch's time split: the staging copies into and
// out of the replica's slabs (zero for a batch of one range) and the
// engine call.
type batchPhases struct {
	toTensor, engine, fromTensor time.Duration
}

// run executes the engine over the batch's rows. A batch of one range
// runs on [n, in] / [n, out] views of the caller's own slabs — no copy
// in either direction. Several short ranges are stacked through the
// replica's [MaxBatch, in] staging slab; those copies are the serve
// path's whole bridge, returned as toTensor / fromTensor.
func (rep *replica) run(m *model, batch []rowRange, rows int) (batchPhases, error) {
	var ph batchPhases
	in, out := batch[0].in, batch[0].out
	staged := len(batch) > 1
	if staged {
		start := time.Now()
		in, out = rep.in[:rows*m.in], rep.out[:rows*m.out]
		at := 0
		for _, rg := range batch {
			at += copy(in[at:], rg.in)
		}
		ph.toTensor = time.Since(start)
	}

	start := time.Now()
	x, err := tensor.Wrap(in, rows, m.in)
	if err != nil {
		return ph, err
	}
	y, err := tensor.Wrap(out, rows, m.out)
	if err != nil {
		return ph, err
	}
	err = rep.engine.Infer(context.Background(), x, y)
	ph.engine = time.Since(start)
	if err != nil {
		return ph, fmt.Errorf("serve: model %q replica %d: %w", m.name, rep.idx, err)
	}

	if staged {
		start = time.Now()
		at := 0
		for _, rg := range batch {
			at += copy(rg.out, out[at:at+len(rg.out)])
		}
		ph.fromTensor = time.Since(start)
	}
	return ph, nil
}
