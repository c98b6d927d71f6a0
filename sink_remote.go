package hpacml

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/directive"
	"repro/internal/serveapi"
	"repro/internal/serveclient"
)

// RemoteSink ships capture records to a running hpacml-serve ingest
// endpoint (/v1/capture) through the typed pooled client, so many
// distributed solver ranks feed one server-owned training database. A
// region selects it by writing an http(s):// URI in its db() clause —
//
//	ml(collect) in(x) out(y) db("http://head-node:8080/binomial")
//
// — where the URI's last path segment is the capture database the
// server registered and the rest is the server base URL, the same
// grammar the model() clause uses for remote inference.
//
// Records accumulate on a shipper goroutine and travel in batches of
// BatchRecords per POST (or whatever has accumulated when the periodic
// flush fires). The sink degrades gracefully when the server dies
// mid-run: the solve never fails — a failed batch is counted
// (FlushErrors, its unacknowledged records in Dropped, using the
// server-reported accepted prefix when one comes back) and collection
// continues, so a server restart resumes ingest with nothing corrupted
// on either side. Queue backpressure follows the same block-or-drop
// policy as LocalSink (captureQueue).
type RemoteSink struct {
	captureQueue

	client *serveclient.Client
	db     string
	batch  int

	remoteBatches atomic.Int64
	remoteRecords atomic.Int64
}

// DefaultCaptureTimeout bounds each ingest POST end-to-end, so a hung
// server degrades to counted drops instead of stalling the capture
// pipeline behind one request forever.
const DefaultCaptureTimeout = 30 * time.Second

// NewRemoteSink builds a remote capture sink from a db URI
// (http(s)://host[:port][/prefix...]/db-name).
func NewRemoteSink(uri string, cfg CaptureConfig) (*RemoteSink, error) {
	base, name, err := directive.SplitRemoteDB(uri)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &RemoteSink{
		client: serveclient.New(base, serveclient.WithTimeout(DefaultCaptureTimeout),
			serveclient.WithWire(serveclient.WireBinary)),
		db:    name,
		batch: cfg.BatchRecords,
	}
	s.initQueue(cfg.QueueCap, cfg.DropWhenFull)
	go s.run(cfg.FlushEvery)
	return s, nil
}

// run is the shipper goroutine: accumulate records, POST a batch when
// it reaches the batch size, a barrier demands it, the timer fires, or
// the queue closes.
func (s *RemoteSink) run(flushEvery time.Duration) {
	defer close(s.done)
	var tickC <-chan time.Time
	if flushEvery > 0 {
		tick := time.NewTicker(flushEvery)
		tickC = tick.C
		defer tick.Stop()
	}
	b := remoteBatch{
		wire: make([]serveapi.CaptureRecord, 0, s.batch),
		recs: make([]*CaptureRecord, 0, s.batch),
	}
	for {
		select {
		case m, ok := <-s.queue:
			if !ok {
				s.ship(&b)
				return
			}
			if m.rec != nil {
				b.wire = append(b.wire, wireCapture(m.rec))
				b.recs = append(b.recs, m.rec)
				if len(b.wire) >= s.batch {
					s.ship(&b)
				}
			}
			if m.ack != nil {
				s.ship(&b)
				m.ack <- s.takeErr(nil)
			}
		case <-tickC:
			s.ship(&b)
		}
	}
}

// remoteBatch is the shipper's pending batch: the wire records and the
// capture records whose tensors they alias.
type remoteBatch struct {
	wire []serveapi.CaptureRecord
	recs []*CaptureRecord
}

// ship POSTs the pending batch, then releases its records and empties
// it: once the POST returns, the batch has been encoded or dropped.
// Failures never propagate to the solver: unacknowledged records are
// counted as dropped (the server's accepted prefix, reported even on
// error, is not) and collection moves on — the graceful-degradation
// contract.
func (s *RemoteSink) ship(b *remoteBatch) {
	if len(b.wire) == 0 {
		s.flushes.Add(1)
		return
	}
	n, err := s.client.Capture(context.Background(), s.db, b.wire)
	if err != nil {
		s.flushErrors.Add(1)
		s.dropped.Add(int64(len(b.wire) - n))
		s.remoteRecords.Add(int64(n))
		s.setErr(fmt.Errorf("hpacml: remote capture to %s db %q: %w", s.client.Base(), s.db, err))
	} else {
		s.flushes.Add(1)
		s.remoteBatches.Add(1)
		s.remoteRecords.Add(int64(n))
	}
	for _, rec := range b.recs {
		rec.Release()
	}
	b.wire, b.recs = b.wire[:0], b.recs[:0]
}

// wireCapture converts a runtime capture record to its wire form. The
// wire record aliases the record's tensors, so the record is released
// only after its batch has shipped.
func wireCapture(rec *CaptureRecord) serveapi.CaptureRecord {
	in := rec.Inputs.Contiguous()
	out := rec.Outputs.Contiguous()
	return serveapi.CaptureRecord{
		Region:      rec.Region,
		InputShape:  in.Shape(),
		Inputs:      in.Data(),
		OutputShape: out.Shape(),
		Outputs:     out.Data(),
		RuntimeNS:   rec.RuntimeNS,
	}
}

// Close ships the final batch and releases the client's pooled
// connections. Close is idempotent.
func (s *RemoteSink) Close() error {
	err := s.shutdown()
	s.client.CloseIdleConnections()
	return err
}

// SinkStats snapshots the sink's accounting.
func (s *RemoteSink) SinkStats() SinkStats {
	st := s.queueStats()
	st.RemoteBatches = s.remoteBatches.Load()
	st.RemoteRecords = s.remoteRecords.Load()
	return st
}
