package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	hpacml "repro"

	"repro/internal/benchmarks/binomial"
	"repro/internal/benchmarks/common"
	"repro/internal/h5"
)

// Capture pipeline sizing for embed_collect, where it departs from the
// default CaptureConfig. One unbounded file would leave gigabytes in the
// checkout at ~300 MB/s; rotating shards lets roundDone drop the closed
// ones. And the default 256-record queue lets a round that starts on a
// drained queue (every round, when workloads are interleaved) time 256
// enqueues at memory speed before the writer pushes back; a 16-record
// queue keeps every round in the sustained, writer-bound regime.
const (
	collectShardRecords = 256
	collectQueueCap     = 16
	readbackShardRecs   = 16
	readbackOps         = 40 // three shards: 16, 16 and 8 records
	heldOutRows         = 1024
	// RMSE in price units. A call is worth less than its spot and spots
	// stay below 30, so anything above is not a price; the surrogate
	// trained at full size lands near 0.25.
	embedQoIMax = 30.0
)

// portfolioSlab is one set of region inputs, as the [options, 3] slab
// the bridge presents to the model, and the prices the region must
// leave behind for them.
type portfolioSlab struct{ in, prices []float64 }

// embedWorkload is the in-process path: one caller driving
// Region.Execute on the binomial region, as inference (bridge ->
// LocalEngine -> scatter) or as collection (gather inputs and outputs
// -> Sink -> .gh5).
type embedWorkload struct {
	*base
	cfg     config
	collect bool
	port    *binomial.Instance
	region  *hpacml.Region
	model   *modelFile // inference only
	db      string     // collection only
	ring    []portfolioSlab

	// Collection bookkeeping: shards below firstShard were removed by
	// roundDone after their sizes were added to removedBytes.
	firstShard   int
	removedBytes int64
	ops          int
}

func setupEmbed(cfg config, def workloadDef, collect bool) (workload, error) {
	bd := band{0, embedQoIMax}
	if collect {
		bd = band{}
	}
	b, err := newBase(cfg, def, cfg.options, 1, bd)
	if err != nil {
		return nil, err
	}
	w := &embedWorkload{base: b, cfg: cfg, collect: collect}
	if w.port, err = newPortfolio(cfg, cfg.seed+1); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed + 2))
	n := cfg.options
	w.ring = make([]portfolioSlab, ringSlabs)
	for k := range w.ring {
		w.ring[k].in = make([]float64, smallIn*n)
		fillInputs(w.ring[k].in, smallIn, rng)
	}

	var modelPath string
	var capture []hpacml.Option
	if collect {
		// The accurate closure copies precomputed prices: the workload
		// is the capture path, not the lattice. The closed form is cheap
		// and has the magnitude of real prices.
		for k := range w.ring {
			sl := &w.ring[k]
			sl.prices = make([]float64, n)
			for i := range sl.prices {
				sl.prices[i] = binomial.EuropeanBlackScholesCall(sl.in[3*i], sl.in[3*i+1], sl.in[3*i+2],
					w.port.Cfg.RiskFree, w.port.Cfg.Volatility)
			}
		}
		w.db = filepath.Join(b.dir, "capture.gh5")
		capture = []hpacml.Option{hpacml.WithCapture(hpacml.CaptureConfig{
			ShardRecords: collectShardRecords, QueueCap: collectQueueCap})}
	} else {
		if w.model, err = buildSmall(cfg, b.dir); err != nil {
			return nil, err
		}
		b.setup["app.collect_s"] = w.model.collectS
		b.setup["nn.train_s"] = w.model.trainS
		modelPath = w.model.path
		for k := range w.ring {
			if w.ring[k].prices, err = forward(w.model.net, w.ring[k].in, n, smallIn, smallOut); err != nil {
				return nil, err
			}
		}
	}

	start := time.Now()
	if w.region, err = binomialRegionFor(w.port, modelPath, w.db, !collect, capture...); err != nil {
		return nil, err
	}
	b.setup["hpacml.region_build_ms"] = msSince(start)
	start = time.Now()
	for i := 0; i < warmupOps; i++ {
		if _, err := w.op(0, i, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	b.setup["hpacml.warmup_ms"] = msSince(start)
	return w, nil
}

func (w *embedWorkload) op(_, seq int, tr *tracer) (time.Duration, error) {
	sl := &w.ring[seq%len(w.ring)]
	for i := range w.port.S {
		w.port.S[i], w.port.X[i], w.port.T[i] = sl.in[3*i], sl.in[3*i+1], sl.in[3*i+2]
	}
	var accurate func() error
	var root int
	if w.collect {
		accurate = func() error {
			if tr != nil {
				defer tr.end(tr.begin(spanAccurate, root, ""))
			}
			copy(w.port.Prices, sl.prices)
			return nil
		}
	}
	if tr != nil {
		root = tr.begin(spanExecute, 0, "")
	}
	start := time.Now()
	err := w.region.Execute(accurate)
	d := time.Since(start)
	if tr != nil {
		tr.end(root)
	}
	w.ops++
	if err != nil {
		return d, err
	}
	for i, p := range w.port.Prices {
		if p != sl.prices[i] {
			return d, fmt.Errorf("price %d is %g, the f64 reference says %g", i, p, sl.prices[i])
		}
	}
	return d, nil
}

// shardBytes sums the sizes of the shards from firstShard on and
// returns the index of the last one, the shard still being written.
func (w *embedWorkload) shardBytes() (total int64, last int, sizes []int64) {
	last = w.firstShard
	for k := w.firstShard; ; k++ {
		st, err := os.Stat(h5.ShardPath(w.db, k))
		if err != nil {
			return total, last, sizes
		}
		total += st.Size()
		sizes = append(sizes, st.Size())
		last = k
	}
}

// roundDone removes the shards the sink has finished with (the writer
// closes a shard before it creates the next, so every shard but the
// last is complete), keeping their byte count for the size check in
// verify.
func (w *embedWorkload) roundDone() error {
	if !w.collect {
		return nil
	}
	_, last, sizes := w.shardBytes()
	for k := w.firstShard; k < last; k++ {
		if err := os.Remove(h5.ShardPath(w.db, k)); err != nil {
			return err
		}
		w.removedBytes += sizes[k-w.firstShard]
	}
	w.firstShard = last
	return nil
}

func (w *embedWorkload) snapshot() (counters, error) {
	return counters{phases: phasesOf(w.region.Stats())}, nil
}

func (w *embedWorkload) layers(before, after counters, agg map[string]*spanTotals, rows int) map[string]float64 {
	p := after.phases.sub(before.phases)
	m := map[string]float64{
		"bridge.to_tensor_ns_per_row":   perRow(p.toTensor, rows),
		"bridge.from_tensor_ns_per_row": perRow(p.fromTensor, rows),
	}
	root := agg[spanExecute]
	if root == nil {
		return m
	}
	// The region's own share is what is left of the root span once the
	// bridge, the engine, the accurate closure and the sink hand-off
	// are taken out, so the parts sum to the whole.
	self := root.total - p.toTensor - p.fromTensor - p.engine - p.dbWrite
	if w.collect {
		self -= agg[spanAccurate].total
		m["hpacml.db_write_ns_per_row"] = perRow(p.dbWrite, rows)
		m["sink.capture_us_per_op"] = float64(root.self) / 1e3 / float64(root.count)
	} else {
		m["hpacml.engine_ns_per_row"] = perRow(p.engine, rows)
		m["bridge.overhead_ratio"] = float64(p.toTensor+p.fromTensor) / float64(p.engine)
	}
	m["hpacml.self_ns_per_row"] = perRow(self, rows)
	return m
}

func (w *embedWorkload) replay() (map[string]float64, error) {
	if w.collect {
		return nil, nil
	}
	return replayModel(w.cfg.replayChunk, w.model, precF64, w.ring[0].in, w.cfg.options)
}

func (w *embedWorkload) verify() verdict {
	if w.collect {
		return w.verifyCollect()
	}
	v := verdict{qoi: math.NaN(), layers: make(map[string]float64)}
	held, err := newPortfolio(w.cfg, w.cfg.seed+3)
	if err != nil {
		v.problemf("held-out portfolio: %v", err)
		return v
	}
	copy(w.port.S, held.S)
	copy(w.port.X, held.X)
	copy(w.port.T, held.T)
	if err := w.region.Execute(nil); err != nil {
		v.problemf("held-out execute: %v", err)
		return v
	}
	rows := min(heldOutRows, w.cfg.options)
	ref := make([]float64, rows)
	for i := range ref {
		ref[i] = binomial.PriceAmericanCall(held.S[i], held.X[i], held.T[i], held.Cfg.RiskFree, held.Cfg.Volatility, held.Cfg.Steps, nil)
	}
	if v.qoi, err = common.RMSE(w.port.Prices[:rows], ref); err != nil {
		v.problemf("held-out RMSE: %v", err)
	}
	if w.cfg.traced {
		// The original algorithm over the whole portfolio: the numerator
		// of the paper's Figure 5 speedup.
		ms := make([]float64, 3)
		for i := range ms {
			start := time.Now()
			w.port.ComputePrices()
			ms[i] = msSince(start)
		}
		v.layers["app.accurate_ms_p50"] = median(ms)
	}
	return v
}

// verifyCollect closes the timed region and checks that every record
// it was handed reached the disk, then writes a small database the same
// way and reads it back bit for bit.
func (w *embedWorkload) verifyCollect() verdict {
	v := verdict{qoi: math.NaN(), layers: make(map[string]float64)}
	ops := w.ops // readBack below runs more
	if err := w.region.Close(); err != nil {
		v.problemf("closing the capture sink: %v", err)
	}
	ss, _ := w.region.CaptureStats()
	v.layers["sink.dropped"] = float64(ss.Dropped)
	v.layers["sink.flushes"] = float64(ss.Flushes)
	v.layers["sink.write_errors"] = float64(ss.WriteErrors)
	v.failures = int(ss.Dropped + ss.WriteErrors + ss.FlushErrors)
	if int(ss.Captured) != ops || ss.Failed() {
		v.problemf("sink captured %d of %d records (dropped %d, write errors %d, flush errors %d)",
			ss.Captured, ops, ss.Dropped, ss.WriteErrors, ss.FlushErrors)
	}
	remaining, _, _ := w.shardBytes()
	written := w.removedBytes + remaining

	recBytes, hdrBytes, err := w.readBack(&v)
	if err != nil {
		v.problemf("read-back: %v", err)
		return v
	}
	if want := int64(ops)*recBytes + ss.Shards*hdrBytes; written != want {
		v.problemf("capture database holds %d bytes, %d records in %d shards should take %d", written, ops, ss.Shards, want)
	}
	v.layers["h5.bytes_per_row"] = float64(recBytes) / float64(w.rowsPerOp)
	return v
}

// readBack captures readbackOps records into a fresh sharded database,
// reopens it with h5.OpenShards and compares the record count and the
// first and last records bitwise with what the region was given. It
// returns the exact on-disk size of one record and of a shard header,
// solved from a full and a part-filled shard.
func (w *embedWorkload) readBack(v *verdict) (recBytes, hdrBytes int64, err error) {
	db := filepath.Join(w.dir, "readback.gh5")
	region, err := binomialRegionFor(w.port, "", db, false,
		hpacml.WithCapture(hpacml.CaptureConfig{ShardRecords: readbackShardRecs}))
	if err != nil {
		return 0, 0, err
	}
	timed := w.region
	w.region = region
	for i := 0; i < readbackOps && err == nil; i++ {
		_, err = w.op(0, i, nil)
	}
	w.region = timed
	if cerr := region.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, 0, err
	}

	start := time.Now()
	f, err := h5.OpenShards(db)
	if err != nil {
		return 0, 0, err
	}
	v.layers["h5.reopen_ms"] = msSince(start)
	ins, err := f.ReadRecords(binomialRegion, "inputs")
	if err != nil {
		return 0, 0, err
	}
	outs, err := f.ReadRecords(binomialRegion, "outputs")
	if err != nil {
		return 0, 0, err
	}
	if len(ins) != readbackOps || len(outs) != readbackOps {
		return 0, 0, fmt.Errorf("%d input and %d output records, want %d", len(ins), len(outs), readbackOps)
	}
	for _, i := range []int{0, readbackOps - 1} {
		sl := &w.ring[i%len(w.ring)]
		if !slices.Equal(ins[i].Data(), sl.in) || !slices.Equal(outs[i].Data(), sl.prices) {
			return 0, 0, fmt.Errorf("record %d differs from what the region was given", i)
		}
	}

	full, err := os.Stat(h5.ShardPath(db, 0))
	if err != nil {
		return 0, 0, err
	}
	part, err := os.Stat(h5.ShardPath(db, 2))
	if err != nil {
		return 0, 0, err
	}
	const partRecs = readbackOps - 2*readbackShardRecs
	recBytes = (full.Size() - part.Size()) / (readbackShardRecs - partRecs)
	return recBytes, full.Size() - readbackShardRecs*recBytes, nil
}

func (w *embedWorkload) close() error {
	err := w.region.Close()
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	return err
}
