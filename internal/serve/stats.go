package serve

import (
	"errors"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/serveapi"
)

// latWindow is the number of most-recent per-row latencies kept per
// model for quantile estimation.
const latWindow = 4096

// modelStats is the serving-side accounting for one model. The traffic
// totals (completed/errors/rejected/batches, reload counts) live in
// the model's telemetry counters (modelMetrics) — atomics shared with
// the /metrics exposition, so the JSON snapshot and a Prometheus
// scrape read the same source of truth. Under mu live only the things
// a lock genuinely serializes: the exact batch-size array, the latency
// ring, and the batches' summed phase durations.
type modelStats struct {
	tm modelMetrics

	mu    sync.Mutex
	start time.Time

	// hist[n] counts batches that served exactly n rows
	// (1 <= n <= MaxBatch) — the exact per-size map /v1/stats reports
	// (the telemetry histogram buckets the same sizes for scrapers).
	hist []uint64

	// lat is a ring of the last latWindow per-row latencies in seconds.
	lat   []float64
	latAt int

	// phases sums every batch's staging copies and engine call — the
	// to-tensor / inference / from-tensor split of ModelSnapshot.Region.
	phases batchPhases
}

func newModelStats(maxBatch int, tm modelMetrics) *modelStats {
	return &modelStats{
		tm:    tm,
		start: time.Now(),
		hist:  make([]uint64, maxBatch+1),
		lat:   make([]float64, 0, latWindow),
	}
}

// observe records one served batch: its row count, outcome, phase
// durations, the forward (engine phase) duration, and each row's queue
// wait and queue-to-completion latency — one weighted observation per
// range, since a range's rows share both. cut is when the batch was cut
// (forward started), end when the engine call returned.
func (st *modelStats) observe(ph batchPhases, batch []rowRange, rows int, cut, end time.Time, err error) {
	st.tm.batches.Inc()
	st.tm.batchSize.Observe(float64(rows))
	st.tm.forward.Observe(end.Sub(cut).Seconds())
	if err != nil {
		st.tm.errors.Add(uint64(rows))
	} else {
		st.tm.ok.Add(uint64(rows))
		for _, rg := range batch {
			st.tm.queueWait.ObserveN(cut.Sub(rg.enq).Seconds(), uint64(rg.n))
			st.tm.latency.ObserveN(end.Sub(rg.enq).Seconds(), uint64(rg.n))
		}
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	st.hist[min(rows, len(st.hist)-1)]++
	st.phases.toTensor += ph.toTensor
	st.phases.engine += ph.engine
	st.phases.fromTensor += ph.fromTensor
	if err != nil {
		return
	}
	for _, rg := range batch {
		sec := end.Sub(rg.enq).Seconds()
		for i := 0; i < rg.n; i++ {
			if len(st.lat) < cap(st.lat) {
				st.lat = append(st.lat, sec)
			} else {
				st.lat[st.latAt] = sec
				st.latAt = (st.latAt + 1) % cap(st.lat)
			}
		}
	}
}

// unsent counts the n rows a request never submitted because it
// stopped at err: rejected after a queue refusal (backpressure), errors
// after any other failure (a failed batch, Close).
func (st *modelStats) unsent(n int, err error) {
	if errors.Is(err, ErrQueueFull) {
		st.tm.rejected.Add(uint64(n))
	} else {
		st.tm.errors.Add(uint64(n))
	}
}

func (st *modelStats) reloaded()     { st.tm.reloadOK.Inc() }
func (st *modelStats) reloadFailed() { st.tm.reloadErr.Inc() }

// ModelSnapshot is one model's serving stats (the /v1/stats payload):
// row totals, throughput, the batch-size histogram, latency quantiles,
// and the replica pool's phase split in Region form.
// The shape is defined in the shared wire schema.
type ModelSnapshot = serveapi.ModelSnapshot

// snapshot renders the stats under the model's registry info. The
// mutex guards only the copies: the latency ring is snapshotted under
// lock and sorted outside it, so a monitoring scrape sorting 4096
// floats can never stall the workers' observe calls — the serving hot
// path — behind it.
func (st *modelStats) snapshot(info ModelInfo) ModelSnapshot {
	completed := st.tm.ok.Value()
	snap := ModelSnapshot{
		ModelInfo:    info,
		Completed:    completed,
		Errors:       st.tm.errors.Value(),
		Rejected:     st.tm.rejected.Value(),
		Batches:      st.tm.batches.Value(),
		Reloads:      st.tm.reloadOK.Value(),
		ReloadErrors: st.tm.reloadErr.Value(),
		BatchHist:    make(map[string]uint64),
	}

	st.mu.Lock()
	start := st.start
	for n, c := range st.hist {
		if c > 0 {
			snap.BatchHist[strconv.Itoa(n)] = c
		}
	}
	latCopy := append(make([]float64, 0, len(st.lat)), st.lat...)
	ph := st.phases
	st.mu.Unlock()

	if up := time.Since(start).Seconds(); up > 0 {
		snap.ThroughputRPS = float64(completed) / up
	}
	if snap.Batches > 0 {
		// Rows that reached a batch: unsent error rows never did.
		snap.MeanBatch = st.tm.batchSize.Sum() / float64(snap.Batches)
	}
	sort.Float64s(latCopy)
	snap.LatencyP50Ms = quantileSortedMs(latCopy, 0.50)
	snap.LatencyP95Ms = quantileSortedMs(latCopy, 0.95)
	snap.LatencyP99Ms = quantileSortedMs(latCopy, 0.99)
	// Replicas run ungated and never fall back: every served row is a
	// trusted, batched inference.
	served := int(completed)
	snap.Region = serveapi.RegionStats{
		Invocations:        served,
		Inferences:         served,
		Batches:            int(snap.Batches),
		BatchedInvocations: served,
		TrustedRows:        served,
		ToTensor:           ph.toTensor,
		FromTensor:         ph.fromTensor,
		BatchInference:     ph.engine,
	}
	return snap
}

// quantileSortedMs returns the p-quantile of already-sorted latency
// samples in milliseconds (nearest-rank; 0 when empty). Callers sort
// once — outside any lock — and read several quantiles from it.
func quantileSortedMs(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx] * 1e3
}
