package serve

import (
	"sort"
	"strconv"
	"sync"
	"time"

	hpacml "repro"

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
// ring, and the replicas' latest phase-counter copies.
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

	// replicaRegion holds each replica's latest hpacml.Stats copy, so
	// the aggregate staging/engine phase split stays readable while the
	// replicas keep running.
	replicaRegion []hpacml.Stats
}

func newModelStats(maxBatch, workers int, tm modelMetrics) *modelStats {
	return &modelStats{
		tm:            tm,
		start:         time.Now(),
		hist:          make([]uint64, maxBatch+1),
		lat:           make([]float64, 0, latWindow),
		replicaRegion: make([]hpacml.Stats, workers),
	}
}

// observe records one served batch: its row count, outcome, the forward
// (engine phase) duration, each row's queue wait and
// queue-to-completion latency — one weighted observation per range,
// since a range's rows share both — and the owning replica's phase
// counters. cut is when the batch was cut (forward started), end when
// the engine call returned.
func (st *modelStats) observe(replicaIdx int, region hpacml.Stats, batch []rowRange, rows int, cut, end time.Time, err error) {
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
	if replicaIdx < len(st.replicaRegion) {
		st.replicaRegion[replicaIdx] = region
	}
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

func (st *modelStats) reject()       { st.tm.rejected.Inc() }
func (st *modelStats) reloaded()     { st.tm.reloadOK.Inc() }
func (st *modelStats) reloadFailed() { st.tm.reloadErr.Inc() }

// regionSum returns the replica pool's summed phase accounting — the
// source the JSON snapshot and the /metrics region bridge both read.
func (st *modelStats) regionSum() hpacml.Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	var sum hpacml.Stats
	for _, rs := range st.replicaRegion {
		sum.Accumulate(rs)
	}
	return sum
}

// ModelSnapshot is one model's serving stats (the /v1/stats payload):
// traffic totals, throughput, the batch-size histogram, latency
// quantiles, and the summed Region phase counters of the replica pool.
// The shape is defined in the shared wire schema.
type ModelSnapshot = serveapi.ModelSnapshot

// wireRegionStats converts the runtime's Region accounting to its wire
// form. The wire struct mirrors hpacml.Stats field-for-field, so this
// is a plain copy that the compiler checks stays exhaustive.
func wireRegionStats(s hpacml.Stats) serveapi.RegionStats {
	return serveapi.RegionStats{
		Invocations:        s.Invocations,
		Inferences:         s.Inferences,
		Collections:        s.Collections,
		AccurateRuns:       s.AccurateRuns,
		Batches:            s.Batches,
		BatchedInvocations: s.BatchedInvocations,
		Fallbacks:          s.Fallbacks,
		RemoteInference:    s.RemoteInference,
		TrustedRows:        s.TrustedRows,
		UncertainRows:      s.UncertainRows,
		OutOfDomainRows:    s.OutOfDomainRows,
		CaptureDrops:       s.CaptureDrops,
		CaptureFlushes:     s.CaptureFlushes,
		RemoteCaptures:     s.RemoteCaptures,
		ToTensor:           s.ToTensor,
		Inference:          s.Inference,
		FromTensor:         s.FromTensor,
		Accurate:           s.Accurate,
		DBWrite:            s.DBWrite,
		BatchInference:     s.BatchInference,
	}
}

// snapshot renders the stats under the model's registry info. The
// mutex guards only the copies: the latency ring is snapshotted under
// lock and sorted outside it, so a monitoring scrape sorting 4096
// floats can never stall the workers' observe calls — the serving hot
// path — behind it.
func (st *modelStats) snapshot(info ModelInfo) ModelSnapshot {
	completed := st.tm.ok.Value()
	errors := st.tm.errors.Value()
	snap := ModelSnapshot{
		ModelInfo:    info,
		Completed:    completed,
		Errors:       errors,
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
	var sum hpacml.Stats
	for _, rs := range st.replicaRegion {
		sum.Accumulate(rs)
	}
	st.mu.Unlock()

	if up := time.Since(start).Seconds(); up > 0 {
		snap.ThroughputRPS = float64(completed) / up
	}
	if snap.Batches > 0 {
		snap.MeanBatch = float64(completed+errors) / float64(snap.Batches)
	}
	sort.Float64s(latCopy)
	snap.LatencyP50Ms = quantileSortedMs(latCopy, 0.50)
	snap.LatencyP95Ms = quantileSortedMs(latCopy, 0.95)
	snap.LatencyP99Ms = quantileSortedMs(latCopy, 0.99)
	snap.Region = wireRegionStats(sum)
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
