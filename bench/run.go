package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

// metricValue is one reported number. An end-to-end metric is the
// quiet quartile of its rounds (setup_s: of its setups, see
// quietQuartile) and keeps the per-round values and their unrest.
type metricValue struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Rounds []float64 `json:"rounds,omitempty"`
	Unrest float64   `json:"unrest,omitempty"`
}

// workloadResult is everything one workload reported.
type workloadResult struct {
	Name      string                 `json:"name"`
	RowsPerOp int                    `json:"rows_per_op"`
	Callers   int                    `json:"callers"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
}

// roundResult is one closed-loop round of one workload.
type roundResult struct {
	ops, failed int
	wall        time.Duration
	ms          []float64 // per completed operation, as the caller saw it
}

func (r roundResult) rowsPerS(rowsPerOp int) float64 {
	return float64((r.ops-r.failed)*rowsPerOp) / r.wall.Seconds()
}

// runRound drives w closed loop for dur: each caller issues its next
// operation only when the previous one has returned. Operations in
// flight at the deadline complete and count; wall time runs to the last
// completion.
func runRound(w workload, dur time.Duration, tr *tracer, seq0 int) roundResult {
	b := w.info()
	if t, ok := w.(interface{ setTracer(*tracer) }); ok {
		t.setTracer(tr)
		defer t.setTracer(nil)
	}
	per := make([]roundResult, b.callers)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < b.callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &per[c]
			for seq := seq0; time.Now().Before(deadline); seq++ {
				d, err := w.op(c, seq, tr)
				r.ops++
				if err != nil {
					if r.failed++; r.failed <= 3 {
						fmt.Fprintf(os.Stderr, "bench: %s: operation failed: %v\n", b.def.Name, err)
					}
					continue
				}
				r.ms = append(r.ms, float64(d)/1e6)
			}
		}()
	}
	wg.Wait()
	total := roundResult{wall: time.Since(start)}
	for _, r := range per {
		total.ops += r.ops
		total.failed += r.failed
		total.ms = append(total.ms, r.ms...)
	}
	return total
}

// processUsage is the process-wide cost counters the process layer
// reports as deltas over a workload's untraced rounds.
type processUsage struct {
	mallocs, allocBytes, gcPauseNs uint64
	cpu                            time.Duration
	heapInuse                      uint64 // a level, not a counter: addDelta keeps the latest
}

func readProcessUsage() processUsage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF and a valid pointer
	return processUsage{ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs,
		time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ms.HeapInuse}
}

func (p *processUsage) addDelta(before, after processUsage) {
	p.mallocs += after.mallocs - before.mallocs
	p.allocBytes += after.allocBytes - before.allocBytes
	p.gcPauseNs += after.gcPauseNs - before.gcPauseNs
	p.cpu += after.cpu - before.cpu
	p.heapInuse = after.heapInuse
}

// subject is one workload moving through a run.
type subject struct {
	w        workload
	setupS   []float64
	rounds   []roundResult
	usage    processUsage
	traced   []roundResult
	layers   map[string]float64
	problems []string
	seq      int // next operation sequence number, so rounds walk on through the ring
}

// tracedRounds is how many rounds run with spans on after the untraced
// ones; their rows_per_s goes through the same quartile, so
// trace.overhead_ratio compares like with like.
const tracedRounds = 4

// maxSetups caps the repeats of a cheap setup.
const maxSetups = 15

// run measures the named workloads: every setup first, then the
// untraced rounds interleaved (round r of every workload before round
// r+1 of any), then per workload the traced rounds, the layer replay
// and the verdict. Spans of the traced rounds are returned for
// -trace-out.
func run(cfg config, defs []workloadDef) ([]workloadResult, []span, error) {
	subjects := make([]*subject, len(defs))
	defer func() {
		for _, s := range subjects {
			if s != nil && s.w != nil {
				if err := s.w.close(); err != nil {
					fmt.Fprintf(os.Stderr, "bench: closing %s: %v\n", s.w.info().def.Name, err)
				}
			}
		}
	}()
	for i, def := range defs {
		s := &subject{layers: make(map[string]float64)}
		subjects[i] = s
		// At least cfg.setups setups, and more of a cheap one until
		// setupBudget is spent: a 10 ms setup needs more repeats than a
		// 2 s one before its quartile holds still.
		var spent time.Duration
		for k := 0; k < cfg.setups || (spent < cfg.setupBudget && k < maxSetups); k++ {
			if s.w != nil {
				err := s.w.close()
				s.w = nil
				if err != nil {
					return nil, nil, fmt.Errorf("%s: close between setups: %w", def.Name, err)
				}
			}
			start := time.Now()
			w, err := setupWorkload(cfg, def)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: setup: %w", def.Name, err)
			}
			took := time.Since(start)
			spent += took
			s.setupS = append(s.setupS, took.Seconds())
			s.w = w
		}
		fmt.Fprintf(os.Stderr, "bench: %s set up %d times, %.2f s the quickest\n", def.Name, len(s.setupS), slices.Min(s.setupS))
	}

	for r := 0; r < cfg.rounds; r++ {
		for _, s := range subjects {
			before := readProcessUsage()
			rr := runRound(s.w, cfg.roundDur, nil, s.seq)
			s.usage.addDelta(before, readProcessUsage())
			s.rounds = append(s.rounds, rr)
			s.seq += rr.ops
			if err := s.w.roundDone(); err != nil {
				s.problems = append(s.problems, fmt.Sprintf("after round %d: %v", r, err))
			}
		}
	}

	var spans []span
	results := make([]workloadResult, len(subjects))
	for i, s := range subjects {
		if cfg.traced {
			sp, err := s.tracedRounds(cfg)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: traced rounds: %w", s.w.info().def.Name, err)
			}
			spans = append(spans, sp...)
		}
		results[i] = s.report(cfg)
	}
	return results, spans, nil
}

// tracedRounds runs tracedRounds more rounds with spans on, reads the
// layers' public counters either side of them, and replays the layers
// directly.
func (s *subject) tracedRounds(cfg config) ([]span, error) {
	before, err := s.w.snapshot()
	if err != nil {
		return nil, err
	}
	tr := newTracer(s.w.info().def.Name)
	ops := 0
	for r := 0; r < tracedRounds; r++ {
		rr := runRound(s.w, cfg.roundDur, tr, s.seq)
		s.traced = append(s.traced, rr)
		s.seq += rr.ops
		ops += rr.ops
		if err := s.w.roundDone(); err != nil {
			return nil, err
		}
	}
	after, err := s.w.snapshot()
	if err != nil {
		return nil, err
	}
	rows := ops * s.w.info().rowsPerOp
	for k, v := range s.w.layers(before, after, aggregate(tr.spans), rows) {
		s.layers[k] = v
	}
	replayed, err := s.w.replay()
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	for k, v := range replayed {
		s.layers[k] = v
	}
	return tr.spans, nil
}

// report folds a subject's rounds, layers and verdict into its result.
func (s *subject) report(cfg config) workloadResult {
	b := s.w.info()
	res := workloadResult{Name: b.def.Name, RowsPerOp: b.rowsPerOp, Callers: b.callers,
		EndToEnd: make(map[string]metricValue), Problems: s.problems}

	var rowsPerS, p50 []float64
	var all []float64
	var ops, failed int
	for _, r := range s.rounds {
		all = append(all, r.ms...)
		ops += r.ops
		failed += r.failed
		if len(r.ms) == 0 {
			continue // nothing completed: the failures are counted, there is no time to report
		}
		sorted := sortedCopy(r.ms)
		rowsPerS = append(rowsPerS, r.rowsPerS(b.rowsPerOp))
		p50 = append(p50, percentile(sorted, 0.50))
	}
	for name, rounds := range map[string][]float64{
		"rows_per_s": rowsPerS, "op_p50_ms": p50, "setup_s": s.setupS,
	} {
		def, _ := findMetric(endToEnd, name)
		value, unrest := quietQuartile(rounds, def.Better)
		if math.IsNaN(value) {
			value = 0 // no round completed an operation; the run is already incorrect
		}
		res.EndToEnd[name] = metricValue{Value: value, Unit: def.Unit, Rounds: rounds, Unrest: unrest}
	}

	v := s.w.verify()
	res.Problems = append(res.Problems, v.problems...)
	var tracedRowsPerS []float64
	res.Attempted, res.Failed = ops, failed+v.failures
	for _, r := range s.traced {
		tracedRowsPerS = append(tracedRowsPerS, r.rowsPerS(b.rowsPerOp))
		res.Attempted += r.ops
		res.Failed += r.failed
	}
	if math.IsNaN(v.qoi) {
		if b.band != (band{}) {
			res.Problems = append(res.Problems, "no qoi_error could be computed")
		}
	} else if !b.band.holds(v.qoi) {
		res.Problems = append(res.Problems, fmt.Sprintf("qoi_error %g is outside the workload's band %v", v.qoi, b.band))
	}
	if res.Failed > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d of %d operations failed", res.Failed, res.Attempted))
	}
	res.Correct = len(res.Problems) == 0

	if cfg.traced {
		res.PerLayer = s.layerMetrics(res, v, all, ops-failed, tracedRowsPerS)
	}
	return res
}

// layerMetrics gathers what the setup, the traced rounds, the replay
// and the verdict measured, and adds the layers the runner itself sees:
// the process, the client and the trace overhead.
func (s *subject) layerMetrics(res workloadResult, v verdict, ms []float64, completed int, tracedRowsPerS []float64) map[string]metricValue {
	b := s.w.info()
	l := s.layers
	for k, x := range b.setup {
		l[k] = x
	}
	for k, x := range v.layers {
		l[k] = x
	}
	if !math.IsNaN(v.qoi) {
		l["app.qoi_error"] = v.qoi
	}
	if acc, ok := l["app.accurate_ms_p50"]; ok {
		l["app.speedup_vs_accurate"] = acc / res.EndToEnd["op_p50_ms"].Value
	}
	if bytesPerRow, ok := l["h5.bytes_per_row"]; ok {
		l["h5.write_mb_per_s"] = res.EndToEnd["rows_per_s"].Value * bytesPerRow / 1e6
	}
	rows := float64(completed * b.rowsPerOp)
	l["process.allocs_per_row"] = float64(s.usage.mallocs) / rows
	l["process.alloc_bytes_per_row"] = float64(s.usage.allocBytes) / rows
	l["process.gc_pause_ms"] = float64(s.usage.gcPauseNs) / 1e6
	l["process.heap_inuse_mb"] = float64(s.usage.heapInuse) / (1 << 20)
	l["process.cpu_us_per_row"] = float64(s.usage.cpu) / 1e3 / rows
	sorted := sortedCopy(ms)
	l["client.ops"] = float64(len(ms))
	l["client.op_p95_ms"] = percentile(sorted, 0.95)
	l["client.op_p99_ms"] = percentile(sorted, 0.99)
	l["client.op_max_ms"] = percentile(sorted, 1)
	l["client.round_spread"] = res.EndToEnd["rows_per_s"].Unrest
	l["client.fail_ratio"] = float64(res.Failed) / float64(res.Attempted)
	tracedRate, _ := quietQuartile(tracedRowsPerS, higher)
	l["trace.overhead_ratio"] = res.EndToEnd["rows_per_s"].Value/tracedRate - 1

	out := make(map[string]metricValue, len(l))
	for name, x := range l {
		def, ok := findMetric(perLayer, name)
		if !ok {
			panic("bench: layer metric " + name + " is not declared in def.go")
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue // a layer that saw no work has no rate to report
		}
		out[name] = metricValue{Value: x, Unit: def.Unit}
	}
	return out
}
