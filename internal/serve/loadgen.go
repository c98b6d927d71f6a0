package serve

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/results"
	"repro/internal/serveapi"
	"repro/internal/serveclient"
)

// LoadGenConfig drives RunLoadGen against a running server's HTTP API.
type LoadGenConfig struct {
	// Target is the server base URL, e.g. http://127.0.0.1:8080.
	Target string
	// Model names the registry entry to load; empty picks the server's
	// first model.
	Model string
	// RPS is the target request rate across all clients; 0 runs
	// closed-loop (every client fires as fast as its requests complete).
	RPS float64
	// Duration is how long to generate load. Default 5s.
	Duration time.Duration
	// Concurrency is the client goroutine count. Default 16.
	Concurrency int
	// Seed makes the random input vectors reproducible.
	Seed int64
	// Wire selects the client protocol: "json" (default), "binary"
	// (length-prefixed frames with raw float payloads), or "both" — a
	// JSON baseline run followed by a binary run, published as one
	// record with the baseline attached, so a single artifact carries
	// the before/after comparison.
	Wire string
	// Dtype selects the binary wire's element encoding: "f64"
	// (default) or "f32". It shapes only the frame payload bytes.
	// Ignored under the JSON wire.
	Dtype string
	// CaptureDB, when set, ships every completed inference back to the
	// server as a capture record (POST /v1/capture against this
	// database name) — the closed-loop drive: served traffic becomes
	// training data, which the server's learner retrains on. Records
	// use the model name as their region group and the served output as
	// the label.
	CaptureDB string
}

// RunLoadGen fires Concurrency clients at the target's /v1/infer
// through the typed serve client (internal/serveclient) for the
// configured duration, then folds the client-side traffic accounting
// together with the server's own coalescing stats into the shared
// results schema (the BENCH_serve.json artifact). Wire picks the
// protocol; "both" runs the JSON baseline first and attaches it to the
// binary run's record.
func RunLoadGen(cfg LoadGenConfig) (*results.Record, error) {
	switch cfg.Wire {
	case "", "json":
		return runLoadGen(cfg, serveclient.WireJSON)
	case "binary":
		return runLoadGen(cfg, serveclient.WireBinary)
	case "both":
		base, err := runLoadGen(cfg, serveclient.WireJSON)
		if err != nil {
			return nil, err
		}
		rec, err := runLoadGen(cfg, serveclient.WireBinary)
		if err != nil {
			return nil, err
		}
		rec.Serving.Baseline = base.Serving
		return rec, nil
	default:
		return nil, fmt.Errorf("serve: loadgen: unknown wire %q (want json, binary, or both)", cfg.Wire)
	}
}

func runLoadGen(cfg LoadGenConfig, wire serveclient.Wire) (*results.Record, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 16
	}
	var dtype serveapi.Dtype
	switch cfg.Dtype {
	case "", "f64":
		dtype = serveapi.DtypeF64
	case "f32":
		dtype = serveapi.DtypeF32
	default:
		return nil, fmt.Errorf("serve: loadgen: unknown dtype %q (want f64 or f32)", cfg.Dtype)
	}
	client := serveclient.New(cfg.Target, serveclient.WithTimeout(10*time.Second),
		serveclient.WithWire(wire), serveclient.WithFrameDtype(dtype))
	defer client.CloseIdleConnections()
	info, err := client.Model(context.Background(), cfg.Model)
	if err != nil {
		return nil, fmt.Errorf("serve: loadgen: %w", err)
	}
	inDim, model := info.InDim, info.Name

	var sent, completed, rejected, errs, captured atomic.Uint64
	lats := make([][]float64, cfg.Concurrency)

	// done closes at the deadline so rate-limited clients parked on the
	// token channel exit immediately instead of waiting out one token
	// each (at low RPS that would overshoot the duration by up to
	// Concurrency/RPS seconds).
	done := make(chan struct{})
	timer := time.AfterFunc(cfg.Duration, func() { close(done) })
	defer timer.Stop()

	// Pacing: at a target RPS one shared ticker feeds a token channel;
	// closed-loop mode leaves tick nil and clients free-run.
	var tick chan struct{}
	if cfg.RPS > 0 {
		tick = make(chan struct{}, cfg.Concurrency)
		interval := time.Duration(float64(time.Second) / cfg.RPS)
		if interval <= 0 {
			interval = time.Microsecond
		}
		go func() {
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					select {
					case tick <- struct{}{}:
					default: // clients saturated; shed the token
					}
				case <-done:
					return
				}
			}
		}()
	}

	deadline := time.Now().Add(cfg.Duration)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Concurrency; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(c)*7919))
			in := make([]float64, inDim)
			var out []float64 // binary-wire response scratch, reused across requests
			// Capture batching: completed inferences accumulate per
			// client and ship as /v1/capture POSTs — the closed-loop
			// feed. Row-shaped records ([1, k]) so the server's .gh5
			// concatenation yields a [n, k] training matrix.
			var capBatch []serveapi.CaptureRecord
			flushCapture := func() {
				if len(capBatch) == 0 {
					return
				}
				if n, err := client.Capture(context.Background(), cfg.CaptureDB, capBatch); err == nil {
					captured.Add(uint64(n))
				}
				capBatch = capBatch[:0]
			}
			defer flushCapture()
			for time.Now().Before(deadline) {
				if tick != nil {
					select {
					case <-tick:
					case <-done:
						return
					}
					if !time.Now().Before(deadline) {
						return
					}
				}
				for i := range in {
					in[i] = rng.Float64()
				}
				sent.Add(1)
				start := time.Now()
				var err error
				if wire == serveclient.WireBinary {
					out, _, err = client.InferMatrix(context.Background(), model, 1, inDim, in, out)
				} else {
					out, err = client.Infer(context.Background(), model, in)
				}
				elapsed := time.Since(start)
				switch {
				case err == nil:
					completed.Add(1)
					lats[c] = append(lats[c], elapsed.Seconds())
					if cfg.CaptureDB != "" && len(out) > 0 {
						// Copy both vectors: in and (on the binary wire)
						// out are reused across iterations.
						capBatch = append(capBatch, serveapi.CaptureRecord{
							Region:      model,
							InputShape:  []int{1, inDim},
							Inputs:      append([]float64(nil), in...),
							OutputShape: []int{1, len(out)},
							Outputs:     append([]float64(nil), out...),
							RuntimeNS:   float64(elapsed.Nanoseconds()),
						})
						if len(capBatch) >= 16 {
							flushCapture()
						}
					}
				case serveclient.Rejected(err):
					rejected.Add(1)
				default:
					errs.Add(1)
				}
			}
		}(c)
	}
	started := time.Now()
	wg.Wait()
	elapsed := time.Since(started)

	all := []float64{}
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Float64s(all) // one sort feeds all three quantiles

	serving := &results.Serving{
		TargetRPS:    cfg.RPS,
		Concurrency:  cfg.Concurrency,
		DurationSec:  elapsed.Seconds(),
		Sent:         sent.Load(),
		Completed:    completed.Load(),
		Rejected:     rejected.Load(),
		Errors:       errs.Load(),
		LatencyP50Ms: quantileSortedMs(all, 0.50),
		LatencyP95Ms: quantileSortedMs(all, 0.95),
		LatencyP99Ms: quantileSortedMs(all, 0.99),
		Wire:         wire.String(),

		CapturedRecords: captured.Load(),
	}
	if wire == serveclient.WireBinary {
		serving.Dtype = dtype.String()
	}
	if elapsed > 0 {
		serving.AchievedRPS = float64(completed.Load()) / elapsed.Seconds()
		// One inference record per request here, so throughput in
		// records/sec is the achieved request rate.
		serving.RecordsPerSec = serving.AchievedRPS
	}
	// Fold in the server's coalescing evidence.
	if snap, err := client.ModelStats(context.Background(), model); err == nil {
		serving.MeanBatch = snap.MeanBatch
		serving.BatchHist = snap.BatchHist
	}
	return &results.Record{
		Tool:    "hpacml-serve-loadgen",
		Model:   model,
		Serving: serving,
	}, nil
}
