package hpacml

import (
	"math/rand"
	"sync"
	"sync/atomic"
)

// SamplingSink thins the capture stream before it reaches the backing
// sink — how a long-running solver collects across its whole
// trajectory without drowning the training database in near-duplicate
// records. Two policies, selected by the capture(...) directive clause
// or CaptureConfig:
//
//	capture(every:N) — keep invocation 1, N+1, 2N+1, ... (deterministic
//	                   stride; the stable choice for autoregressive
//	                   solvers whose consecutive states barely differ)
//	capture(frac:F)  — keep each invocation independently with
//	                   probability F (the unbiased choice when record
//	                   order correlates with regime)
//
// Records filtered out are counted in SinkStats.Sampled — a deliberate
// thinning, never a failure. Like every built-in sink it is safe for
// concurrent use.
type SamplingSink struct {
	next  Sink
	every int64

	// rng drives the frac policy under mu; seeded, so collections are
	// reproducible run to run.
	frac float64
	mu   sync.Mutex
	rng  *rand.Rand

	n       atomic.Int64
	sampled atomic.Int64
}

// NewSamplingSink wraps next with cfg's sampling policy (Every wins
// when both are set). A config with no policy returns a pass-through
// wrapper.
func NewSamplingSink(next Sink, cfg CaptureConfig) *SamplingSink {
	seed := cfg.Seed
	if seed == 0 {
		seed = 29
	}
	s := &SamplingSink{next: next, rng: rand.New(rand.NewSource(seed))}
	if cfg.Every > 1 {
		s.every = int64(cfg.Every)
	} else if cfg.Frac > 0 && cfg.Frac < 1 {
		s.frac = cfg.Frac
	}
	return s
}

// keep applies the policy to the i-th capture (0-based).
func (s *SamplingSink) keep(i int64) bool {
	if s.every > 1 {
		return i%s.every == 0
	}
	if s.frac > 0 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.rng.Float64() < s.frac
	}
	return true
}

// Capture forwards the record when the policy selects it and releases
// it otherwise.
func (s *SamplingSink) Capture(rec *CaptureRecord) error {
	i := s.n.Add(1) - 1
	if !s.keep(i) {
		s.sampled.Add(1)
		rec.Release()
		return nil
	}
	return s.next.Capture(rec)
}

// Flush forwards the barrier to the backing sink.
func (s *SamplingSink) Flush() error { return s.next.Flush() }

// Close closes the backing sink.
func (s *SamplingSink) Close() error { return s.next.Close() }

// SinkStats merges the backing sink's accounting with the sampling
// counter.
func (s *SamplingSink) SinkStats() SinkStats {
	var st SinkStats
	if ss, ok := s.next.(sinkStatser); ok {
		st = ss.SinkStats()
	}
	st.Sampled += s.sampled.Load()
	return st
}
