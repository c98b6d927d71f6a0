package main

import (
	"fmt"
	"math"
	"os"
	"time"

	hpacml "repro"

	"repro/internal/serveapi"
)

// config sizes a run. Everything the workloads generate derives from
// seed; the program under test sees only the generated inputs.
type config struct {
	seed     int64
	rounds   int           // untraced rounds per workload
	roundDur time.Duration // measured time per round
	traced   bool          // add the traced rounds and the layer replay
	setups   int           // fewest setups per workload; setup_s is their quiet quartile

	setupBudget time.Duration // a cheap setup is repeated until this much is spent on it

	replayChunk time.Duration // one timed batch of calls in the layer replay

	// The binomial portfolio and the small model's training budget.
	options, epochs int

	scratch string // directory for model files and capture databases
}

func defaultConfig() config {
	return config{seed: 1, rounds: 20, roundDur: time.Second, traced: true, setups: 3,
		setupBudget: 1500 * time.Millisecond, replayChunk: 8 * time.Millisecond, options: 8192, epochs: 20}
}

// quick shrinks the run to a smoke: short rounds, one setup, a
// 512-option portfolio and two training epochs.
func (c config) quick() config {
	c.rounds, c.roundDur, c.setups, c.setupBudget = 2, 150*time.Millisecond, 1, 0
	c.replayChunk = time.Millisecond
	c.options, c.epochs = 512, 2
	return c
}

// ringSlabs is how many distinct input slabs each caller cycles
// through; warmupOps how many operations each caller runs before the
// first timed one.
const (
	ringSlabs = 8
	warmupOps = 8
)

// band is the interval a workload's qoi_error must land in: lo < e <= hi,
// or exactly 0 when hi is 0.
type band struct{ lo, hi float64 }

func (b band) holds(e float64) bool {
	if b.hi == 0 {
		return e == 0
	}
	return e > b.lo && e <= b.hi
}

func (b band) String() string {
	if b.hi == 0 {
		return "exactly 0"
	}
	return fmt.Sprintf("(%g, %g]", b.lo, b.hi)
}

// phaseTimes is the part of a Region's public accounting the layer
// table uses, from hpacml.Stats (embedded regions) or the replica
// pool's sum in Server.Snapshot (served models).
type phaseTimes struct {
	toTensor, fromTensor, engine, dbWrite time.Duration
}

func phasesOf(s hpacml.Stats) phaseTimes {
	return phaseTimes{s.ToTensor, s.FromTensor, s.Inference + s.BatchInference, s.DBWrite}
}

func phasesOfWire(s serveapi.RegionStats) phaseTimes {
	return phaseTimes{s.ToTensor, s.FromTensor, s.Inference + s.BatchInference, s.DBWrite}
}

func (p phaseTimes) sub(q phaseTimes) phaseTimes {
	return phaseTimes{p.toTensor - q.toTensor, p.fromTensor - q.fromTensor, p.engine - q.engine, p.dbWrite - q.dbWrite}
}

// counters is one reading of the public counters on a workload's path.
type counters struct {
	phases phaseTimes
	serve  serveapi.ModelSnapshot // Server.Snapshot(), serve workloads
	prom   map[string]float64     // GET /metrics, serve workloads
}

// verdict is what checking a workload's outputs after timing found.
type verdict struct {
	qoi      float64 // NaN when the workload has no surrogate answer to judge
	failures int     // lost or unverifiable work found after the fact (sink drops, write errors)
	problems []string
	layers   map[string]float64
}

func (v *verdict) problemf(format string, args ...any) {
	v.problems = append(v.problems, fmt.Sprintf(format, args...))
}

// workload is one set-up workload. Setup builds it; the runner times
// op from callers closed-loop goroutines, then asks for the layer view
// and the verdict, then closes it.
type workload interface {
	info() *base

	// op runs caller's seq-th operation and returns how long the program
	// took as the caller saw it. Staging the inputs and checking the
	// answer against the f64 reference happen outside that duration; a
	// wrong answer is an error like any other.
	op(caller, seq int, tr *tracer) (time.Duration, error)

	// roundDone is housekeeping between rounds, outside any timing.
	roundDone() error

	// snapshot reads the layers' public counters; layers turns their
	// movement across the traced round, with that round's spans, into
	// per-layer metrics.
	snapshot() (counters, error)
	layers(before, after counters, agg map[string]*spanTotals, rows int) map[string]float64

	// replay calls each layer's public functions directly, single
	// threaded, on the workload's own slab at the batch size the
	// workload produces.
	replay() (map[string]float64, error)

	// verify judges the outputs on a fixed held-out slab after timing.
	verify() verdict

	close() error
}

// base is what every workload carries.
type base struct {
	def       workloadDef
	rowsPerOp int
	callers   int
	band      band
	dir       string             // the workload's scratch directory, removed on close
	setup     map[string]float64 // layer metrics measured during setup
}

func (b *base) info() *base      { return b }
func (b *base) roundDone() error { return nil }

func newBase(cfg config, def workloadDef, rowsPerOp, callers int, bd band) (*base, error) {
	dir, err := os.MkdirTemp(cfg.scratch, def.Name+"-")
	if err != nil {
		return nil, err
	}
	return &base{def: def, rowsPerOp: rowsPerOp, callers: callers, band: bd, dir: dir,
		setup: make(map[string]float64)}, nil
}

// setupWorkload builds the named workload: everything before its first
// timed operation, warm-up included.
func setupWorkload(cfg config, def workloadDef) (workload, error) {
	switch def.Name {
	case "embed_infer":
		return setupEmbed(cfg, def, false)
	case "embed_collect":
		return setupEmbed(cfg, def, true)
	case "serve_slab":
		return setupServe(cfg, def, buildSmall, 256, precF64, band{})
	case "serve_wide_f64":
		return setupServe(cfg, def, buildWide, 64, precF64, band{})
	case "serve_wide_f32":
		return setupServe(cfg, def, buildWide, 64, precF32, band{0, 1e-4})
	case "serve_wide_i8":
		// A zero error would mean the engine silently served f64: until
		// the server reports its effective precision this band is the
		// only outside-in check of it.
		return setupServe(cfg, def, buildWide, 64, precI8, band{1e-4, 0.05})
	}
	return nil, fmt.Errorf("unknown workload %q", def.Name)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// perRow divides a duration by a row count, in nanoseconds.
func perRow(d time.Duration, rows int) float64 {
	if rows == 0 {
		return math.NaN()
	}
	return float64(d) / float64(rows)
}
