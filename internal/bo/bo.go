// Package bo implements Bayesian optimization over mixed parameter spaces
// and the paper's nested, two-level, multi-objective search (§V-C): an
// outer loop proposes neural architectures to jointly minimize inference
// latency and validation error (ParEGO-style random scalarization with an
// Expected-Improvement acquisition on a GP surrogate), while an inner loop
// tunes training hyperparameters to minimize validation error alone.
package bo

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/gp"
	"repro/internal/workflow"
)

// Value is one concrete parameter assignment.
type Value struct {
	Name  string
	Float float64
	Int   int
	IsInt bool
}

// AsFloat returns the numeric value regardless of kind.
func (v Value) AsFloat() float64 {
	if v.IsInt {
		return float64(v.Int)
	}
	return v.Float
}

// Param is one dimension of a search space. Implementations decode a unit
// coordinate u in [0,1] into a concrete value.
type Param interface {
	Name() string
	Decode(u float64) Value
}

// FloatParam is a continuous parameter on [Min, Max], optionally sampled
// on a log scale (learning rates, weight decays).
type FloatParam struct {
	Key      string
	Min, Max float64
	Log      bool
}

// Name returns the parameter key.
func (p FloatParam) Name() string { return p.Key }

// Decode maps u in [0,1] onto [Min, Max].
func (p FloatParam) Decode(u float64) Value {
	u = clamp01(u)
	var v float64
	if p.Log {
		v = math.Exp(math.Log(p.Min) + u*(math.Log(p.Max)-math.Log(p.Min)))
	} else {
		v = p.Min + u*(p.Max-p.Min)
	}
	return Value{Name: p.Key, Float: v}
}

// IntParam is an integer parameter on [Min, Max] inclusive.
type IntParam struct {
	Key      string
	Min, Max int
}

// Name returns the parameter key.
func (p IntParam) Name() string { return p.Key }

// Decode maps u in [0,1] onto {Min..Max}.
func (p IntParam) Decode(u float64) Value {
	u = clamp01(u)
	span := p.Max - p.Min + 1
	v := p.Min + int(u*float64(span))
	if v > p.Max {
		v = p.Max
	}
	return Value{Name: p.Key, Int: v, IsInt: true}
}

// ChoiceParam selects from an explicit list (e.g. hidden sizes 64, 128,
// ..., 4096 in Table IV).
type ChoiceParam struct {
	Key     string
	Choices []int
}

// Name returns the parameter key.
func (p ChoiceParam) Name() string { return p.Key }

// Decode maps u in [0,1] onto the choice list.
func (p ChoiceParam) Decode(u float64) Value {
	u = clamp01(u)
	i := int(u * float64(len(p.Choices)))
	if i >= len(p.Choices) {
		i = len(p.Choices) - 1
	}
	return Value{Name: p.Key, Int: p.Choices[i], IsInt: true}
}

func clamp01(u float64) float64 {
	if u < 0 {
		return 0
	}
	if u >= 1 {
		return math.Nextafter(1, 0)
	}
	return u
}

// Space is an ordered set of parameters.
type Space struct {
	Params []Param
}

// Decode maps a unit-hypercube point to a named assignment.
func (s *Space) Decode(u []float64) (map[string]Value, error) {
	if len(u) != len(s.Params) {
		return nil, fmt.Errorf("bo: point dimension %d != space dimension %d", len(u), len(s.Params))
	}
	out := make(map[string]Value, len(u))
	for i, p := range s.Params {
		out[p.Name()] = p.Decode(u[i])
	}
	return out, nil
}

// Dim returns the space's dimensionality.
func (s *Space) Dim() int { return len(s.Params) }

// Trial is one evaluated configuration.
type Trial struct {
	U      []float64
	Assign map[string]Value
	Value  float64 // single-objective value (minimized)
	Objs   []float64
	Failed bool
}

// Result is the outcome of an optimization run.
type Result struct {
	Best   *Trial
	Trials []*Trial
	Pareto []*Trial // populated by multi-objective runs
}

// Objective evaluates a configuration; returning an error marks the trial
// failed (it is excluded from the surrogate fit but counts as a trial).
type Objective func(assign map[string]Value) (float64, error)

// MultiObjective evaluates a configuration into k objectives (minimized).
type MultiObjective func(assign map[string]Value) ([]float64, error)

// Config controls an optimization run.
type Config struct {
	Iterations int
	// InitRandom is the number of quasi-random warmup trials before the
	// GP surrogate engages (default: max(4, dim+1)).
	InitRandom int
	// Patience stops the search after this many consecutive
	// non-improving trials; 0 disables (the paper stops the outer level
	// after five).
	Patience int
	Seed     int64
	// Workers bounds the number of concurrent objective evaluations
	// during the random warmup. Every warmup point is drawn from the RNG
	// before any is evaluated, so points, trial order and (for a
	// deterministic objective) results are the same for any Workers
	// value; wall-clock measurements inside the objective pick up
	// contention noise. 0 or 1 evaluates in trial order on the caller's
	// goroutine. The objective must be safe for concurrent calls when
	// Workers > 1. The GP-guided phase is sequential and always calls
	// the objective on the caller's goroutine.
	Workers int
}

// candidates is the number of random points the acquisition function
// scores per GP-guided iteration.
const candidates = 512

func (c *Config) fill(dim int) {
	if c.InitRandom <= 0 {
		c.InitRandom = dim + 1
		if c.InitRandom < 4 {
			c.InitRandom = 4
		}
	}
}

// validate rejects what no search can run.
func validate(space *Space, iterations int) error {
	if space.Dim() == 0 {
		return fmt.Errorf("bo: empty search space")
	}
	if iterations <= 0 {
		return fmt.Errorf("bo: iterations must be positive")
	}
	return nil
}

// problem is what the search loop needs to know about one run's
// objective.
type problem struct {
	// eval evaluates a trial, filling Value or Objs, or marking it
	// Failed.
	eval func(tr *Trial)
	// scalarize draws one iteration's scalarization from rng and returns
	// the value of every trial under it; failed trials map to +Inf.
	scalarize func(rng *rand.Rand, trials []*Trial) []float64
	// record folds the newest trial of res.Trials into res.Best (and
	// res.Pareto) and reports whether it improved the result.
	record func(res *Result, tr *Trial) bool
}

// search is the one optimize loop behind Minimize and MinimizeMulti: a
// random warmup evaluated through one fan-out, then one sequential
// Expected-Improvement step per iteration on a GP fitted to the
// scalarized history, until the budget or the patience runs out.
func search(space *Space, cfg Config, p problem) (*Result, error) {
	if err := validate(space, cfg.Iterations); err != nil {
		return nil, err
	}
	cfg.fill(space.Dim())
	rng := rand.New(rand.NewSource(cfg.Seed))
	newTrial := func(u []float64) *Trial {
		assign, _ := space.Decode(u) // cannot fail: u has the space's dimension
		return &Trial{U: u, Assign: assign}
	}

	// Each warmup iteration scalarizes and then draws its point, as a
	// guided one does, so the RNG stream does not depend on how the
	// warmup is evaluated.
	warm := make([]*Trial, min(cfg.InitRandom, cfg.Iterations))
	for i := range warm {
		p.scalarize(rng, nil)
		warm[i] = newTrial(randPoint(rng, space.Dim()))
	}
	if _, err := workflow.Map(cfg.Workers, len(warm), func(i int) (struct{}, error) {
		p.eval(warm[i])
		return struct{}{}, nil
	}); err != nil {
		return nil, fmt.Errorf("bo: %w", err)
	}

	res := &Result{}
	stale := 0
	record := func(tr *Trial) {
		res.Trials = append(res.Trials, tr)
		if p.record(res, tr) {
			stale = 0
		} else {
			stale++
		}
	}
	for _, tr := range warm {
		record(tr) // the warmup never stops on patience
	}
	for len(res.Trials) < cfg.Iterations {
		ys := p.scalarize(rng, res.Trials)
		tr := newTrial(proposePoint(space.Dim(), res.Trials, ys, rng))
		p.eval(tr)
		record(tr)
		if cfg.Patience > 0 && stale >= cfg.Patience {
			break
		}
	}
	if res.Best == nil {
		return nil, fmt.Errorf("bo: all %d trials failed", len(res.Trials))
	}
	return res, nil
}

// Minimize runs single-objective BO with Expected Improvement. With
// cfg.Workers > 1 the warmup trials evaluate concurrently; see
// Config.Workers.
func Minimize(space *Space, obj Objective, cfg Config) (*Result, error) {
	best := math.Inf(1)
	return search(space, cfg, problem{
		eval: func(tr *Trial) {
			v, err := obj(tr.Assign)
			if err != nil {
				tr.Failed, v = true, math.Inf(1)
			}
			tr.Value = v
		},
		// The identity: a single objective needs no weights.
		scalarize: func(_ *rand.Rand, trials []*Trial) []float64 {
			ys := make([]float64, len(trials))
			for i, tr := range trials {
				ys[i] = tr.Value
			}
			return ys
		},
		record: func(res *Result, tr *Trial) bool {
			if tr.Value < best {
				best, res.Best = tr.Value, tr
				return true
			}
			return false
		},
	})
}

// MinimizeMulti runs multi-objective BO via ParEGO: each iteration draws a
// random weight vector, scalarizes the (normalized) objectives with the
// augmented Chebyshev function, and performs one EI step on the
// scalarization. The Pareto front of all successful trials is returned,
// sorted by the first objective, with its knee point as Best. With
// cfg.Workers > 1 the warmup trials evaluate concurrently; see
// Config.Workers.
func MinimizeMulti(space *Space, obj MultiObjective, nObjs int, cfg Config) (*Result, error) {
	if nObjs < 2 {
		return nil, fmt.Errorf("bo: multi-objective needs >= 2 objectives, got %d", nObjs)
	}
	return search(space, cfg, problem{
		eval: func(tr *Trial) {
			objs, err := obj(tr.Assign)
			if err != nil || len(objs) != nObjs {
				tr.Failed = true
				objs = make([]float64, nObjs)
				for i := range objs {
					objs[i] = math.Inf(1)
				}
			}
			tr.Objs = objs
		},
		scalarize: func(rng *rand.Rand, trials []*Trial) []float64 {
			return scalarizeTrials(trials, drawChebyshevWeights(rng, nObjs))
		},
		record: func(res *Result, tr *Trial) bool {
			before := len(res.Pareto)
			res.Pareto = paretoFront(res.Trials)
			if len(res.Pareto) == 0 {
				return false
			}
			res.Best = kneePoint(res.Pareto)
			return len(res.Pareto) != before || slices.Contains(res.Pareto, tr)
		},
	})
}

// randPoint draws a uniform point of the unit hypercube.
func randPoint(rng *rand.Rand, dim int) []float64 {
	u := make([]float64, dim)
	for i := range u {
		u[i] = rng.Float64()
	}
	return u
}

// proposePoint returns the best-EI candidate under a GP fitted to the
// scalarized values ys of past trials, or a random point while fewer
// than two trials have a finite value.
func proposePoint(dim int, trials []*Trial, ys []float64, rng *rand.Rand) []float64 {
	var xs [][]float64
	var fit []float64
	best := math.Inf(1)
	for i, tr := range trials {
		if math.IsInf(ys[i], 1) {
			continue
		}
		xs = append(xs, tr.U)
		fit = append(fit, ys[i])
		if ys[i] < best {
			best = ys[i]
		}
	}
	if len(xs) < 2 {
		return randPoint(rng, dim)
	}
	model, err := gp.FitAuto(xs, fit)
	if err != nil {
		return randPoint(rng, dim)
	}
	var bestU []float64
	bestEI := math.Inf(-1)
	for c := 0; c < candidates; c++ {
		u := randPoint(rng, dim)
		mu, v := model.Predict(u)
		if ei := expectedImprovement(mu, v, best); ei > bestEI {
			bestEI = ei
			bestU = u
		}
	}
	if bestU == nil {
		return randPoint(rng, dim)
	}
	return bestU
}

// expectedImprovement for minimization: E[max(best - Y, 0)].
func expectedImprovement(mu, variance, best float64) float64 {
	sd := math.Sqrt(variance)
	if sd < 1e-12 {
		if mu < best {
			return best - mu
		}
		return 0
	}
	z := (best - mu) / sd
	return (best-mu)*stdNormCDF(z) + sd*stdNormPDF(z)
}

func stdNormPDF(z float64) float64 {
	return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
}

func stdNormCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// drawChebyshevWeights draws one ParEGO iteration's random
// scalarization weight vector (normalized exponential draws).
func drawChebyshevWeights(rng *rand.Rand, nObjs int) []float64 {
	w := make([]float64, nObjs)
	var sum float64
	for i := range w {
		w[i] = -math.Log(1 - rng.Float64())
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// scalarizeTrials computes augmented-Chebyshev values of past trials under
// weights w, normalizing each objective to [0,1] over the history.
func scalarizeTrials(trials []*Trial, w []float64) []float64 {
	lo := make([]float64, len(w))
	hi := make([]float64, len(w))
	for i := range lo {
		lo[i], hi[i] = math.Inf(1), math.Inf(-1)
	}
	for _, tr := range trials {
		if tr.Failed {
			continue
		}
		for i, v := range tr.Objs {
			if v < lo[i] {
				lo[i] = v
			}
			if v > hi[i] {
				hi[i] = v
			}
		}
	}
	out := make([]float64, len(trials))
	for ti, tr := range trials {
		if tr.Failed {
			out[ti] = math.Inf(1)
			continue
		}
		maxTerm := math.Inf(-1)
		var sumTerm float64
		for i, v := range tr.Objs {
			span := hi[i] - lo[i]
			if span < 1e-12 {
				span = 1
			}
			nv := (v - lo[i]) / span
			t := w[i] * nv
			if t > maxTerm {
				maxTerm = t
			}
			sumTerm += t
		}
		out[ti] = maxTerm + 0.05*sumTerm
	}
	return out
}

// paretoFront returns the non-dominated successful trials (minimization).
func paretoFront(trials []*Trial) []*Trial {
	var front []*Trial
	for _, a := range trials {
		if a.Failed {
			continue
		}
		dominated := false
		for _, b := range trials {
			if b == a || b.Failed {
				continue
			}
			if dominates(b.Objs, a.Objs) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, a)
		}
	}
	sort.Slice(front, func(i, j int) bool { return front[i].Objs[0] < front[j].Objs[0] })
	return front
}

// dominates reports whether a dominates b: <= in all objectives and < in
// at least one.
func dominates(a, b []float64) bool {
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

// kneePoint returns the Pareto member with the smallest normalized
// objective sum.
func kneePoint(front []*Trial) *Trial {
	if len(front) == 1 {
		return front[0]
	}
	n := len(front[0].Objs)
	lo := make([]float64, n)
	hi := make([]float64, n)
	for i := range lo {
		lo[i], hi[i] = math.Inf(1), math.Inf(-1)
	}
	for _, tr := range front {
		for i, v := range tr.Objs {
			if v < lo[i] {
				lo[i] = v
			}
			if v > hi[i] {
				hi[i] = v
			}
		}
	}
	var best *Trial
	bestSum := math.Inf(1)
	for _, tr := range front {
		var s float64
		for i, v := range tr.Objs {
			span := hi[i] - lo[i]
			if span < 1e-12 {
				span = 1
			}
			s += (v - lo[i]) / span
		}
		if s < bestSum {
			bestSum = s
			best = tr
		}
	}
	return best
}
