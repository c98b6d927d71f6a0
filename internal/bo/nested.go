package bo

import (
	"math"
	"sync"
)

// NestedConfig controls the two-level search of paper §V-C: the outer
// level proposes architectures for OuterIters iterations with early
// stopping after OuterPatience non-improving trials (the paper uses 100
// and 5); the inner level tunes hyperparameters for InnerIters iterations
// (the paper uses 30).
type NestedConfig struct {
	OuterIters    int
	InnerIters    int
	OuterPatience int
	Seed          int64
	// InnerWorkers is passed to every inner hyperparameter search as
	// Config.Workers: its random-initialization trials (independent
	// training runs) evaluate concurrently, amortizing the Table V
	// campaign across cores. The eval callback must be safe for
	// concurrent calls when InnerWorkers > 1. The hyperparameter points
	// and trial order are identical for any value, but wall-clock
	// measurements inside eval (latency objectives) pick up contention
	// noise from concurrent training runs — use 1 when latency numbers
	// must be reproducible.
	InnerWorkers int
}

// NestedEval trains and scores one (architecture, hyperparameter)
// configuration, returning the model's inference latency (seconds) and
// validation error. The architecture alone determines latency (the
// outer level records the minimum observed across the inner trials, an
// order-independent aggregate); the inner level minimizes validation
// error.
type NestedEval func(arch, hyper map[string]Value) (latencySec, valError float64, err error)

// NestedTrial is one outer-level result: an architecture with its best
// hyperparameters.
type NestedTrial struct {
	Arch       map[string]Value
	BestHyper  map[string]Value
	LatencySec float64
	ValError   float64
	InnerRuns  int
}

// NestedResult is the outcome of a nested search.
type NestedResult struct {
	Trials []*NestedTrial
	Pareto []*NestedTrial
	// Best is the knee point of the Pareto front.
	Best *NestedTrial
	// ModelsEvaluated counts every inner-level training run, matching the
	// paper's "5130 models explored" accounting.
	ModelsEvaluated int
}

// NestedSearch runs the outer multi-objective architecture search with an
// inner hyperparameter search per architecture. Its Pareto front and
// knee point are the outer search's, so Pareto is sorted by latency.
func NestedSearch(archSpace, hyperSpace *Space, eval NestedEval, cfg NestedConfig) (*NestedResult, error) {
	// Checked up front: inside the outer search a bad inner search only
	// shows as failed architectures.
	if err := validate(hyperSpace, cfg.InnerIters); err != nil {
		return nil, err
	}
	res := &NestedResult{}
	// Guards ModelsEvaluated and the latency capture: the inner search's
	// warmup trials run concurrently when InnerWorkers > 1.
	var mu sync.Mutex
	// One entry per outer trial, nil where its inner search failed. The
	// outer search calls its objective serially, in trial order.
	var perTrial []*NestedTrial

	outerObj := func(arch map[string]Value) ([]float64, error) {
		lat := math.Inf(1)
		innerSeed := cfg.Seed + int64(res.ModelsEvaluated)
		inner, err := Minimize(hyperSpace, func(hyper map[string]Value) (float64, error) {
			mu.Lock()
			res.ModelsEvaluated++
			mu.Unlock()
			l, v, err := eval(arch, hyper)
			if err != nil {
				return 0, err
			}
			// Keep the minimum observed latency: order-independent, so
			// concurrent warmup completion order cannot change it, and
			// the least-contended measurement of an architecture-
			// determined quantity.
			mu.Lock()
			if l < lat {
				lat = l
			}
			mu.Unlock()
			return v, nil
		}, Config{Iterations: cfg.InnerIters, Seed: innerSeed, Workers: cfg.InnerWorkers})
		if err != nil {
			perTrial = append(perTrial, nil)
			return nil, err
		}
		perTrial = append(perTrial, &NestedTrial{
			Arch:       arch,
			BestHyper:  inner.Best.Assign,
			LatencySec: lat,
			ValError:   inner.Best.Value,
			InnerRuns:  len(inner.Trials),
		})
		return []float64{lat, inner.Best.Value}, nil
	}

	outer, err := MinimizeMulti(archSpace, outerObj, 2, Config{
		Iterations: cfg.OuterIters,
		Patience:   cfg.OuterPatience,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	nested := make(map[*Trial]*NestedTrial, len(outer.Trials))
	for i, tr := range outer.Trials {
		if !tr.Failed {
			nested[tr] = perTrial[i]
			res.Trials = append(res.Trials, perTrial[i])
		}
	}
	for _, tr := range outer.Pareto {
		res.Pareto = append(res.Pareto, nested[tr])
	}
	res.Best = nested[outer.Best]
	return res, nil
}
