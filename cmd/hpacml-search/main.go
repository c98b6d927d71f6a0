// hpacml-search runs the paper's nested, two-level, multi-objective
// Bayesian-optimization campaign for one benchmark (§V-C): the outer
// level searches the Table IV architecture space for models that jointly
// minimize inference latency and validation error; the inner level tunes
// the Table V hyperparameters per architecture. It prints the Pareto
// front and the knee-point model.
//
// Usage:
//
//	hpacml-search -benchmark bonds -outer 20 -inner 8 -out results/
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bo"
	"repro/internal/experiments"
	"repro/internal/telemetry"
	"repro/internal/workflow"
)

func main() {
	benchmark := flag.String("benchmark", "", "benchmark name, or 'all' for the full campaign")
	outer := flag.Int("outer", 20, "outer-level (architecture) iterations; the paper uses 100")
	inner := flag.Int("inner", 8, "inner-level (hyperparameter) iterations; the paper uses 30")
	patience := flag.Int("patience", 5, "outer early-stopping patience (paper: 5)")
	epochs := flag.Int("epochs", 60, "training epochs per trial")
	out := flag.String("out", "search-out", "working directory for databases and models")
	full := flag.Bool("full", false, "use campaign-scale problem sizes")
	seed := flag.Int64("seed", 29, "random seed")
	parallelism := flag.Int("parallel", 1, "benchmarks searched in parallel when -benchmark all")
	innerWorkers := flag.Int("inner-workers", 1, "concurrent training runs during each inner search's random-initialization phase (>1 adds contention noise to measured latencies)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(telemetry.VersionString("hpacml-search"))
		return
	}

	if *benchmark == "" {
		fmt.Fprintln(os.Stderr, "hpacml-search: -benchmark is required")
		flag.Usage()
		os.Exit(2)
	}
	if *parallelism < 1 {
		fatal(fmt.Errorf("-parallel must be positive, got %d", *parallelism))
	}
	scale := experiments.ScaleTest
	if *full {
		scale = experiments.ScaleFull
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	opt := experiments.QuickOptions()
	opt.TrainEpochs = *epochs
	opt.Seed = *seed
	cfg := bo.NestedConfig{
		OuterIters:    *outer,
		InnerIters:    *inner,
		OuterPatience: *patience,
		Seed:          *seed,
		InnerWorkers:  *innerWorkers,
	}

	var targets []*experiments.Harness
	if *benchmark == "all" {
		targets = experiments.Registry(scale)
	} else {
		h, err := experiments.Lookup(*benchmark, scale)
		if err != nil {
			fatal(err)
		}
		targets = []*experiments.Harness{h}
	}

	// The campaign is orchestrated like the paper's Parsl workflow:
	// per-benchmark searches as parallel tasks.
	type outcome struct {
		name string
		res  *bo.NestedResult
	}
	results, err := workflow.Map(*parallelism, len(targets), func(i int) (outcome, error) {
		h := targets[i]
		res, err := experiments.NestedCampaign(h, *out, opt, cfg)
		if err != nil {
			return outcome{}, fmt.Errorf("%s: %w", h.Info().Name, err)
		}
		return outcome{name: h.Info().Name, res: res}, nil
	})
	if err != nil {
		fatal(err)
	}

	total := 0
	for _, oc := range results {
		res := oc.res
		total += res.ModelsEvaluated
		fmt.Printf("\n=== %s: %d models evaluated, %d Pareto-optimal ===\n",
			oc.name, res.ModelsEvaluated, len(res.Pareto))
		for _, tr := range res.Pareto {
			fmt.Printf("  latency %.3gs  val-error %.6g  arch %v\n",
				tr.LatencySec, tr.ValError, renderAssign(tr.Arch))
		}
		fmt.Printf("  knee point: latency %.3gs, val-error %.6g, hyper %v\n",
			res.Best.LatencySec, res.Best.ValError, renderAssign(res.Best.BestHyper))
	}
	fmt.Printf("\ncampaign explored %d models total\n", total)
}

func renderAssign(m map[string]bo.Value) string {
	s := "{"
	first := true
	for k, v := range m {
		if !first {
			s += ", "
		}
		first = false
		if v.IsInt {
			s += fmt.Sprintf("%s=%d", k, v.Int)
		} else {
			s += fmt.Sprintf("%s=%.4g", k, v.Float)
		}
	}
	return s + "}"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hpacml-search:", err)
	os.Exit(1)
}
