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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bo"
	"repro/internal/experiments"
	"repro/internal/telemetry"
	"repro/internal/workflow"
)

// errUsage is a command line run refuses before doing any work. run
// has already written why, and the flag usage, to stderr; main exits 2.
var errUsage = errors.New("hpacml-search: usage")

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "hpacml-search:", err)
		os.Exit(1)
	}
}

// run is the command: it parses args, checks them before it creates
// the -out directory, runs the campaign and reports on stdout.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hpacml-search", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchmark := fs.String("benchmark", "", "benchmark name, or 'all' for the full campaign")
	outer := fs.Int("outer", 20, "outer-level (architecture) iterations; the paper uses 100")
	inner := fs.Int("inner", 8, "inner-level (hyperparameter) iterations; the paper uses 30")
	patience := fs.Int("patience", 5, "outer early-stopping patience (paper: 5)")
	epochs := fs.Int("epochs", 60, "training epochs per trial")
	out := fs.String("out", "search-out", "working directory for databases and models")
	full := fs.Bool("full", false, "use campaign-scale problem sizes")
	seed := fs.Int64("seed", 29, "random seed")
	parallelism := fs.Int("parallel", 1, "benchmarks searched in parallel when -benchmark all")
	innerWorkers := fs.Int("inner-workers", 1, "concurrent training runs during each inner search's random-initialization phase (>1 adds contention noise to measured latencies)")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if *version {
		fmt.Fprintln(stdout, telemetry.VersionString("hpacml-search"))
		return nil
	}

	if *benchmark == "" {
		fmt.Fprintln(stderr, "hpacml-search: -benchmark is required")
		fs.Usage()
		return errUsage
	}
	if *parallelism < 1 {
		return fmt.Errorf("-parallel must be positive, got %d", *parallelism)
	}
	scale := experiments.ScaleTest
	if *full {
		scale = experiments.ScaleFull
	}
	var targets []*experiments.Harness
	if *benchmark == "all" {
		targets = experiments.Registry(scale)
	} else {
		h, err := experiments.Lookup(*benchmark, scale)
		if err != nil {
			return err
		}
		targets = []*experiments.Harness{h}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
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
		return err
	}

	total := 0
	for _, oc := range results {
		res := oc.res
		total += res.ModelsEvaluated
		fmt.Fprintf(stdout, "\n=== %s: %d models evaluated, %d Pareto-optimal ===\n",
			oc.name, res.ModelsEvaluated, len(res.Pareto))
		for _, tr := range res.Pareto {
			fmt.Fprintf(stdout, "  latency %.3gs  val-error %.6g  arch %v\n",
				tr.LatencySec, tr.ValError, renderAssign(tr.Arch))
		}
		fmt.Fprintf(stdout, "  knee point: latency %.3gs, val-error %.6g, hyper %v\n",
			res.Best.LatencySec, res.Best.ValError, renderAssign(res.Best.BestHyper))
	}
	fmt.Fprintf(stdout, "\ncampaign explored %d models total\n", total)
	return nil
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
