// hpacml-eval deploys a trained surrogate in its benchmark and measures
// end-to-end speedup, QoI error, and the HPAC-ML phase breakdown — phase
// three of the paper's workflow, emitting one CSV row per run like the
// paper's benchmark_evaluation scripts, or (with -json) one record of the
// machine-readable results schema shared with hpacml-collect
// (internal/results).
//
// A model URI in place of the path (-model http://host:8080/binomial)
// serves the region's inference from a running hpacml-serve through
// the remote engine: the same application then drives the server and
// checks its answers, with remote_inference and fallbacks in the -json
// record saying where the inference ran.
//
// Usage:
//
//	hpacml-eval -benchmark binomial -model models/binomial.gmod -runs 20
//	hpacml-eval -benchmark binomial -model models/binomial.gmod -json -out eval.json
//	hpacml-eval -benchmark binomial -model http://127.0.0.1:8080/binomial -json
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
	"repro/internal/results"
	"repro/internal/telemetry"
)

// errUsage is a command line run refuses before doing any work. run
// has already written why, and the flag usage, to stderr; main exits 2.
var errUsage = errors.New("hpacml-eval: usage")

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "hpacml-eval:", err)
		os.Exit(1)
	}
}

// run is the command: it parses args, evaluates, and writes the CSV row
// to stdout or -csv, or the -json record to stdout or -out. Every
// refusal comes before either output is created.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hpacml-eval", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchmark := fs.String("benchmark", "", "benchmark name")
	model := fs.String("model", "", "trained model path (.gmod), or a model URI http://host:port/name served by hpacml-serve")
	runs := fs.Int("runs", 20, "timing repetitions")
	full := fs.Bool("full", false, "use campaign-scale problem sizes")
	seed := fs.Int64("seed", 29, "random seed")
	csvOut := fs.String("csv", "", "optional CSV output path (default stdout)")
	jsonOut := fs.Bool("json", false, "emit the shared results schema (internal/results) instead of CSV")
	outPath := fs.String("out", "", "with -json: output path (default stdout)")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if *version {
		fmt.Fprintln(stdout, telemetry.VersionString("hpacml-eval"))
		return nil
	}

	if *benchmark == "" || *model == "" {
		fmt.Fprintln(stderr, "hpacml-eval: -benchmark and -model are required")
		fs.Usage()
		return errUsage
	}
	if *runs < 1 {
		return fmt.Errorf("-runs must be positive, got %d", *runs)
	}
	scale := experiments.ScaleTest
	if *full {
		scale = experiments.ScaleFull
	}
	h, err := experiments.Lookup(*benchmark, scale)
	if err != nil {
		return err
	}
	opt := experiments.QuickOptions()
	opt.EvalRuns = *runs
	opt.Seed = *seed
	res, err := h.Evaluate(*model, opt)
	if err != nil {
		return err
	}

	if *jsonOut {
		rec := &results.Record{
			Tool:      "hpacml-eval",
			Benchmark: res.Benchmark,
			Model:     *model,
			Eval: &results.Eval{
				Speedup:         res.Speedup,
				Error:           res.Error,
				Metric:          string(h.Info().Metric),
				Params:          res.Params,
				ToTensorSec:     res.ToTensorSec,
				InferenceSec:    res.InferenceSec,
				FromTensorSec:   res.FromTensorSec,
				BaselineError:   res.BaselineError,
				Fallbacks:       res.Fallbacks,
				RemoteInference: res.RemoteInference,
				TrustedRows:     res.TrustedRows,
				UncertainRows:   res.UncertainRows,
				OutOfDomainRows: res.OutOfDomainRows,
			},
		}
		if *outPath == "" {
			return rec.WriteJSON(stdout)
		}
		return rec.WriteFile(*outPath)
	}

	out := stdout
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	w := csv.NewWriter(out)
	w.Write([]string{"benchmark", "speedup", "error", "metric", "params",
		"to_tensor_sec", "inference_sec", "from_tensor_sec", "baseline_error",
		"fallbacks", "remote_inference", "trusted_rows", "uncertain_rows", "out_of_domain_rows"})
	w.Write([]string{
		res.Benchmark,
		fmt.Sprintf("%.4f", res.Speedup),
		fmt.Sprintf("%.6g", res.Error),
		string(h.Info().Metric),
		fmt.Sprintf("%d", res.Params),
		fmt.Sprintf("%.6g", res.ToTensorSec),
		fmt.Sprintf("%.6g", res.InferenceSec),
		fmt.Sprintf("%.6g", res.FromTensorSec),
		fmt.Sprintf("%.6g", res.BaselineError),
		fmt.Sprintf("%d", res.Fallbacks),
		fmt.Sprintf("%d", res.RemoteInference),
		fmt.Sprintf("%d", res.TrustedRows),
		fmt.Sprintf("%d", res.UncertainRows),
		fmt.Sprintf("%d", res.OutOfDomainRows),
	})
	w.Flush()
	return w.Error()
}
