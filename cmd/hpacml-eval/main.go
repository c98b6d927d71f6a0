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
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/results"
	"repro/internal/telemetry"
)

func main() {
	benchmark := flag.String("benchmark", "", "benchmark name")
	model := flag.String("model", "", "trained model path (.gmod), or a model URI http://host:port/name served by hpacml-serve")
	runs := flag.Int("runs", 20, "timing repetitions")
	full := flag.Bool("full", false, "use campaign-scale problem sizes")
	seed := flag.Int64("seed", 29, "random seed")
	csvOut := flag.String("csv", "", "optional CSV output path (default stdout)")
	jsonOut := flag.Bool("json", false, "emit the shared results schema (internal/results) instead of CSV")
	outPath := flag.String("out", "", "with -json: output path (default stdout)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(telemetry.VersionString("hpacml-eval"))
		return
	}

	if *benchmark == "" || *model == "" {
		fmt.Fprintln(os.Stderr, "hpacml-eval: -benchmark and -model are required")
		flag.Usage()
		os.Exit(2)
	}
	scale := experiments.ScaleTest
	if *full {
		scale = experiments.ScaleFull
	}
	h, err := experiments.Lookup(*benchmark, scale)
	if err != nil {
		fatal(err)
	}
	opt := experiments.QuickOptions()
	opt.EvalRuns = *runs
	opt.Seed = *seed
	res, err := h.Evaluate(*model, opt)
	if err != nil {
		fatal(err)
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
				LatencySec:      res.LatencySec,
				ToTensorSec:     res.ToTensorSec,
				InferenceSec:    res.InferenceSec,
				FromTensorSec:   res.FromTensorSec,
				BaselineError:   res.BaselineError,
				Fallbacks:       res.Fallbacks,
				RemoteInference: res.RemoteInference,
				TrustedRows:     res.TrustedRows,
				UncertainRows:   res.UncertainRows,
				OutOfDomainRows: res.OutOfDomainRows,
				CaptureDrops:    res.CaptureDrops,
				CaptureFlushes:  res.CaptureFlushes,
				RemoteCaptures:  res.RemoteCaptures,
			},
		}
		if err := rec.WriteFile(*outPath); err != nil {
			fatal(err)
		}
		return
	}

	out := os.Stdout
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}
	w := csv.NewWriter(out)
	defer w.Flush()
	w.Write([]string{"benchmark", "speedup", "error", "metric", "params",
		"latency_sec", "to_tensor_sec", "inference_sec", "from_tensor_sec", "baseline_error",
		"fallbacks", "remote_inference", "trusted_rows", "uncertain_rows", "out_of_domain_rows",
		"capture_drops", "capture_flushes", "remote_captures"})
	w.Write([]string{
		res.Benchmark,
		fmt.Sprintf("%.4f", res.Speedup),
		fmt.Sprintf("%.6g", res.Error),
		string(h.Info().Metric),
		fmt.Sprintf("%d", res.Params),
		fmt.Sprintf("%.6g", res.LatencySec),
		fmt.Sprintf("%.6g", res.ToTensorSec),
		fmt.Sprintf("%.6g", res.InferenceSec),
		fmt.Sprintf("%.6g", res.FromTensorSec),
		fmt.Sprintf("%.6g", res.BaselineError),
		fmt.Sprintf("%d", res.Fallbacks),
		fmt.Sprintf("%d", res.RemoteInference),
		fmt.Sprintf("%d", res.TrustedRows),
		fmt.Sprintf("%d", res.UncertainRows),
		fmt.Sprintf("%d", res.OutOfDomainRows),
		fmt.Sprintf("%d", res.CaptureDrops),
		fmt.Sprintf("%d", res.CaptureFlushes),
		fmt.Sprintf("%d", res.RemoteCaptures),
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hpacml-eval:", err)
	os.Exit(1)
}
