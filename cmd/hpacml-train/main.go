// hpacml-train fits a surrogate model from a collected database and saves
// it in .gmod format for the model() clause — phase two of the paper's
// workflow.
//
// Usage:
//
//	hpacml-train -benchmark binomial -db data/binomial.gh5 \
//	    -model models/binomial.gmod -arch hidden1=64,hidden2=32 -epochs 150
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/bo"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/telemetry"
)

// errUsage is a command line run refuses before doing any work. run
// has already written why, and the flag usage, to stderr; main exits 2.
var errUsage = errors.New("hpacml-train: usage")

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "hpacml-train:", err)
		os.Exit(1)
	}
}

// run is the command: it parses args, trains, and reports on stdout.
// Every training flag defaults to nn.Recipe's value.
func run(args []string, stdout, stderr io.Writer) error {
	recipe := nn.Recipe(100, 29)
	fs := flag.NewFlagSet("hpacml-train", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchmark := fs.String("benchmark", "", "benchmark name")
	db := fs.String("db", "", "input database path (.gh5)")
	model := fs.String("model", "", "output model path (.gmod)")
	archFlag := fs.String("arch", "", "architecture assignment, e.g. hidden1=64,hidden2=32")
	lr := fs.Float64("lr", recipe.LR, "learning rate (Table V)")
	weightDecay := fs.Float64("weight-decay", recipe.WeightDecay, "weight decay (Table V)")
	dropout := fs.Float64("dropout", 0, "dropout probability (Table V)")
	batch := fs.Int("batch", recipe.BatchSize, "batch size (Table V)")
	epochs := fs.Int("epochs", recipe.Epochs, "training epochs")
	normalize := fs.Bool("normalize", false, "standardize features inside the model (recommended before int8 quantization)")
	full := fs.Bool("full", false, "use campaign-scale problem sizes")
	seed := fs.Int64("seed", recipe.Seed, "random seed")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if *version {
		fmt.Fprintln(stdout, telemetry.VersionString("hpacml-train"))
		return nil
	}

	if *benchmark == "" || *db == "" || *model == "" {
		fmt.Fprintln(stderr, "hpacml-train: -benchmark, -db, and -model are required")
		fs.Usage()
		return errUsage
	}
	scale := experiments.ScaleTest
	if *full {
		scale = experiments.ScaleFull
	}
	h, err := experiments.Lookup(*benchmark, scale)
	if err != nil {
		return err
	}

	arch, err := parseArch(h, *archFlag)
	if err != nil {
		return err
	}
	hyper := map[string]bo.Value{
		"lr":           {Name: "lr", Float: *lr},
		"weight_decay": {Name: "weight_decay", Float: *weightDecay},
		"dropout":      {Name: "dropout", Float: *dropout},
		"batch":        {Name: "batch", Int: *batch, IsInt: true},
	}
	opt := experiments.QuickOptions()
	opt.TrainEpochs = *epochs
	opt.Seed = *seed
	opt.Normalize = *normalize
	if err := os.MkdirAll(filepath.Dir(*model), 0o755); err != nil {
		return err
	}
	valErr, err := h.Train(*db, *model, arch, hyper, opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trained %s surrogate: validation loss %.6g, saved to %s\n", *benchmark, valErr, *model)
	return nil
}

// parseArch turns "k=v,k=v" into an assignment, defaulting unset keys to
// the middle of the harness's search space.
func parseArch(h *experiments.Harness, s string) (map[string]bo.Value, error) {
	space := h.ArchSpace()
	mid := make([]float64, space.Dim())
	for i := range mid {
		mid[i] = 0.5
	}
	arch, err := space.Decode(mid)
	if err != nil {
		return nil, err
	}
	if s == "" {
		return arch, nil
	}
	for _, kv := range strings.Split(s, ",") {
		parts := strings.SplitN(strings.TrimSpace(kv), "=", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad -arch entry %q (want key=value)", kv)
		}
		key := parts[0]
		if _, known := arch[key]; !known {
			return nil, fmt.Errorf("unknown architecture parameter %q (space has %v)", key, keys(arch))
		}
		if iv, err := strconv.Atoi(parts[1]); err == nil {
			arch[key] = bo.Value{Name: key, Int: iv, IsInt: true}
			continue
		}
		fv, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("bad value in -arch entry %q: %v", kv, err)
		}
		arch[key] = bo.Value{Name: key, Float: fv}
	}
	return arch, nil
}

func keys(m map[string]bo.Value) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
