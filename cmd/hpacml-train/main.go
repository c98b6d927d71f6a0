// hpacml-train fits a surrogate model from a collected database and saves
// it in .gmod format for the model() clause — phase two of the paper's
// workflow.
//
// Usage:
//
//	hpacml-train -benchmark binomial -db data/binomial.gh5 \
//	    -model models/binomial.gmod -arch hidden1=64,hidden2=32 \
//	    -lr 3e-3 -epochs 150
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/bo"
	"repro/internal/experiments"
	"repro/internal/telemetry"
)

func main() {
	benchmark := flag.String("benchmark", "", "benchmark name")
	db := flag.String("db", "", "input database path (.gh5)")
	model := flag.String("model", "", "output model path (.gmod)")
	archFlag := flag.String("arch", "", "architecture assignment, e.g. hidden1=64,hidden2=32")
	lr := flag.Float64("lr", 3e-3, "learning rate (Table V)")
	weightDecay := flag.Float64("weight-decay", 1e-4, "weight decay (Table V)")
	dropout := flag.Float64("dropout", 0, "dropout probability (Table V)")
	batch := flag.Int("batch", 64, "batch size (Table V)")
	epochs := flag.Int("epochs", 100, "training epochs")
	normalize := flag.Bool("normalize", false, "standardize features inside the model (recommended before int8 quantization)")
	full := flag.Bool("full", false, "use campaign-scale problem sizes")
	seed := flag.Int64("seed", 29, "random seed")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(telemetry.VersionString("hpacml-train"))
		return
	}

	if *benchmark == "" || *db == "" || *model == "" {
		fmt.Fprintln(os.Stderr, "hpacml-train: -benchmark, -db, and -model are required")
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

	arch, err := parseArch(h, *archFlag, *seed)
	if err != nil {
		fatal(err)
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
		fatal(err)
	}
	valErr, err := h.Train(*db, *model, arch, hyper, opt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("trained %s surrogate: validation loss %.6g, saved to %s\n", *benchmark, valErr, *model)
}

// parseArch turns "k=v,k=v" into an assignment, defaulting unset keys to
// the middle of the harness's search space.
func parseArch(h *experiments.Harness, s string, seed int64) (map[string]bo.Value, error) {
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hpacml-train:", err)
	os.Exit(1)
}
