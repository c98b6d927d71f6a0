// Command bench is the repository's benchmark: six closed-loop
// workloads over the embed path (Region.Execute in process) and the
// serve path (serveclient -> HTTP -> coalescer -> replica Region),
// three end-to-end metrics per workload, and an outside-in layer table
// built from spans around the calls into each layer and from the
// layers' public counters. BENCHMARK.json at the repository root
// declares the same names; README.md beside this file is the
// dictionary.
//
//	bash bench/run.sh [-workload a,b] [-seed N] [-rounds 20] [-round-s 1]
//	                  [-seconds S] [-trace 0|1] [-quick]
//	                  [-out results.json] [-trace-out trace.json]
//	bash bench/run.sh -compare a.json b.json
//
// Every metric is printed by name with its unit for every workload, the
// last line of standard output per workload is one JSON object
// (correct, attempted, failed, metrics), and the exit code is non-zero
// on any verification failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// environment stamps a results file with what produced it.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GoMaxProcs int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	Rounds     int     `json:"rounds"`
	RoundS     float64 `json:"round_s"`
	Setups     int     `json:"setups"`
	Traced     bool    `json:"traced"`
	Started    string  `json:"started"`
}

type resultsFile struct {
	Env       environment      `json:"env"`
	Workloads []workloadResult `json:"workloads"`
}

func stampEnvironment(cfg config) environment {
	env := environment{Commit: "unknown", GoVersion: runtime.Version(), GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), CPUModel: "unknown", Seed: cfg.seed, Rounds: cfg.rounds,
		RoundS: cfg.roundDur.Seconds(), Setups: cfg.setups, Traced: cfg.traced,
		Started: time.Now().UTC().Format(time.RFC3339)}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return env
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

func realMain(args []string, stdout io.Writer) int {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	names := fs.String("workload", "", "comma-separated workloads to run (default: all six)")
	fs.Int64Var(&cfg.seed, "seed", cfg.seed, "seed every generated input derives from")
	fs.IntVar(&cfg.rounds, "rounds", cfg.rounds, "untraced rounds per workload; a metric is the quiet quartile over them")
	roundS := fs.Float64("round-s", cfg.roundDur.Seconds(), "measured seconds per round")
	seconds := fs.Float64("seconds", 0, "total measured seconds per workload, split evenly over the rounds (overrides -round-s)")
	trace := fs.Int("trace", 1, "1 adds the traced rounds and the layer replay and reports the layer metrics; 0 reports end-to-end metrics only")
	quick := fs.Bool("quick", false, "smoke sizes: 0.15 s rounds, one setup, 512 options, 2 training epochs")
	out := fs.String("out", "", "write the results file here")
	traceOut := fs.String("trace-out", "", "write the traced rounds' spans here")
	compare := fs.Bool("compare", false, "compare two results files given as arguments instead of running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare wants two results files")
			return 2
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	cfg.traced = *trace != 0
	switch {
	case *quick:
		cfg = cfg.quick()
	case *seconds > 0:
		rounds := cfg.rounds
		if cfg.traced {
			rounds += tracedRounds
		}
		cfg.roundDur = time.Duration(*seconds / float64(rounds) * float64(time.Second))
	default:
		cfg.roundDur = time.Duration(*roundS * float64(time.Second))
	}
	if cfg.rounds < 1 || cfg.roundDur <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -rounds and the round length must be positive")
		return 2
	}
	defs, err := selectWorkloads(*names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	// Model files and capture databases live under the working
	// directory, which for the driver is the checkout.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if cfg.scratch, err = os.MkdirTemp(".bench_build", "run-"); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.scratch)

	file := resultsFile{Env: stampEnvironment(cfg)}
	var spans []span
	if file.Workloads, spans, err = run(cfg, defs); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, res := range file.Workloads {
		if !res.Correct {
			code = 1
		}
	}
	if err := writeOutputs(file, spans, *out, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		code = 1
	}
	printTable(stdout, file)
	for _, res := range file.Workloads {
		fmt.Fprintln(stdout, driverLine(res, cfg.traced))
	}
	return code
}

func selectWorkloads(names string) ([]workloadDef, error) {
	if names == "" {
		return workloadDefs, nil
	}
	var defs []workloadDef
	for _, name := range strings.Split(names, ",") {
		found := false
		for _, d := range workloadDefs {
			if d.Name == name {
				defs, found = append(defs, d), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return defs, nil
}

func writeOutputs(file resultsFile, spans []span, out, traceOut string) error {
	if out != "" {
		b, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if traceOut != "" {
		return writeTrace(traceOut, spans)
	}
	return nil
}

// printTable prints every metric by name with its unit, workload by
// workload.
func printTable(w io.Writer, file resultsFile) {
	e := file.Env
	fmt.Fprintf(w, "commit %s, %s, GOMAXPROCS %d of %d CPUs (%s), seed %d, %d rounds x %.2f s, %d setups\n",
		e.Commit, e.GoVersion, e.GoMaxProcs, e.NumCPU, e.CPUModel, e.Seed, e.Rounds, e.RoundS, e.Setups)
	for _, res := range file.Workloads {
		fmt.Fprintf(w, "\n%s: %d rows/op, %d callers, %d operations attempted, %d failed, correct %v\n",
			res.Name, res.RowsPerOp, res.Callers, res.Attempted, res.Failed, res.Correct)
		for _, p := range res.Problems {
			fmt.Fprintf(w, "  PROBLEM: %s\n", p)
		}
		for _, d := range endToEnd {
			m := res.EndToEnd[d.Name]
			fmt.Fprintf(w, "  %-40s %14.6g %-8s  unrest %.3f over %d\n", d.Name, m.Value, m.Unit, m.Unrest, len(m.Rounds))
		}
		names := make([]string, 0, len(res.PerLayer))
		for name := range res.PerLayer {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := res.PerLayer[name]
			fmt.Fprintf(w, "  %-40s %14.6g %s\n", name, m.Value, m.Unit)
		}
	}
	fmt.Fprintln(w)
}

// driverLine is the one-line JSON result the benchmark's contract
// asks for: every end-to-end metric without tracing, every layer
// metric with it. A layer that is not on the workload's path reads 0
// there, because the contract wants every declared name on every run;
// the results file and the table leave such a metric out instead.
func driverLine(res workloadResult, traced bool) string {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, measured := endToEnd, res.EndToEnd
	if traced {
		defs, measured = perLayer, res.PerLayer
	}
	metrics := make(map[string]valueUnit, len(defs))
	for _, d := range defs {
		metrics[d.Name] = valueUnit{measured[d.Name].Value, d.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}
