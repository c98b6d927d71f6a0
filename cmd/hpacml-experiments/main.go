// hpacml-experiments regenerates the paper's tables and figures end to
// end: Tables I–V and Figures 5–9 (the harnesses are in
// internal/experiments, tables.go and figures.go).
//
// Usage:
//
//	hpacml-experiments                    # everything, test scale
//	hpacml-experiments -table 3           # one table
//	hpacml-experiments -figure 8b -sweep 8
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// errUsage is a command line run refuses before doing any work. run
// has already written why, and the flag usage, to stderr; main exits 2.
var errUsage = errors.New("hpacml-experiments: usage")

// The -table and -figure values run accepts; "8" is all three Figure 8
// panels.
var (
	tables  = []string{"1", "2", "3", "4", "5"}
	figures = []string{"5", "6", "7", "8", "8a", "8b", "8c", "9"}
)

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "hpacml-experiments:", err)
		os.Exit(1)
	}
}

// run is the command: it parses args and writes the chosen tables and
// figures to stdout. It refuses an unknown -table or -figure and a
// -sweep below 1 before it creates the working directory.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hpacml-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.String("table", "", "regenerate one table: 1, 2, 3, 4, or 5")
	figure := fs.String("figure", "", "regenerate one figure: 5, 6, 7, 8a, 8b, 8c, or 9 (8 for all three panels)")
	sweep := fs.Int("sweep", 4, "architectures per scatter sweep (Figures 5-8)")
	full := fs.Bool("full", false, "use campaign-scale problem sizes")
	seed := fs.Int64("seed", 29, "random seed")
	work := fs.String("work", "", "working directory (default: temp dir)")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if *version {
		fmt.Fprintln(stdout, telemetry.VersionString("hpacml-experiments"))
		return nil
	}
	switch {
	case *table != "" && !slices.Contains(tables, *table):
		return fmt.Errorf("unknown table %q (valid: %v)", *table, tables)
	case *figure != "" && !slices.Contains(figures, *figure):
		return fmt.Errorf("unknown figure %q (valid: %v)", *figure, figures)
	case *sweep < 1:
		return fmt.Errorf("-sweep must be positive, got %d", *sweep)
	}

	scale := experiments.ScaleTest
	opt := experiments.QuickOptions()
	if *full {
		scale = experiments.ScaleFull
		opt = experiments.FullOptions()
	}
	opt.Seed = *seed

	dir := *work
	if dir == "" {
		tmp, err := os.MkdirTemp("", "hpacml-experiments-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	all := *table == "" && *figure == ""
	w := stdout

	if all || *table == "1" {
		experiments.WriteTable1(w, scale)
		fmt.Fprintln(w)
	}
	if all || *table == "2" {
		experiments.WriteTable2(w, scale)
		fmt.Fprintln(w)
	}
	if all || *table == "3" {
		rows, err := experiments.Table3(dir, scale, opt)
		if err != nil {
			return err
		}
		experiments.WriteTable3(w, rows)
		fmt.Fprintln(w)
	}
	if all || *table == "4" {
		experiments.WriteTable4(w, scale)
		fmt.Fprintln(w)
	}
	if all || *table == "5" {
		experiments.WriteTable5(w)
		fmt.Fprintln(w)
	}

	var bestResults []experiments.EvalResult
	if all || *figure == "5" || *figure == "6" {
		rows, best, err := experiments.Figure5(dir, scale, opt, *sweep)
		if err != nil {
			return err
		}
		bestResults = best
		if all || *figure == "5" {
			experiments.WriteFigure5(w, rows)
			fmt.Fprintln(w)
		}
	}
	if all || *figure == "6" {
		experiments.WriteFigure6(w, experiments.Figure6(bestResults))
		fmt.Fprintln(w)
	}
	if all || *figure == "7" {
		pts, baseline, err := experiments.Figure7(dir, scale, opt, *sweep)
		if err != nil {
			return err
		}
		experiments.WriteFigure7(w, pts, baseline)
		fmt.Fprintln(w)
	}
	for _, panel := range []struct{ flag, bench string }{
		{"8a", "minibude"}, {"8b", "binomial"}, {"8c", "bonds"},
	} {
		if all || *figure == panel.flag || *figure == "8" {
			pts, err := experiments.Figure8(dir, scale, opt, panel.bench, *sweep)
			if err != nil {
				return err
			}
			experiments.WriteFigure8(w, panel.bench, pts)
			fmt.Fprintln(w)
		}
	}
	if all || *figure == "9" {
		spinup, window := 20, 10
		if *full {
			spinup, window = 100, 40
		}
		res, err := experiments.Figure9(dir, scale, opt, spinup, window)
		if err != nil {
			return err
		}
		experiments.WriteFigure9(w, res)
	}
	return nil
}
