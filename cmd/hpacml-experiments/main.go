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
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

func main() {
	table := flag.String("table", "", "regenerate one table: 1, 2, 3, 4, or 5")
	figure := flag.String("figure", "", "regenerate one figure: 5, 6, 7, 8a, 8b, 8c, or 9")
	sweep := flag.Int("sweep", 4, "architectures per scatter sweep (Figures 5-8)")
	full := flag.Bool("full", false, "use campaign-scale problem sizes")
	seed := flag.Int64("seed", 29, "random seed")
	work := flag.String("work", "", "working directory (default: temp dir)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(telemetry.VersionString("hpacml-experiments"))
		return
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
			fatal(err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}

	all := *table == "" && *figure == ""
	w := os.Stdout

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
			fatal(err)
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
			fatal(err)
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
			fatal(err)
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
				fatal(err)
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
			fatal(err)
		}
		experiments.WriteFigure9(w, res)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hpacml-experiments:", err)
	os.Exit(1)
}
