// hpacml-guard fits the input-domain guardrail of trust-routed
// execution from a collected database: the per-feature quantile
// envelope of everything the surrogate was trained on, saved as a
// sidecar beside the model so regions annotated with trust(domain:on)
// find it automatically. Run it after collection (and typically after
// hpacml-train, on the same database), giving either -model to place
// the sidecar by the naming convention or -out for an explicit path.
//
// Usage:
//
//	hpacml-guard -db data/binomial.gh5 -region binomial \
//	    -model models/binomial.gmod -quantile 0.01 -margin 0.05
//	hpacml-guard -db data/binomial.gh5 -region binomial -out envelope.guard
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	hpacml "repro"

	"repro/internal/telemetry"
)

// errUsage is a command line run refuses before doing any work. run
// has already written why, and the flag usage, to stderr; main exits 2.
var errUsage = errors.New("hpacml-guard: usage")

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "hpacml-guard:", err)
		os.Exit(1)
	}
}

// run is the command: it parses args, fits the guardrail, saves the
// sidecar, and reports the envelope on stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hpacml-guard", flag.ContinueOnError)
	fs.SetOutput(stderr)
	db := fs.String("db", "", "input database path (.gh5, all shards merged)")
	region := fs.String("region", "", "region group to read inputs from (the benchmark/region name)")
	model := fs.String("model", "", "model path the guardrail gates; the sidecar is written to <model>.guard")
	out := fs.String("out", "", "explicit sidecar output path (overrides -model's naming convention)")
	quantile := fs.Float64("quantile", 0.0, "tail fraction trimmed per side (0 = min/max envelope, 0.01 = 1%..99%)")
	margin := fs.Float64("margin", 0.0, "check-time envelope widening, as a fraction of each feature's span")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if *version {
		fmt.Fprintln(stdout, telemetry.VersionString("hpacml-guard"))
		return nil
	}

	if *db == "" || *region == "" {
		fmt.Fprintln(stderr, "hpacml-guard: -db and -region are required")
		fs.Usage()
		return errUsage
	}
	path := *out
	if path == "" {
		if *model == "" {
			fmt.Fprintln(stderr, "hpacml-guard: give -model (sidecar goes to <model>.guard) or -out")
			fs.Usage()
			return errUsage
		}
		path = hpacml.GuardrailPath(*model)
	}
	g, err := hpacml.FitGuardrailFromDB(*db, *region, *quantile)
	if err != nil {
		return err
	}
	g.Margin = *margin
	if err := g.Save(path); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "hpacml-guard: fitted %d-feature envelope (quantile %g, margin %g) from %s -> %s\n",
		g.Features(), *quantile, *margin, *db, path)
	for f := 0; f < g.Features() && f < 8; f++ {
		fmt.Fprintf(stderr, "hpacml-guard:   feature %d: [%g, %g]\n", f, g.Lo[f], g.Hi[f])
	}
	if g.Features() > 8 {
		fmt.Fprintf(stderr, "hpacml-guard:   ... %d more features\n", g.Features()-8)
	}
	return nil
}
