// hpacml-collect runs one benchmark with its HPAC-ML region in data
// collection mode and writes the training database — phase one of the
// paper's workflow, driven through the pluggable capture pipeline:
// asynchronous sharded local files by default, a remote hpacml-serve
// ingest endpoint when -db is an http(s):// capture URI. Sampling is
// the benchmark annotation's capture(...) clause, not a flag.
//
// Usage:
//
//	hpacml-collect -benchmark binomial -db data/binomial.gh5 -runs 10 [-full]
//	hpacml-collect -benchmark binomial -db data/binomial.gh5 -runs 1000 \
//	    -shard-records 100 -out BENCH_collect.json
//	hpacml-collect -benchmark binomial -db http://head:8080/binomial -runs 100
//
// On exit the capture report is printed (records written, shards,
// dropped samples, flush failures) and the process exits non-zero when
// the sink dropped records or failed to persist them — an incomplete
// training set must fail the collection job, not surface at training
// time.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/directive"
	"repro/internal/experiments"
	"repro/internal/results"
	"repro/internal/telemetry"
)

// errUsage is a command line run refuses before doing any work. run
// has already written why, and the flag usage, to stderr; main exits 2.
var errUsage = errors.New("hpacml-collect: usage")

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "hpacml-collect:", err)
		os.Exit(1)
	}
}

// run is the command: it parses args, collects, and reports on stdout.
// It refuses a run count below one, a malformed -db reference and an
// unknown benchmark before creating any directory.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hpacml-collect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchmark := fs.String("benchmark", "", "benchmark name: minibude, binomial, bonds, miniweather, particlefilter")
	db := fs.String("db", "", "output database: a .gh5 path, or an http(s)://host/db-name capture URI of a running hpacml-serve")
	runs := fs.Int("runs", 10, "number of region invocations to record (at least 1)")
	full := fs.Bool("full", false, "use campaign-scale problem sizes")
	seed := fs.Int64("seed", 29, "random seed")

	shardRecords := fs.Int("shard-records", 0, "rotate the local database to a fresh shard every N records (0 = single file)")
	queueCap := fs.Int("queue", 0, "capture queue bound in records (0 = default 256)")
	drop := fs.Bool("drop", false, "drop records when the capture queue is full instead of blocking the solver")
	flushEvery := fs.Duration("flush-every", 0, "periodic capture flush interval (0 = default 1s)")
	out := fs.String("out", "", "write the collection report as shared-schema JSON (internal/results) to this path")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if *version {
		fmt.Fprintln(stdout, telemetry.VersionString("hpacml-collect"))
		return nil
	}

	if *benchmark == "" || *db == "" {
		fmt.Fprintln(stderr, "hpacml-collect: -benchmark and -db are required")
		fs.Usage()
		return errUsage
	}
	if *runs < 1 {
		// No invocation means no training set: fail the job, as a
		// capture that lost records does.
		return fmt.Errorf("-runs must be at least 1, got %d", *runs)
	}
	if err := directive.ValidateDBRef(*db); err != nil {
		return err
	}
	scale := experiments.ScaleTest
	if *full {
		scale = experiments.ScaleFull
	}
	h, err := experiments.Lookup(*benchmark, scale)
	if err != nil {
		return err
	}
	if !directive.IsRemoteDB(*db) {
		if err := os.MkdirAll(filepath.Dir(*db), 0o755); err != nil {
			return err
		}
	}
	opt := experiments.QuickOptions()
	if *full {
		opt = experiments.FullOptions()
	}
	opt.CollectRuns = *runs
	opt.Seed = *seed
	opt.Capture.ShardRecords = *shardRecords
	opt.Capture.QueueCap = *queueCap
	opt.Capture.DropWhenFull = *drop
	opt.Capture.FlushEvery = *flushEvery

	start := time.Now()
	rep, err := h.Collect(*db, opt)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "collected %d invocations of %s into %s in %.2fs\n",
		rep.Invocations, *benchmark, *db, time.Since(start).Seconds())
	fmt.Fprintf(stdout, "capture: %d records written", rep.Records)
	if rep.Sampled > 0 {
		fmt.Fprintf(stdout, " (%d sampled out)", rep.Sampled)
	}
	if rep.Shards > 0 {
		fmt.Fprintf(stdout, ", %d shard(s)", rep.Shards)
	}
	if rep.RemoteRecords > 0 {
		fmt.Fprintf(stdout, ", %d ingested remotely", rep.RemoteRecords)
	}
	fmt.Fprintf(stdout, ", %d dropped, %d flushes (%d failed), %d write errors\n",
		rep.Dropped, rep.Flushes, rep.FlushErrors, rep.WriteErrors)

	if *out != "" {
		rec := &results.Record{
			Tool:      "hpacml-collect",
			Benchmark: *benchmark,
			Collect: &results.Collect{
				Runs:          rep.Invocations,
				DB:            *db,
				Records:       rep.Records,
				Sampled:       rep.Sampled,
				Shards:        rep.Shards,
				Dropped:       rep.Dropped,
				Flushes:       rep.Flushes,
				FlushErrors:   rep.FlushErrors,
				WriteErrors:   rep.WriteErrors,
				RemoteRecords: rep.RemoteRecords,
			},
		}
		if err := rec.WriteFile(*out); err != nil {
			return err
		}
	}
	if rep.Failed() {
		return fmt.Errorf("capture pipeline lost records (%d dropped, %d flush failures, %d write errors)",
			rep.Dropped, rep.FlushErrors, rep.WriteErrors)
	}
	return nil
}
