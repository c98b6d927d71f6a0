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
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/directive"
	"repro/internal/experiments"
	"repro/internal/results"
	"repro/internal/telemetry"
)

func main() {
	benchmark := flag.String("benchmark", "", "benchmark name: minibude, binomial, bonds, miniweather, particlefilter")
	db := flag.String("db", "", "output database: a .gh5 path, or an http(s)://host/db-name capture URI of a running hpacml-serve")
	runs := flag.Int("runs", 10, "number of region invocations to record")
	full := flag.Bool("full", false, "use campaign-scale problem sizes")
	seed := flag.Int64("seed", 29, "random seed")

	shardRecords := flag.Int("shard-records", 0, "rotate the local database to a fresh shard every N records (0 = single file)")
	queueCap := flag.Int("queue", 0, "capture queue bound in records (0 = default 256)")
	drop := flag.Bool("drop", false, "drop records when the capture queue is full instead of blocking the solver")
	flushEvery := flag.Duration("flush-every", 0, "periodic capture flush interval (0 = default 1s)")
	out := flag.String("out", "", "write the collection report as shared-schema JSON (internal/results) to this path")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(telemetry.VersionString("hpacml-collect"))
		return
	}

	if *benchmark == "" || *db == "" {
		fmt.Fprintln(os.Stderr, "hpacml-collect: -benchmark and -db are required")
		flag.Usage()
		os.Exit(2)
	}
	if err := directive.ValidateDBRef(*db); err != nil {
		fatal(err)
	}
	scale := experiments.ScaleTest
	if *full {
		scale = experiments.ScaleFull
	}
	h, err := experiments.Lookup(*benchmark, scale)
	if err != nil {
		fatal(err)
	}
	if !directive.IsRemoteDB(*db) {
		if err := os.MkdirAll(filepath.Dir(*db), 0o755); err != nil {
			fatal(err)
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
		fatal(err)
	}

	fmt.Printf("collected %d invocations of %s into %s in %.2fs\n",
		rep.Invocations, *benchmark, *db, time.Since(start).Seconds())
	fmt.Printf("capture: %d records written", rep.Records)
	if rep.Sampled > 0 {
		fmt.Printf(" (%d sampled out)", rep.Sampled)
	}
	if rep.Shards > 0 {
		fmt.Printf(", %d shard(s)", rep.Shards)
	}
	if rep.RemoteRecords > 0 {
		fmt.Printf(", %d ingested remotely", rep.RemoteRecords)
	}
	fmt.Printf(", %d dropped, %d flushes (%d failed), %d write errors\n",
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
			fatal(err)
		}
	}
	if rep.Failed() {
		fmt.Fprintf(os.Stderr, "hpacml-collect: capture pipeline lost records (%d dropped, %d flush failures, %d write errors)\n",
			rep.Dropped, rep.FlushErrors, rep.WriteErrors)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hpacml-collect:", err)
	os.Exit(1)
}
