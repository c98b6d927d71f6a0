package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMissingFlagsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-db", filepath.Join(t.TempDir(), "x.gh5")},
		{"-benchmark", "binomial"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		if !errors.Is(err, errUsage) {
			t.Fatalf("run %v: %v, want a usage error", args, err)
		}
		if !strings.Contains(stderr.String(), "-benchmark and -db are required") || !strings.Contains(stderr.String(), "Usage of hpacml-collect") {
			t.Fatalf("run %v: stderr lacks the message or the usage:\n%s", args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Fatalf("run %v: stdout %q, want nothing", args, stdout.String())
		}
	}
}

// refusedBeforeDB runs args plus a -db path whose directory must not
// exist afterwards, and returns run's error.
func refusedBeforeDB(t *testing.T, args ...string) error {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "db")
	var stdout, stderr bytes.Buffer
	err := run(append(args, "-db", filepath.Join(dir, "x.gh5")), &stdout, &stderr)
	if _, serr := os.Stat(dir); !errors.Is(serr, os.ErrNotExist) {
		t.Fatalf("run %v created the -db directory (%v)", args, serr)
	}
	if stdout.Len() != 0 {
		t.Fatalf("run %v: stdout %q, want nothing", args, stdout.String())
	}
	return err
}

// TestNoRunsRefusedBeforeDB: a collection of no invocations writes no
// training set, so it must fail the job rather than report 0 records
// and exit 0.
func TestNoRunsRefusedBeforeDB(t *testing.T) {
	for _, runs := range []string{"0", "-1"} {
		err := refusedBeforeDB(t, "-benchmark", "binomial", "-runs", runs)
		if err == nil || errors.Is(err, errUsage) || !strings.Contains(err.Error(), "-runs must be at least 1") {
			t.Fatalf("run -runs %s: %v, want the -runs refusal", runs, err)
		}
	}
}

func TestUnknownBenchmarkRefused(t *testing.T) {
	err := refusedBeforeDB(t, "-benchmark", "nope")
	if err == nil || errors.Is(err, errUsage) || !strings.Contains(err.Error(), `unknown benchmark "nope"`) {
		t.Fatalf("run -benchmark nope: %v, want the unknown-benchmark refusal", err)
	}
}

func TestInvalidDBRefRefused(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-benchmark", "binomial", "-db", "s3://bucket/x.gh5"}, &stdout, &stderr)
	if err == nil || errors.Is(err, errUsage) || !strings.Contains(err.Error(), "s3") {
		t.Fatalf("run -db s3://bucket/x.gh5: %v, want the reference refused", err)
	}
	if stdout.Len() != 0 {
		t.Fatalf("stdout: %q, want nothing", stdout.String())
	}
}
