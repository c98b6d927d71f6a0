package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// refusedBeforeWork runs args plus a -work directory that must not
// exist afterwards, checks that nothing reached stdout, and returns
// run's error and stderr.
func refusedBeforeWork(t *testing.T, args ...string) (error, string) {
	t.Helper()
	work := filepath.Join(t.TempDir(), "work")
	var stdout, stderr bytes.Buffer
	err := run(append(args, "-work", work), &stdout, &stderr)
	if _, serr := os.Stat(work); !errors.Is(serr, os.ErrNotExist) {
		t.Fatalf("run %v created -work (%v)", args, serr)
	}
	if stdout.Len() != 0 {
		t.Fatalf("run %v wrote to stdout: %q", args, stdout.String())
	}
	return err, stderr.String()
}

func TestUnknownTableRefused(t *testing.T) {
	err, _ := refusedBeforeWork(t, "-table", "6")
	if err == nil || errors.Is(err, errUsage) || !strings.Contains(err.Error(), `unknown table "6"`) {
		t.Fatalf("run -table 6: %v, want the unknown-table refusal", err)
	}
}

func TestUnknownFigureRefused(t *testing.T) {
	err, _ := refusedBeforeWork(t, "-figure", "8d")
	if err == nil || errors.Is(err, errUsage) || !strings.Contains(err.Error(), `unknown figure "8d"`) {
		t.Fatalf("run -figure 8d: %v, want the unknown-figure refusal", err)
	}
}

func TestZeroSweepRefused(t *testing.T) {
	err, _ := refusedBeforeWork(t, "-figure", "7", "-sweep", "0")
	if err == nil || errors.Is(err, errUsage) || !strings.Contains(err.Error(), "-sweep must be positive") {
		t.Fatalf("run -sweep 0: %v, want the -sweep refusal", err)
	}
}

func TestUnknownFlagIsUsageError(t *testing.T) {
	err, stderr := refusedBeforeWork(t, "-tables", "3")
	if !errors.Is(err, errUsage) {
		t.Fatalf("run -tables 3: %v, want a usage error", err)
	}
	if !strings.Contains(stderr, "-tables") || !strings.Contains(stderr, "Usage of hpacml-experiments") {
		t.Fatalf("stderr lacks the message or the usage:\n%s", stderr)
	}
}
