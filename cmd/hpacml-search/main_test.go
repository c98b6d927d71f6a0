package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMissingBenchmarkIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-out", filepath.Join(t.TempDir(), "s")}, &stdout, &stderr)
	if !errors.Is(err, errUsage) {
		t.Fatalf("run without -benchmark: %v, want a usage error", err)
	}
	if !strings.Contains(stderr.String(), "-benchmark") || !strings.Contains(stderr.String(), "Usage of hpacml-search") {
		t.Fatalf("stderr lacks the message or the usage:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("stdout: %q, want nothing", stdout.String())
	}
}

// refusedBeforeOut runs args plus an -out directory that must not exist
// afterwards, and returns run's error.
func refusedBeforeOut(t *testing.T, args ...string) error {
	t.Helper()
	out := filepath.Join(t.TempDir(), "s")
	var stdout, stderr bytes.Buffer
	err := run(append(args, "-out", out), &stdout, &stderr)
	if _, serr := os.Stat(out); !errors.Is(serr, os.ErrNotExist) {
		t.Fatalf("run %v created -out (%v)", args, serr)
	}
	return err
}

func TestZeroParallelRefusedBeforeOut(t *testing.T) {
	err := refusedBeforeOut(t, "-benchmark", "bonds", "-parallel", "0")
	if err == nil || errors.Is(err, errUsage) || !strings.Contains(err.Error(), "-parallel must be positive") {
		t.Fatalf("run -parallel 0: %v, want the -parallel refusal", err)
	}
}

func TestUnknownBenchmarkRefused(t *testing.T) {
	err := refusedBeforeOut(t, "-benchmark", "nope")
	if err == nil || errors.Is(err, errUsage) || !strings.Contains(err.Error(), `unknown benchmark "nope"`) {
		t.Fatalf("run -benchmark nope: %v, want the unknown-benchmark refusal", err)
	}
}
