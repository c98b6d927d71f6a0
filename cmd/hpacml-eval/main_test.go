package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// refusedBeforeOutputs runs args once with -csv and once with -json
// -out, hands run's error and stderr to check, and fails if either run
// created its output or wrote to stdout.
func refusedBeforeOutputs(t *testing.T, check func(err error, stderr string), args ...string) {
	t.Helper()
	for _, output := range []string{"-csv", "-out"} {
		path := filepath.Join(t.TempDir(), "eval")
		extra := []string{output, path}
		if output == "-out" {
			extra = append(extra, "-json")
		}
		var stdout, stderr bytes.Buffer
		check(run(append(append([]string(nil), args...), extra...), &stdout, &stderr), stderr.String())
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("run %v %v created %s (%v)", args, extra, output, err)
		}
		if stdout.Len() != 0 {
			t.Fatalf("run %v %v: stdout %q, want nothing", args, extra, stdout.String())
		}
	}
}

func TestMissingArgsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-model", "m.gmod"}, {"-benchmark", "bonds"}} {
		refusedBeforeOutputs(t, func(err error, stderr string) {
			if !errors.Is(err, errUsage) {
				t.Fatalf("run %v: %v, want a usage error", args, err)
			}
			if !strings.Contains(stderr, "-benchmark and -model are required") || !strings.Contains(stderr, "Usage of hpacml-eval") {
				t.Fatalf("run %v: stderr lacks the message or the usage:\n%s", args, stderr)
			}
		}, args...)
	}
}

func TestUnknownBenchmarkRefused(t *testing.T) {
	refusedBeforeOutputs(t, func(err error, _ string) {
		if err == nil || errors.Is(err, errUsage) || !strings.Contains(err.Error(), `unknown benchmark "nope"`) {
			t.Fatalf("run -benchmark nope: %v, want the unknown-benchmark refusal", err)
		}
	}, "-benchmark", "nope", "-model", "m.gmod")
}

func TestZeroRunsRefused(t *testing.T) {
	refusedBeforeOutputs(t, func(err error, _ string) {
		if err == nil || errors.Is(err, errUsage) || !strings.Contains(err.Error(), "-runs must be positive, got 0") {
			t.Fatalf("run -runs 0: %v, want the -runs refusal", err)
		}
	}, "-benchmark", "bonds", "-model", "m.gmod", "-runs", "0")
}
