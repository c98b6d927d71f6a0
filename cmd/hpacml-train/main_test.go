package main

import (
	"bytes"
	"errors"
	"flag"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/nn"
)

func TestMissingDBIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-benchmark", "bonds", "-model", filepath.Join(t.TempDir(), "m.gmod")}, &stdout, &stderr)
	if !errors.Is(err, errUsage) {
		t.Fatalf("run without -db: %v, want a usage error", err)
	}
	if !strings.Contains(stderr.String(), "-db") || !strings.Contains(stderr.String(), "Usage of hpacml-train") {
		t.Fatalf("stderr lacks the message or the usage:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("stdout: %q, want nothing", stdout.String())
	}
}

func TestUnknownArchKey(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-benchmark", "bonds", "-db", filepath.Join(dir, "none.gh5"),
		"-model", filepath.Join(dir, "m.gmod"), "-arch", "hidden1=8,depth=3",
	}, &stdout, &stderr)
	if err == nil || errors.Is(err, errUsage) || !strings.Contains(err.Error(), `unknown architecture parameter "depth"`) {
		t.Fatalf("run with -arch depth=3: %v, want the unknown-parameter error", err)
	}
}

// TestFlagDefaultsAreTheRecipe reads each training flag's default from
// the -h output and compares it with nn.Recipe's field.
func TestFlagDefaultsAreTheRecipe(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-h"}, &stdout, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run -h: %v, want flag.ErrHelp", err)
	}
	r := nn.Recipe(0, 0)
	for name, want := range map[string]float64{
		"lr":           r.LR,
		"weight-decay": r.WeightDecay,
		"batch":        float64(r.BatchSize),
	} {
		m := regexp.MustCompile(`(?m)^  -` + name + ` \w+\n.*\(default ([^)]*)\)$`).FindStringSubmatch(stderr.String())
		if m == nil {
			t.Fatalf("-%s has no default in the usage:\n%s", name, stderr.String())
		}
		if got, err := strconv.ParseFloat(m[1], 64); err != nil || got != want {
			t.Errorf("-%s defaults to %s, recipe has %g", name, m[1], want)
		}
	}
}
