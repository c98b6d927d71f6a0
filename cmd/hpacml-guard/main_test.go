package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	hpacml "repro"
	"repro/internal/h5"
	"repro/internal/tensor"
)

func TestMissingArgsAreUsageErrors(t *testing.T) {
	dir := t.TempDir()
	db, model := filepath.Join(dir, "none.gh5"), filepath.Join(dir, "m.gmod")
	for _, tc := range []struct {
		name, message string
		args          []string
	}{
		{"no -db", "-db and -region are required", []string{"-region", "binomial", "-model", model}},
		{"no -region", "-db and -region are required", []string{"-db", db, "-model", model}},
		{"no -model or -out", "give -model", []string{"-db", db, "-region", "binomial"}},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(tc.args, &stdout, &stderr); !errors.Is(err, errUsage) {
			t.Errorf("%s: %v, want a usage error", tc.name, err)
			continue
		}
		if !strings.Contains(stderr.String(), tc.message) || !strings.Contains(stderr.String(), "Usage of hpacml-guard") {
			t.Errorf("%s: stderr lacks %q or the usage:\n%s", tc.name, tc.message, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: stdout %q, want nothing", tc.name, stdout.String())
		}
	}
}

// TestRefusesBadMarginAndQuantile runs against a real database, so a
// refusal is the flag's and not a missing file's, and checks that no
// sidecar is written.
func TestRefusesBadMarginAndQuantile(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "in.gh5")
	x, err := tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6}, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := h5.Create(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write("r", "inputs", x); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "g.guard")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-db", db, "-region", "r", "-out", out, "-margin", "0.05"}, &stdout, &stderr); err != nil {
		t.Fatalf("a valid fit: %v\n%s", err, stderr.String())
	}
	if _, err := hpacml.LoadGuardrail(out); err != nil {
		t.Fatalf("the valid fit's sidecar: %v", err)
	}
	for _, tc := range []struct {
		flag, value, reason string
	}{
		{"-margin", "-1", "margin -1 is negative"},
		{"-margin", "NaN", "margin NaN is not finite"},
		{"-margin", "Inf", "margin +Inf is not finite"},
		{"-quantile", "0.5", "quantile 0.5 out of [0, 0.5)"},
	} {
		bad := filepath.Join(dir, "bad"+tc.flag+tc.value+".guard")
		err := run([]string{"-db", db, "-region", "r", "-out", bad, tc.flag, tc.value}, &stdout, &stderr)
		if err == nil || errors.Is(err, errUsage) || !strings.Contains(err.Error(), tc.reason) {
			t.Errorf("%s %s: %v, want %q", tc.flag, tc.value, err, tc.reason)
		}
		if _, err := os.Stat(bad); !os.IsNotExist(err) {
			t.Errorf("%s %s wrote a sidecar (stat: %v)", tc.flag, tc.value, err)
		}
	}
}
