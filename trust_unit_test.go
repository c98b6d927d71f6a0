// Unit tests for the trust-routing building blocks: guardrail fitting
// and checking, ensemble variance semantics, the gates' configuration
// errors, and the Region-level routing/advisory behavior of a single
// Execute.
package hpacml_test

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	hpacml "repro"

	"repro/internal/tensor"
)

// constEngine is a stub engine writing one constant everywhere.
type constEngine struct {
	val    float64
	outDim int
}

func (e *constEngine) Infer(ctx context.Context, in, out *tensor.Tensor) error {
	d := out.Data()
	for i := range d {
		d[i] = e.val
	}
	return nil
}
func (e *constEngine) OutputShape(in []int) ([]int, error) {
	return []int{in[0], e.outDim}, nil
}
func (e *constEngine) Warmup(ctx context.Context, inShape []int) error { return nil }

// varianceEngine is a constEngine that also reports a preset per-row
// predictive variance, standing in for an ensemble.
type varianceEngine struct {
	constEngine
	rowVar []float64
}

func (e *varianceEngine) RowVariance() []float64 { return e.rowVar }

// TestVarianceGateNeedsVarianceReporter: trust(var:V) over an engine
// that measures no predictive variance would silently never fire, so
// the configuration must fail before traffic.
func TestVarianceGateNeedsVarianceReporter(t *testing.T) {
	x := make([]float64, 2)
	y := make([]float64, 1)
	r := trustStub(t, &constEngine{outDim: 1}, x, y, "trust(var:0.5)", nil)
	defer r.Close()
	err := r.Execute(nil)
	if err == nil || !strings.Contains(err.Error(), "variance") {
		t.Fatalf("want a variance-reporter config error, got %v", err)
	}
	// A configuration error, not an engine failure: the accurate path
	// is not a fallback for it.
	err = r.Execute(func() error { return nil })
	if err == nil || !strings.Contains(err.Error(), "variance") {
		t.Fatalf("want the config error with an accurate path too, got %v", err)
	}
	if st := r.Stats(); st.Fallbacks != 0 || st.AccurateRuns != 0 {
		t.Fatalf("a config error must not fall back: %+v", st)
	}
}

// TestTrustDomainRemoteModelNeedsExplicitGuardrail: a remote model URI
// has no local .guard sidecar, so trust(domain:on) on it must fail
// loudly instead of silently skipping the gate.
func TestTrustDomainRemoteModelNeedsExplicitGuardrail(t *testing.T) {
	x := make([]float64, 2)
	y := make([]float64, 1)
	r, err := hpacml.NewRegion("remote-guard",
		hpacml.Directives(`
tensor functor(vin: [i, 0:2] = ([0:2]))
tensor functor(vout: [i, 0:1] = ([0:1]))
tensor map(to: vin(x[0:1]))
tensor map(from: vout(y[0:1]))
ml(infer) in(x) out(y) model("http://127.0.0.1:1/vec") trust(domain:on)
`),
		hpacml.BindArray("x", x, 2),
		hpacml.BindArray("y", y, 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	err = r.Execute(nil)
	if err == nil || !strings.Contains(err.Error(), "guardrail sidecar") {
		t.Fatalf("want the guardrail-sidecar config error, got %v", err)
	}
}

// TestEnsembleVarianceSemantics pins the variance definition on stub
// members: zero for a single member, the population variance of the
// member spread otherwise, and maximal uncertainty when a member emits
// NaN — a non-finite surrogate output must never read as confident.
func TestEnsembleVarianceSemantics(t *testing.T) {
	in := goldenBatch(t, 3, 2)
	infer := func(members ...hpacml.Engine) []float64 {
		t.Helper()
		eng, err := hpacml.NewEnsembleEngine(members...)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		out := tensor.New(3, 1)
		if err := eng.Infer(t.Context(), in, out); err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), eng.RowVariance()...)
	}

	for r, v := range infer(&constEngine{val: 5, outDim: 1}) {
		if v != 0 {
			t.Errorf("single member row %d variance = %v, want 0", r, v)
		}
	}

	// Members at 1 and 3: mean 2, population variance 1 per feature.
	for r, v := range infer(&constEngine{val: 1, outDim: 1}, &constEngine{val: 3, outDim: 1}) {
		if v != 1 {
			t.Errorf("disagreeing members row %d variance = %v, want 1", r, v)
		}
	}

	// One NaN member poisons every row: variance must read +Inf, never 0.
	for r, v := range infer(&constEngine{val: 1, outDim: 1}, &constEngine{val: math.NaN(), outDim: 1}) {
		if !math.IsInf(v, 1) {
			t.Errorf("NaN member row %d variance = %v, want +Inf", r, v)
		}
	}
}

// trustStub builds a 2-in 1-out region around eng, annotated with the
// given trust(...) clause. A non-nil guard is saved as the sidecar of
// the region's model() path.
func trustStub(t *testing.T, eng hpacml.Engine, x, y []float64, trust string, guard *hpacml.Guardrail) *hpacml.Region {
	t.Helper()
	ml := "ml(infer) in(x) out(y) " + trust
	if guard != nil {
		ml += fmt.Sprintf(" model(%q)", guardedModel(t, guard))
	}
	r, err := hpacml.NewRegion("stub",
		hpacml.Directives(`
tensor functor(vin: [i, 0:2] = ([0:2]))
tensor functor(vout: [i, 0:1] = ([0:1]))
tensor map(to: vin(x[0:1]))
tensor map(from: vout(y[0:1]))
`+ml),
		hpacml.BindArray("x", x, 2),
		hpacml.BindArray("y", y, 1),
		hpacml.WithEngine(eng),
	)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// guardedModel saves g as the guardrail sidecar of a model path in a
// fresh temporary directory and returns that path; no model file is
// written, since the regions using it run an injected engine.
func guardedModel(t *testing.T, g *hpacml.Guardrail) string {
	t.Helper()
	model := filepath.Join(t.TempDir(), "m.gmod")
	if err := g.Save(hpacml.GuardrailPath(model)); err != nil {
		t.Fatal(err)
	}
	return model
}

// TestExecuteRoutesUntrustedInvocation: a single Execute whose row is
// rejected discards the surrogate output, runs the accurate closure,
// and counts the rejection; a trusted row keeps the surrogate output.
func TestExecuteRoutesUntrustedInvocation(t *testing.T) {
	x := []float64{0.5, 0.5}
	y := []float64{0}
	eng := &varianceEngine{constEngine: constEngine{val: 7, outDim: 1}, rowVar: []float64{0.1}}
	r := trustStub(t, eng, x, y, "trust(var:1)", nil)
	defer r.Close()
	accurate := func() error { y[0] = 42; return nil }

	// Low variance: surrogate kept.
	if err := r.Execute(accurate); err != nil {
		t.Fatal(err)
	}
	if y[0] != 7 {
		t.Fatalf("trusted invocation y = %v, want surrogate 7", y[0])
	}

	// High variance: routed to the accurate path.
	eng.rowVar[0] = 9
	if err := r.Execute(accurate); err != nil {
		t.Fatal(err)
	}
	if y[0] != 42 {
		t.Fatalf("untrusted invocation y = %v, want accurate 42", y[0])
	}

	st := r.Stats()
	if st.TrustedRows != 1 || st.UncertainRows != 1 || st.OutOfDomainRows != 0 {
		t.Fatalf("counters = %+v", st)
	}
	if st.AccurateRuns != 1 || st.Inferences != 1 {
		t.Fatalf("routing accounting = %+v", st)
	}
}

// TestExecuteAdvisoryGateWithoutAccurate: with no accurate path the
// gate cannot route, so the surrogate output is kept — but the
// counters still record the low-trust row.
func TestExecuteAdvisoryGateWithoutAccurate(t *testing.T) {
	x := []float64{0.5, 0.5}
	y := []float64{0}
	eng := &varianceEngine{constEngine: constEngine{val: 7, outDim: 1}, rowVar: []float64{9}}
	r := trustStub(t, eng, x, y, "trust(var:1)", nil)
	defer r.Close()
	if err := r.Execute(nil); err != nil {
		t.Fatal(err)
	}
	if y[0] != 7 {
		t.Fatalf("advisory gate y = %v, want surrogate 7 kept", y[0])
	}
	st := r.Stats()
	if st.UncertainRows != 1 || st.TrustedRows != 0 || st.AccurateRuns != 0 {
		t.Fatalf("advisory counters = %+v", st)
	}
}

// TestDomainVerdictWins: a row rejected by both gates counts once, as
// out-of-domain — the stronger verdict.
func TestDomainVerdictWins(t *testing.T) {
	x := []float64{9, 9} // outside the envelope below
	y := []float64{0}
	eng := &varianceEngine{
		constEngine: constEngine{val: 7, outDim: 1},
		rowVar:      []float64{9}, // also above the threshold
	}
	guard := &hpacml.Guardrail{Lo: []float64{0, 0}, Hi: []float64{1, 1}}
	r := trustStub(t, eng, x, y, "trust(var:1, domain:on)", guard)
	defer r.Close()
	if err := r.Execute(func() error { y[0] = 42; return nil }); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.OutOfDomainRows != 1 || st.UncertainRows != 0 {
		t.Fatalf("both-gates row must count once as out-of-domain: %+v", st)
	}
	if y[0] != 42 {
		t.Fatalf("both-gates invocation y = %v, want accurate 42", y[0])
	}
}

// TestVarianceGateRejectsNaN: a NaN row variance is not within any
// threshold, so the row is uncertain, never trusted.
func TestVarianceGateRejectsNaN(t *testing.T) {
	x := []float64{0.5, 0.5}
	y := []float64{0}
	eng := &varianceEngine{constEngine: constEngine{val: 7, outDim: 1}, rowVar: []float64{math.NaN()}}
	r := trustStub(t, eng, x, y, "trust(var:1)", nil)
	defer r.Close()
	if err := r.Execute(func() error { y[0] = 42; return nil }); err != nil {
		t.Fatal(err)
	}
	if y[0] != 42 {
		t.Fatalf("NaN-variance invocation y = %v, want accurate 42", y[0])
	}
	if st := r.Stats(); st.UncertainRows != 1 || st.TrustedRows != 0 || st.AccurateRuns != 1 {
		t.Fatalf("NaN variance must read as uncertain: %+v", st)
	}
}

// TestVarianceReportLengthMismatch: a variance report that does not
// cover the batch's rows is an inference error naming both counts, so
// it never disables the gate; with an accurate path the invocation
// falls back like any other engine failure.
func TestVarianceReportLengthMismatch(t *testing.T) {
	x := []float64{0.5, 0.5}
	y := []float64{0}
	eng := &varianceEngine{constEngine: constEngine{val: 7, outDim: 1}, rowVar: []float64{}}
	r := trustStub(t, eng, x, y, "trust(var:1)", nil)
	defer r.Close()
	err := r.Execute(nil)
	if err == nil || !strings.Contains(err.Error(), "0 row variances for 1 rows") {
		t.Fatalf("want an error naming both counts, got %v", err)
	}
	if st := r.Stats(); st.TrustedRows != 0 || st.Inferences != 0 {
		t.Fatalf("a broken variance report must not serve the surrogate: %+v", st)
	}
	if err := r.Execute(func() error { y[0] = 42; return nil }); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); y[0] != 42 || st.Fallbacks != 1 || st.TrustedRows != 0 {
		t.Fatalf("y = %v, stats %+v: want the accurate fallback", y[0], st)
	}
}

// TestGuardrailWidthMismatch: a sidecar fitted on another input width
// is a configuration error on every entry point, never counted as a
// fallback that silently loses the surrogate.
func TestGuardrailWidthMismatch(t *testing.T) {
	x := []float64{0.5, 0.5}
	y := []float64{0}
	guard := &hpacml.Guardrail{Lo: []float64{0, 0, 0}, Hi: []float64{1, 1, 1}}
	r := trustStub(t, &constEngine{val: 7, outDim: 1}, x, y, "trust(domain:on)", guard)
	defer r.Close()
	accurate := func(int) error { y[0] = 42; return nil }
	for name, run := range map[string]func() error{
		"execute":     func() error { return r.Execute(func() error { return accurate(0) }) },
		"execute-nil": func() error { return r.Execute(nil) },
		"batch":       func() error { return r.ExecuteBatch(2, nil, nil) },
		"routed": func() error {
			return r.ExecuteBatchRouted(t.Context(), 2, nil, accurate, nil)
		},
	} {
		err := run()
		if err == nil || !strings.Contains(err.Error(), "fitted on 3 features, region input rows have 2") {
			t.Errorf("%s: want the guardrail width error, got %v", name, err)
		}
	}
	if st := r.Stats(); st.Fallbacks != 0 || st.AccurateRuns != 0 || y[0] != 0 {
		t.Fatalf("a mis-sized guardrail must not fall back: y = %v, %+v", y[0], st)
	}
}

// TestGuardrailFitValidation pins the fit-time error cases and the
// quantile envelope itself.
func TestGuardrailFitValidation(t *testing.T) {
	if _, err := hpacml.FitGuardrail(nil, 0); err == nil {
		t.Error("nil tensor must be rejected")
	}
	x, _ := tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	if _, err := hpacml.FitGuardrail(x, 0.5); err == nil {
		t.Error("quantile 0.5 must be rejected")
	}
	if _, err := hpacml.FitGuardrail(x, -0.1); err == nil {
		t.Error("negative quantile must be rejected")
	}
	nan, _ := tensor.FromSlice([]float64{math.NaN(), 1, math.NaN(), 2}, 2, 2)
	if _, err := hpacml.FitGuardrail(nan, 0); err == nil {
		t.Error("an all-NaN feature must be rejected")
	}

	// q=0 fits the min/max envelope; NaNs in a feature are skipped, not
	// propagated into the bounds.
	mixed, _ := tensor.FromSlice([]float64{0, 5, 1, 6, math.NaN(), 7}, 3, 2)
	g, err := hpacml.FitGuardrail(mixed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Lo[0] != 0 || g.Hi[0] != 1 || g.Lo[1] != 5 || g.Hi[1] != 7 {
		t.Fatalf("min/max envelope = [%v %v] [%v %v]", g.Lo[0], g.Hi[0], g.Lo[1], g.Hi[1])
	}
	if g.CheckRow([]float64{0.5, 6}) != true || g.CheckRow([]float64{2, 6}) != false {
		t.Fatal("envelope verdicts wrong")
	}
}

// TestGuardrailCheckValidation pins the batch Check error cases.
func TestGuardrailCheckValidation(t *testing.T) {
	g := &hpacml.Guardrail{Lo: []float64{0}, Hi: []float64{1}}
	x, _ := tensor.FromSlice([]float64{0.5, 2}, 2, 1)
	if _, err := g.Check(x, make([]bool, 1)); err == nil {
		t.Error("verdict-slot mismatch must be rejected")
	}
	wide, _ := tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	if _, err := g.Check(wide, make([]bool, 2)); err == nil {
		t.Error("feature-count mismatch must be rejected")
	}
	ood := make([]bool, 2)
	n, err := g.Check(x, ood)
	if err != nil || n != 1 || ood[0] || !ood[1] {
		t.Fatalf("check = %d, %v, verdicts %v", n, err, ood)
	}
}

// TestGuardrailSidecarDecodeErrors pins the sidecar's corruption
// handling: wrong magic, wrong version, and inverted bounds all fail.
func TestGuardrailSidecarDecodeErrors(t *testing.T) {
	dir := t.TempDir()
	good := &hpacml.Guardrail{Lo: []float64{0}, Hi: []float64{1}}
	path := filepath.Join(dir, "g.guard")
	if err := good.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := hpacml.LoadGuardrail(path); err != nil {
		t.Fatal(err)
	}
	if _, err := hpacml.LoadGuardrail(filepath.Join(dir, "missing.guard")); err == nil {
		t.Error("missing sidecar must fail")
	}
	// Decoding inverted bounds is TestGuardrailRefusesNonFinite's.
	bad := &hpacml.Guardrail{Lo: []float64{2}, Hi: []float64{1}}
	if err := bad.Save(filepath.Join(dir, "bad.guard")); err == nil {
		t.Error("saving inverted bounds must fail")
	}
	empty := &hpacml.Guardrail{}
	if err := empty.Save(filepath.Join(dir, "empty.guard")); err == nil {
		t.Error("encoding an empty guardrail must fail")
	}
}
