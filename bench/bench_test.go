package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentileAndMedian(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 5.5}, {0.95, 9.55}, {1, 10}} {
		if got := percentile(sorted, c.p); !near(got, c.want) {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("percentile of one value = %g, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of an empty sample should be NaN")
	}
	in := []float64{3, 1, 2}
	if got := median(in); got != 2 {
		t.Errorf("median(3,1,2) = %g, want 2", got)
	}
	if in[0] != 3 {
		t.Error("median sorted its argument in place")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %g, want 2.5", got)
	}
}

// The expected values are Python's statistics.quantiles(v, n=4), the
// quartiles the benchmark's contract is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{10, 12, 11, 13, 9, 10, 14, 10, 11, 12}, [3]float64{10, 11, 12.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 7}, [3]float64{4.5, 6, 7.5}},
		{[]float64{5}, [3]float64{5, 5, 5}},
	} {
		q1, q2, q3 := quartiles(c.v)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %g %g %g, want %v", c.v, q1, q2, q3, c.want)
		}
	}
	if q1, _, _ := quartiles(nil); !math.IsNaN(q1) {
		t.Error("quartiles of an empty sample should be NaN")
	}
}

// A run's rounds become the quartile on the metric's better side; a
// burst that slows a minority of rounds must not move it.
func TestQuietQuartile(t *testing.T) {
	quiet := []float64{5.0, 5.1, 5.2, 5.1, 5.0, 5.2, 5.1, 5.0}
	burst := []float64{5.0, 5.1, 7.9, 8.1, 5.0, 8.0, 5.1, 5.0}
	lo, _ := quietQuartile(quiet, lower)
	loBurst, unrest := quietQuartile(burst, lower)
	if lo != 5.0 || loBurst != 5.0 {
		t.Errorf("latency quartile %g quiet, %g with a burst; want 5 both", lo, loBurst)
	}
	if !near(unrest, (5.1-5.0)/5.0) {
		t.Errorf("unrest = %g, want 0.02", unrest)
	}
	if hi, _ := quietQuartile([]float64{100, 90, 101, 60, 99}, higher); !near(hi, 100.5) {
		t.Errorf("throughput quartile = %g, want 100.5", hi)
	}
	if v, u := quietQuartile([]float64{3}, lower); v != 3 || u != 0 {
		t.Errorf("one round: %g, unrest %g; want 3, 0", v, u)
	}
}

func TestMeanRelL2(t *testing.T) {
	// Two rows of two columns. Row norms of ref are 5 and 0, so the
	// floor is sqrt((25+0)/2). Row 0 errs by (0.3, 0.4): 0.5/5. Row 1
	// has a zero reference and errs by (0, 1): 1/floor.
	ref := []float64{3, 4, 0, 0}
	pred := []float64{3.3, 4.4, 0, 1}
	floor := math.Sqrt(12.5)
	if got, want := meanRelL2(pred, ref, 2, 2), (0.1+1/floor)/2; !near(got, want) {
		t.Errorf("meanRelL2 = %g, want %g", got, want)
	}
	if got := meanRelL2(ref, ref, 2, 2); got != 0 {
		t.Errorf("an exact match scores %g, want 0", got)
	}
	zero := []float64{0, 0}
	if got := meanRelL2(zero, zero, 1, 2); got != 0 {
		t.Errorf("zero against zero scores %g, want 0", got)
	}
	if got := meanRelL2([]float64{0, 1}, zero, 1, 2); !math.IsInf(got, 1) {
		t.Errorf("an error against an all-zero reference scores %g, want +Inf", got)
	}
	if got := meanRelL2([]float64{math.NaN(), 4}, ref[:2], 1, 2); !math.IsNaN(got) {
		t.Errorf("a NaN prediction scores %g, want NaN", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// Two requests. Root 1 lasts 100 with a handler child of 70; root 2
	// lasts 50 with a handler child of 20. An execute root of 40 has an
	// accurate child of 15.
	spans := []span{
		{ID: 1, Name: spanInferMatrix, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: spanHandler, Start: 10, End: 80},
		{ID: 3, Name: spanInferMatrix, Start: 100, End: 150},
		{ID: 4, Parent: 3, Name: spanHandler, Start: 120, End: 140},
		{ID: 5, Name: spanExecute, Start: 0, End: 40},
		{ID: 6, Parent: 5, Name: spanAccurate, Start: 5, End: 20},
	}
	agg := aggregate(spans)
	root, handler := agg[spanInferMatrix], agg[spanHandler]
	if root.count != 2 || root.total != 150 || root.self != 60 {
		t.Errorf("root: count %d total %d self %d, want 2, 150, 60", root.count, root.total, root.self)
	}
	if handler.total != 90 || handler.self != 90 {
		t.Errorf("handler: total %d self %d, want 90, 90", handler.total, handler.self)
	}
	if root.self+handler.self != root.total {
		t.Errorf("self times %d + %d do not sum to the root's %d", root.self, handler.self, root.total)
	}
	if ex := agg[spanExecute]; ex.self != 25 || ex.self+agg[spanAccurate].self != ex.total {
		t.Errorf("execute self %d, want 25 and parts summing to %d", ex.self, ex.total)
	}
	if got := root.p50us(); !near(got, 0.075) {
		t.Errorf("root p50 = %g us, want 0.075", got)
	}
}

func TestTracerJoinsByRequestID(t *testing.T) {
	tr := newTracer("w")
	root := tr.begin(spanInferMatrix, 0, "rid-1")
	child := tr.begin(spanHandler, tr.parentOf("rid-1"), "rid-1")
	tr.end(child)
	tr.end(root)
	if tr.spans[child-1].Parent != root {
		t.Errorf("handler span's parent is %d, want the root %d", tr.spans[child-1].Parent, root)
	}
	if tr.parentOf("unknown") != 0 {
		t.Error("an unknown request id should have no parent")
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", s.ID)
		}
	}
}

const expositionSample = `# HELP hpacml_infer_queue_seconds Per-request wait from enqueue to batch cut.
# TYPE hpacml_infer_queue_seconds histogram
hpacml_infer_queue_seconds_bucket{model="m",le="0.001"} 3
hpacml_infer_queue_seconds_bucket{model="m",le="+Inf"} 4
hpacml_infer_queue_seconds_sum{model="m"} 0.006
hpacml_infer_queue_seconds_count{model="m"} 4
hpacml_http_stage_seconds_sum{stage="decode"} 1.5e-05
hpacml_http_stage_seconds_count{stage="decode"} 3
hpacml_uptime_seconds 12.5
not a metric line
`

func TestParseExposition(t *testing.T) {
	m := parseExposition(expositionSample)
	for series, want := range map[string]float64{
		`hpacml_infer_queue_seconds_sum{model="m"}`:               0.006,
		`hpacml_infer_queue_seconds_count{model="m"}`:             4,
		`hpacml_infer_queue_seconds_bucket{model="m",le="+Inf"}`:  4,
		`hpacml_http_stage_seconds_sum{stage="decode"}`:           1.5e-05,
		`hpacml_uptime_seconds`:                                   12.5,
		`hpacml_infer_queue_seconds_bucket{model="m",le="0.001"}`: 3,
		`hpacml_http_stage_seconds_count{stage="decode"}`:         3,
		`hpacml_infer_queue_seconds_count{model="other"}`:         0,
	} {
		if got := m[series]; got != want {
			t.Errorf("%s = %g, want %g", series, got, want)
		}
	}
	if _, ok := m["not a metric"]; ok {
		t.Error("a malformed line was parsed")
	}
	empty := map[string]float64{}
	if mean, ok := histMeanUs(empty, m, "hpacml_infer_queue_seconds", `{model="m"}`); !ok || !near(mean, 1500) {
		t.Errorf("queue mean = %g us (ok %v), want 1500", mean, ok)
	}
	if mean, ok := histMeanUs(empty, m, "hpacml_http_stage_seconds", `{stage="decode"}`); !ok || !near(mean, 5) {
		t.Errorf("decode mean = %g us (ok %v), want 5", mean, ok)
	}
	if _, ok := histMeanUs(m, m, "hpacml_infer_queue_seconds", `{model="m"}`); ok {
		t.Error("a histogram that saw nothing between scrapes has no mean")
	}
}

func result(name string, rowsPerS, unrest float64) workloadResult {
	return workloadResult{Name: name, Correct: true, EndToEnd: map[string]metricValue{
		"rows_per_s": {Value: rowsPerS, Unrest: unrest},
		"op_p50_ms":  {Value: 2},
		"setup_s":    {Value: 1},
	}}
}

func TestCompare(t *testing.T) {
	base := resultsFile{Workloads: []workloadResult{result("serve_slab", 1000, 0.01)}}
	for _, c := range []struct {
		name string
		b    workloadResult
		code int
		want string
	}{
		{"same", result("serve_slab", 1000, 0.01), 0, "ok"},
		{"within bound", result("serve_slab", 900, 0.01), 0, "ok"},
		{"faster", result("serve_slab", 2000, 0.01), 0, "ok"},
		{"out of bound", result("serve_slab", 700, 0.01), 1, "OUT OF BOUND"},
		{"unresolved", result("serve_slab", 700, 0.5), 0, "unresolved"},
	} {
		var out bytes.Buffer
		code := compareResults(&out, base, resultsFile{Workloads: []workloadResult{c.b}})
		line := ""
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.Contains(l, "rows_per_s") {
				line = l
			}
		}
		if code != c.code || !strings.Contains(line, c.want) {
			t.Errorf("%s: exit %d, line %q; want exit %d and %q", c.name, code, line, c.code, c.want)
		}
	}
	wrong := result("serve_slab", 1000, 0.01)
	wrong.Correct = false
	if code := compareResults(&bytes.Buffer{}, base, resultsFile{Workloads: []workloadResult{wrong}}); code == 0 {
		t.Error("a run that was not correct should fail the comparison")
	}
	if w := worsening(10, 12, lower); !near(w, 0.2) {
		t.Errorf("a lower-is-better metric going 10 -> 12 worsens by %g, want 0.2", w)
	}
}

// benchmarkJSON is the root BENCHMARK.json, the definition the driver
// reads.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&def); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return def
}

// TestDefinitionMatchesBenchmarkJSON keeps def.go and BENCHMARK.json
// from drifting apart, and both inside the contract's limits.
func TestDefinitionMatchesBenchmarkJSON(t *testing.T) {
	def := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(def.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(def.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(def.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d layer metrics, want 1..128", n)
	}
	if def.RunSeconds < 1 || def.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", def.RunSeconds)
	}
	if len(def.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, def.go %d", len(def.Workloads), len(workloadDefs))
	}
	seen := make(map[string]bool)
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's charset", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range def.Workloads {
		if w != workloadDefs[i] {
			t.Errorf("workload %d: BENCHMARK.json has %+v, def.go %+v", i, w, workloadDefs[i])
		}
		checkName(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, pair := range []struct {
		kind      string
		json, src []metricDef
	}{{"end-to-end", def.EndToEnd, endToEnd}, {"layer", def.PerLayer, perLayer}} {
		if len(pair.json) != len(pair.src) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, def.go %d", len(pair.json), pair.kind, len(pair.src))
		}
		for i, m := range pair.json {
			if m != pair.src[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, def.go %+v", pair.kind, i, m, pair.src[i])
			}
			checkName(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is outside the contract's charset", m.Name, m.Unit)
			}
			if m.Better != higher && m.Better != lower {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
		}
	}
	hasSetup := false
	for _, m := range def.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == lower
		}
	}
	if !hasSetup {
		t.Error("end_to_end must carry setup_s in s, lower is better")
	}
}

// TestQuickSmoke runs every workload at smoke sizes through the real
// entry point and checks that what it emits carries exactly the names
// BENCHMARK.json declares, and that the precision bands hold.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all six workloads")
	}
	def := readBenchmarkJSON(t)
	t.Chdir(t.TempDir())
	start := time.Now()
	var stdout bytes.Buffer
	if code := realMain([]string{"-quick", "-out", "results.json", "-trace-out", "trace.json"}, &stdout); code != 0 {
		t.Fatalf("exit code %d\n%s", code, stdout.String())
	}
	t.Logf("quick run took %v", time.Since(start))

	file, err := readResults("results.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(def.Workloads) {
		t.Fatalf("%d workloads reported, %d declared", len(file.Workloads), len(def.Workloads))
	}
	bands := map[string]band{
		"serve_slab": {}, "serve_wide_f64": {},
		"serve_wide_f32": {0, 1e-4}, "serve_wide_i8": {1e-4, 0.05},
	}
	reported := make(map[string]bool)
	for i, res := range file.Workloads {
		if res.Name != def.Workloads[i].Name {
			t.Errorf("workload %d is %s, declared %s", i, res.Name, def.Workloads[i].Name)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d failed: %v", res.Name, res.Correct, res.Failed, res.Attempted, res.Problems)
		}
		if len(res.EndToEnd) != len(def.EndToEnd) {
			t.Errorf("%s reports %d end-to-end metrics, %d declared", res.Name, len(res.EndToEnd), len(def.EndToEnd))
		}
		for _, m := range def.EndToEnd {
			if v, ok := res.EndToEnd[m.Name]; !ok || !(v.Value > 0) || v.Unit != m.Unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", res.Name, m.Name, v, m.Unit)
			}
		}
		for name := range res.PerLayer {
			if _, ok := findMetric(def.PerLayer, name); !ok {
				t.Errorf("%s reports undeclared layer metric %s", res.Name, name)
			}
			reported[name] = true
		}
		if b, ok := bands[res.Name]; ok {
			if q, ok := res.PerLayer["app.qoi_error"]; !ok || !b.holds(q.Value) {
				t.Errorf("%s: qoi_error %v is outside %v", res.Name, q.Value, b)
			}
		}
		if strings.HasPrefix(res.Name, "serve_") {
			for _, part := range []string{"serveclient.self_us_per_row", "serve.self_us_per_row",
				"serve.bridge_wait_us_per_row", "serve.engine_wait_us_per_row"} {
				if v, ok := res.PerLayer[part]; !ok || v.Value < 0 {
					t.Errorf("%s: %s = %v, want a non-negative share of the root span", res.Name, part, v.Value)
				}
			}
		}
	}
	for _, m := range def.PerLayer {
		if !reported[m.Name] {
			t.Errorf("no workload reports declared layer metric %s", m.Name)
		}
	}

	// The driver's lines: one JSON object per workload, last on stdout,
	// with exactly the contract's keys and every declared layer metric.
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	lines = lines[len(lines)-len(def.Workloads):]
	for i, line := range lines {
		var obj map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("result line %d: %v", i, err)
		}
		if len(obj) != 4 || obj["correct"] == nil || obj["attempted"] == nil || obj["failed"] == nil || obj["metrics"] == nil {
			t.Errorf("result line %d has keys %v", i, obj)
		}
		var metrics map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := json.Unmarshal(obj["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(def.PerLayer) {
			t.Errorf("result line %d carries %d metrics, %d declared", i, len(metrics), len(def.PerLayer))
		}
		for _, m := range def.PerLayer {
			if got, ok := metrics[m.Name]; !ok || got.Value == nil || got.Unit != m.Unit {
				t.Errorf("result line %d: %s missing or in the wrong unit", i, m.Name)
			}
		}
	}

	var spans []span
	b, err := os.ReadFile("trace.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	orphans := 0
	for _, s := range spans {
		if s.Name == spanHandler && s.Parent == 0 {
			orphans++
		}
	}
	if len(spans) == 0 || orphans > 0 {
		t.Errorf("%d spans written, %d handler spans without a root", len(spans), orphans)
	}
	if left, _ := filepath.Glob(filepath.Join(".bench_build", "*")); len(left) != 0 {
		t.Errorf("the run left %v behind", left)
	}
}
