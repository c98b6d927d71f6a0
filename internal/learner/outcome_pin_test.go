package learner

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/serveapi"
)

// TestOutcomesPinned drives each outcome the learner settles — publish,
// gate rejection, NaN rejection, a training error, a publish superseded
// by a rollback that landed during training, and a rollback — on a
// fresh model, and pins what each leaves behind: every lineage field,
// the files on disk, the registry reloads, every
// /v1/stats learner field, and every learner /metrics series. The
// sidecar must equal the lineage held in memory. Files list every
// generation directory, and live by the directory it names.
//
// Checksums render as S0, S1, ... in order of first appearance, so the
// pins say which generation's bytes each file and entry names. Values
// printed as "*" are left out on purpose: a rollback entry's and a
// superseded entry's parent checksum, and the last gate errors and
// pending rows after a superseded publish, are the fields whose meaning
// the one settle step defines anew.
func TestOutcomesPinned(t *testing.T) {
	publish := func(t *testing.T, h *harness, teacher *nn.Network, seed int64) {
		t.Helper()
		h.m.trainFn = func(int, string, *nn.Dataset, nn.TrainConfig) (*nn.Network, error) {
			return teacher, nil
		}
		writeCaptures(t, h.base, "m", teacher, records, seed)
		h.ctl.CheckNow()
	}
	cases := []struct {
		name  string
		seed  int64 // the live model's
		drive func(t *testing.T, h *harness)
		want  string
	}{
		{
			name: "published",
			seed: 21,
			drive: func(t *testing.T, h *harness) {
				publish(t, h, mlp(22, dim, 6, dim), 100)
			},
			want: `lineage model=m live_gen=1
  gen=0 seed parent=0/- sum=S0 rows=0/0 err=0/0 reason=""
  gen=1 published parent=0/S0 sum=S1 rows=18/6 err=0/2.59877 reason=""
files m.gmod=S1 m.gmod.gens/0000/m.gmod=S0 m.gmod.gens/0001/m.gmod=S1 m.gmod.gens/live->0001 m.gmod.lineage.json
reloads 1
snapshot model=m gen=1 retrains=1 published=1 rejected=0 errors=0 rollbacks=0 pending=0 verdict=published cand=0 pub=2.59877
metric hpacml_gate_rel_error{model="m",which="candidate"} 0
metric hpacml_gate_rel_error{model="m",which="published"} 2.59877
metric hpacml_model_generation{model="m"} 1
metric hpacml_retrains_total{model="m",result="error"} 0
metric hpacml_retrains_total{model="m",result="published"} 1
metric hpacml_retrains_total{model="m",result="rejected"} 0
metric hpacml_rollbacks_total{model="m"} 0
`,
		},
		{
			name: "gate-rejected",
			seed: 23,
			drive: func(t *testing.T, h *harness) {
				h.m.trainFn = func(int, string, *nn.Dataset, nn.TrainConfig) (*nn.Network, error) {
					return mlp(99, dim, 6, dim), nil
				}
				writeCaptures(t, h.base, "m", mlp(23, dim, 6, dim), records, 101)
				h.ctl.CheckNow()
			},
			want: `lineage model=m live_gen=0
  gen=0 seed parent=0/- sum=S0 rows=0/0 err=0/0 reason=""
  gen=1 rejected parent=0/S0 sum=- rows=18/6 err=2.14141/0 reason="gate failed: candidate rel err 2.14141 > published 0"
files m.gmod=S0 m.gmod.gens/0000/m.gmod=S0 m.gmod.gens/live->0000 m.gmod.lineage.json
reloads 0
snapshot model=m gen=0 retrains=1 published=0 rejected=1 errors=0 rollbacks=0 pending=0 verdict=rejected cand=2.14141 pub=0
metric hpacml_gate_rel_error{model="m",which="candidate"} 2.14141
metric hpacml_gate_rel_error{model="m",which="published"} 0
metric hpacml_model_generation{model="m"} 0
metric hpacml_retrains_total{model="m",result="error"} 0
metric hpacml_retrains_total{model="m",result="published"} 0
metric hpacml_retrains_total{model="m",result="rejected"} 1
metric hpacml_rollbacks_total{model="m"} 0
`,
		},
		{
			name: "nan-rejected",
			seed: 24,
			drive: func(t *testing.T, h *harness) {
				h.m.trainFn = func(int, string, *nn.Dataset, nn.TrainConfig) (*nn.Network, error) {
					return nanNet(), nil
				}
				writeCaptures(t, h.base, "m", mlp(24, dim, 6, dim), records, 102)
				h.ctl.CheckNow()
			},
			want: `lineage model=m live_gen=0
  gen=0 seed parent=0/- sum=S0 rows=0/0 err=0/0 reason=""
  gen=1 rejected parent=0/S0 sum=- rows=18/6 err=-1/0 reason="candidate NaN-poisoned on held-out captures"
files m.gmod=S0 m.gmod.gens/0000/m.gmod=S0 m.gmod.gens/live->0000 m.gmod.lineage.json
reloads 0
snapshot model=m gen=0 retrains=1 published=0 rejected=1 errors=0 rollbacks=0 pending=0 verdict=rejected cand=-1 pub=0
metric hpacml_gate_rel_error{model="m",which="candidate"} -1
metric hpacml_gate_rel_error{model="m",which="published"} 0
metric hpacml_model_generation{model="m"} 0
metric hpacml_retrains_total{model="m",result="error"} 0
metric hpacml_retrains_total{model="m",result="published"} 0
metric hpacml_retrains_total{model="m",result="rejected"} 1
metric hpacml_rollbacks_total{model="m"} 0
`,
		},
		{
			name: "training-error",
			seed: 25,
			drive: func(t *testing.T, h *harness) {
				h.m.trainFn = func(int, string, *nn.Dataset, nn.TrainConfig) (*nn.Network, error) {
					return nil, errors.New("out of memory")
				}
				writeCaptures(t, h.base, "m", mlp(25, dim, 6, dim), records, 103)
				h.ctl.CheckNow()
			},
			want: `lineage model=m live_gen=0
  gen=0 seed parent=0/- sum=S0 rows=0/0 err=0/0 reason=""
  gen=1 rejected parent=0/S0 sum=- rows=18/6 err=0/0 reason="training member 0: out of memory"
files m.gmod=S0 m.gmod.gens/0000/m.gmod=S0 m.gmod.gens/live->0000 m.gmod.lineage.json
reloads 0
snapshot model=m gen=0 retrains=1 published=0 rejected=0 errors=1 rollbacks=0 pending=0 verdict=rejected cand=0 pub=0
metric hpacml_gate_rel_error{model="m",which="candidate"} 0
metric hpacml_gate_rel_error{model="m",which="published"} 0
metric hpacml_model_generation{model="m"} 0
metric hpacml_retrains_total{model="m",result="error"} 1
metric hpacml_retrains_total{model="m",result="published"} 0
metric hpacml_retrains_total{model="m",result="rejected"} 0
metric hpacml_rollbacks_total{model="m"} 0
`,
		},
		{
			name: "superseded",
			seed: 26,
			drive: func(t *testing.T, h *harness) {
				teacher := mlp(27, dim, 6, dim)
				publish(t, h, teacher, 104)
				h.m.trainFn = func(int, string, *nn.Dataset, nn.TrainConfig) (*nn.Network, error) {
					if _, err := h.ctl.Rollback("m"); err != nil {
						t.Errorf("rollback during training: %v", err)
					}
					return teacher, nil
				}
				writeCaptures(t, h.base, "m", teacher, records, 105)
				h.ctl.CheckNow()
			},
			want: `lineage model=m live_gen=0
  gen=0 seed parent=0/- sum=S0 rows=0/0 err=0/0 reason=""
  gen=1 published parent=0/S0 sum=S1 rows=18/6 err=0/1.14726 reason=""
  gen=2 rollback parent=0/* sum=S0 rows=0/0 err=0/0 reason="rolled back generation 1 to parent 0"
  gen=3 rejected parent=1/* sum=- rows=36/12 err=0/0 reason="superseded: generation moved 1 -> 0 during training"
files m.gmod=S0 m.gmod.gens/0000/m.gmod=S0 m.gmod.gens/0001/m.gmod=S1 m.gmod.gens/live->0000 m.gmod.lineage.json
reloads 2
snapshot model=m gen=0 retrains=2 published=1 rejected=1 errors=0 rollbacks=1 pending=* verdict=rejected cand=* pub=*
metric hpacml_gate_rel_error{model="m",which="candidate"} 0
metric hpacml_gate_rel_error{model="m",which="published"} 0
metric hpacml_model_generation{model="m"} 0
metric hpacml_retrains_total{model="m",result="error"} 0
metric hpacml_retrains_total{model="m",result="published"} 1
metric hpacml_retrains_total{model="m",result="rejected"} 1
metric hpacml_rollbacks_total{model="m"} 1
`,
		},
		{
			name: "rollback",
			seed: 28,
			drive: func(t *testing.T, h *harness) {
				publish(t, h, mlp(29, dim, 6, dim), 106)
				if _, err := h.ctl.Rollback("m"); err != nil {
					t.Fatal(err)
				}
			},
			want: `lineage model=m live_gen=0
  gen=0 seed parent=0/- sum=S0 rows=0/0 err=0/0 reason=""
  gen=1 published parent=0/S0 sum=S1 rows=18/6 err=0/1.29536 reason=""
  gen=2 rollback parent=0/* sum=S0 rows=0/0 err=0/0 reason="rolled back generation 1 to parent 0"
files m.gmod=S0 m.gmod.gens/0000/m.gmod=S0 m.gmod.gens/0001/m.gmod=S1 m.gmod.gens/live->0000 m.gmod.lineage.json
reloads 2
snapshot model=m gen=0 retrains=1 published=1 rejected=0 errors=0 rollbacks=1 pending=0 verdict=published cand=0 pub=1.29536
metric hpacml_gate_rel_error{model="m",which="candidate"} 0
metric hpacml_gate_rel_error{model="m",which="published"} 1.29536
metric hpacml_model_generation{model="m"} 0
metric hpacml_retrains_total{model="m",result="error"} 0
metric hpacml_retrains_total{model="m",result="published"} 1
metric hpacml_retrains_total{model="m",result="rejected"} 0
metric hpacml_rollbacks_total{model="m"} 1
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, mlp(tc.seed, dim, 6, dim))
			tc.drive(t, h)
			if got := renderOutcome(t, h); got != tc.want {
				t.Errorf("outcome %s:\n%s\nwant:\n%s", tc.name, got, tc.want)
			}
		})
	}
}

// renderOutcome prints the state one outcome leaves behind (see
// TestOutcomesPinned).
func renderOutcome(t *testing.T, h *harness) string {
	t.Helper()
	var b strings.Builder
	syms := map[string]string{}
	sym := func(sum string) string {
		if sum == "" {
			return "-"
		}
		if s, ok := syms[sum]; ok {
			return s
		}
		s := fmt.Sprintf("S%d", len(syms))
		syms[sum] = s
		return s
	}

	h.m.mu.Lock()
	st := lineageState{Model: h.m.state.Model, LiveGen: h.m.state.LiveGen,
		Entries: append([]serveapi.LineageEntry(nil), h.m.state.Entries...)}
	h.m.mu.Unlock()
	disk, err := loadLineage(lineagePath(h.path))
	if err != nil || disk == nil {
		t.Fatalf("sidecar: %v", err)
	}
	if !reflect.DeepEqual(jsonRound(t, st), jsonRound(t, *disk)) {
		t.Errorf("sidecar %+v differs from the lineage in memory %+v", *disk, st)
	}

	fmt.Fprintf(&b, "lineage model=%s live_gen=%d\n", st.Model, st.LiveGen)
	for _, e := range st.Entries {
		if e.Time.IsZero() {
			t.Errorf("entry gen %d has no time", e.Gen)
		}
		parentSum := sym(e.ParentChecksum)
		if e.Verdict == serveapi.VerdictRollback || strings.HasPrefix(e.Reason, "superseded") {
			parentSum = "*"
		}
		fmt.Fprintf(&b, "  gen=%d %s parent=%d/%s sum=%s rows=%d/%d err=%.6g/%.6g reason=%q\n",
			e.Gen, e.Verdict, e.ParentGen, parentSum, sym(e.Checksum),
			e.TrainRecords, e.HoldoutRecords, e.CandidateErr, e.PublishedErr, e.Reason)
	}

	dir := filepath.Dir(h.path)
	b.WriteString("files")
	err = filepath.WalkDir(dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		name, _ := filepath.Rel(dir, path)
		switch {
		case !strings.HasPrefix(name, filepath.Base(h.path)):
		case strings.HasSuffix(name, ".lineage.json"):
			fmt.Fprintf(&b, " %s", name)
		case filepath.Base(name) == "live":
			target, err := os.Readlink(path)
			fmt.Fprintf(&b, " %s->%s", name, target)
			return err
		default:
			sum, err := serveapi.ModelChecksum([]string{path})
			fmt.Fprintf(&b, " %s=%s", name, sym(sum))
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "\nreloads %d\n", h.reloads)

	s := h.ctl.Snapshot()[0]
	superseded := strings.HasPrefix(st.Entries[len(st.Entries)-1].Reason, "superseded")
	last := func(v any) string {
		if superseded {
			return "*"
		}
		return fmt.Sprintf("%.6g", v)
	}
	pending := fmt.Sprint(s.PendingRecords)
	if superseded {
		pending = "*"
	}
	fmt.Fprintf(&b, "snapshot model=%s gen=%d retrains=%d published=%d rejected=%d errors=%d rollbacks=%d pending=%s verdict=%s cand=%s pub=%s\n",
		s.Model, s.Generation, s.Retrains, s.Published, s.Rejected, s.Errors, s.Rollbacks,
		pending, s.LastVerdict, last(s.LastCandidateErr), last(s.LastPublishedErr))

	var series []string
	for _, line := range strings.Split(string(h.reg.AppendPrometheus(nil)), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			series = append(series, line)
		}
	}
	sort.Strings(series)
	for _, line := range series {
		name, val, _ := strings.Cut(line, " ")
		var v float64
		fmt.Sscan(val, &v)
		fmt.Fprintf(&b, "metric %s %.6g\n", name, v)
	}
	return b.String()
}

// jsonRound passes a lineage through the sidecar's JSON encoding, so
// the in-memory view compares with a loaded one at the precision the
// file keeps (times lose their monotonic reading).
func jsonRound(t *testing.T, st lineageState) lineageState {
	t.Helper()
	path := filepath.Join(t.TempDir(), "round.json")
	if err := st.persist(path); err != nil {
		t.Fatal(err)
	}
	out, err := loadLineage(path)
	if err != nil {
		t.Fatal(err)
	}
	return *out
}
