package learner

import (
	"errors"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/h5"
	"repro/internal/nn"
	"repro/internal/serveapi"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// The tests run in-package so they can reach the trainFn seam (managed
// candidates come from a stub instead of a real Fit run) and assert on
// the lineage state directly; the HTTP surface is covered by the serve
// package's integration tests.

const (
	dim     = 4  // in == out so a shape-preserving NaN net passes the gate's shape check
	records = 24 // 24 * 0.75 = 18 train / 6 holdout
)

func discardLog() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError}))
}

func mlp(seed int64, widths ...int) *nn.Network {
	net := nn.NewNetwork(seed)
	for i := 0; i < len(widths)-1; i++ {
		net.Add(net.NewDense(widths[i], widths[i+1]))
		if i < len(widths)-2 {
			net.Add(nn.NewActivation(nn.ActTanh))
		}
	}
	return net
}

// nanNet is a shape-preserving network whose every prediction is NaN —
// the poisoned candidate the gate must reject.
func nanNet() *nn.Network {
	net := nn.NewNetwork(0)
	net.Add(nn.NewAffine(math.NaN(), 0))
	return net
}

// writeCaptures appends n capture records to the sharded database at
// base, with inputs drawn from rng(seed) and outputs produced by
// teacher — the same row-shaped ([1, k]) records the serve ingest
// writes for one-row captures.
func writeCaptures(t *testing.T, base, group string, teacher *nn.Network, n int, seed int64) {
	t.Helper()
	writeRecords(t, base, group, teacher, n, 1, seed)
}

// writeRecords appends n capture records of rowsPer rows each ([rowsPer,
// k], the shape a batched region invocation captures).
func writeRecords(t *testing.T, base, group string, teacher *nn.Network, n, rowsPer int, seed int64) {
	t.Helper()
	w, err := h5.NewShardWriter(base, 0, h5.SampleRecords)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		in := make([]float64, rowsPer*dim)
		for j := range in {
			in[j] = rng.Float64()
		}
		x, err := tensor.FromSlice(in, rowsPer, dim)
		if err != nil {
			t.Fatal(err)
		}
		y, err := teacher.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := w.BeginSet()
		if err != nil {
			t.Fatal(err)
		}
		if err := h5.AppendSample(sw, group, x, y, 1000); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// harness is one managed model under test: a live weight file, a
// capture database, a reload counter standing in for the registry
// (which refuses with reloadErr when it is set), the learner's metric
// registry, and a loop-less controller driven by CheckNow.
type harness struct {
	path      string // live weight file
	base      string // capture database base path
	reloads   int
	reloadErr error
	reg       *telemetry.Registry
	ctl       *Controller
	m         *managed
}

func newHarness(t *testing.T, live *nn.Network) *harness {
	t.Helper()
	dir := t.TempDir()
	h := &harness{
		path: filepath.Join(dir, "m.gmod"),
		base: filepath.Join(dir, "caps.gh5"),
		reg:  telemetry.NewRegistry(),
	}
	if err := live.Save(h.path); err != nil {
		t.Fatal(err)
	}
	pol := Policy{
		Model:        "m",
		Paths:        []string{h.path},
		RetrainEvery: 8,
		MinRecords:   8,
		Train:        nn.TrainConfig{Epochs: 2, BatchSize: 4},
		Snapshot:     func() (*h5.File, error) { return h5.OpenShards(h.base) },
		Reload:       func() error { h.reloads++; return h.reloadErr },
	}
	ctl, err := New(Config{Interval: -1, Logger: discardLog(), Metrics: h.reg}, pol)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctl.Close)
	h.ctl = ctl
	h.m = ctl.models["m"]
	return h
}

func (h *harness) entries() []serveapi.LineageEntry {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	return append([]serveapi.LineageEntry(nil), h.m.state.Entries...)
}

func (h *harness) liveGen() uint64 {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	return h.m.state.LiveGen
}

// TestGatePublishesBetterCandidate drives the full happy path: a bad
// live model, captures recorded from a better teacher, and a candidate
// (the teacher itself, via the seam) that beats the published error —
// so the gate publishes, the parent generation stays on disk, and the lineage
// records the new generation.
func TestGatePublishesBetterCandidate(t *testing.T) {
	live := mlp(1, dim, 6, dim)
	teacher := mlp(2, dim, 6, dim)
	h := newHarness(t, live)

	// Below both MinRecords and RetrainEvery: no retrain.
	writeCaptures(t, h.base, "m", teacher, 4, 10)
	h.ctl.CheckNow()
	if got := h.entries(); len(got) != 1 {
		t.Fatalf("retrain triggered on %d records below the floor: %+v", 4, got)
	}
	if got := h.ctl.Snapshot()[0].PendingRecords; got != 4 {
		t.Fatalf("pending %d after 4 one-row records, want 4", got)
	}

	trained := false
	h.m.trainFn = func(member int, path string, train *nn.Dataset, cfg nn.TrainConfig) (*nn.Network, error) {
		trained = true
		if path != h.path {
			t.Errorf("trainFn got path %q, want %q", path, h.path)
		}
		return teacher, nil
	}
	// The policy counts rows, not records: one record of the remaining
	// 20 rows makes 5 records but 24 rows, past both thresholds.
	writeRecords(t, h.base, "m", teacher, 1, records-4, 11)
	h.ctl.CheckNow()

	if !trained {
		t.Fatal("trigger did not fire with pending rows above RetrainEvery")
	}
	ents := h.entries()
	if len(ents) != 2 {
		t.Fatalf("want seed + published entries, got %+v", ents)
	}
	pub := ents[1]
	if pub.Verdict != serveapi.VerdictPublished {
		t.Fatalf("verdict %q (%s), want published", pub.Verdict, pub.Reason)
	}
	if pub.Gen != 1 || pub.ParentGen != 0 {
		t.Fatalf("generation chain gen=%d parent=%d, want 1 and 0", pub.Gen, pub.ParentGen)
	}
	if pub.ParentChecksum != ents[0].Checksum {
		t.Fatalf("parent checksum %q does not match seed checksum %q", pub.ParentChecksum, ents[0].Checksum)
	}
	if pub.TrainRecords != 18 || pub.HoldoutRecords != 6 {
		t.Fatalf("split %d/%d, want 18/6", pub.TrainRecords, pub.HoldoutRecords)
	}
	if pub.CandidateErr > 1e-9 {
		t.Fatalf("teacher candidate should be exact on its own captures, got rel err %g", pub.CandidateErr)
	}
	if h.liveGen() != 1 {
		t.Fatalf("live generation %d, want 1", h.liveGen())
	}
	if h.reloads != 1 {
		t.Fatalf("registry reloaded %d times, want 1", h.reloads)
	}
	// The candidate's bytes are live and match the recorded checksum.
	sum, err := serveapi.ModelChecksum([]string{h.path})
	if err != nil {
		t.Fatal(err)
	}
	if sum != pub.Checksum {
		t.Fatalf("on-disk checksum %q != published entry checksum %q", sum, pub.Checksum)
	}
	// The parent generation's directory stays for rollback.
	if _, err := os.Stat(filepath.Join(h.path+".gens", "0000", "m.gmod")); err != nil {
		t.Fatalf("parent generation missing: %v", err)
	}
	// The sidecar survived and agrees.
	st, err := loadLineage(lineagePath(h.path))
	if err != nil || st == nil {
		t.Fatalf("sidecar: %v, %+v", err, st)
	}
	if st.LiveGen != 1 || len(st.Entries) != 2 {
		t.Fatalf("sidecar live_gen=%d entries=%d, want 1 and 2", st.LiveGen, len(st.Entries))
	}
}

// TestGateRejectsWorseCandidate: captures record the live model's own
// outputs (published error ~0), and the candidate is an unrelated
// random net — the gate must reject it and leave the live weights
// untouched.
func TestGateRejectsWorseCandidate(t *testing.T) {
	live := mlp(3, dim, 6, dim)
	h := newHarness(t, live)
	seedSum := h.entries()[0].Checksum

	h.m.trainFn = func(int, string, *nn.Dataset, nn.TrainConfig) (*nn.Network, error) {
		return mlp(99, dim, 6, dim), nil
	}
	writeCaptures(t, h.base, "m", live, records, 20)
	h.ctl.CheckNow()

	ents := h.entries()
	if len(ents) != 2 || ents[1].Verdict != serveapi.VerdictRejected {
		t.Fatalf("want one rejected entry, got %+v", ents)
	}
	if !strings.Contains(ents[1].Reason, "gate failed") {
		t.Fatalf("rejection reason %q does not name the gate", ents[1].Reason)
	}
	if h.liveGen() != 0 {
		t.Fatalf("live generation moved to %d on a rejected candidate", h.liveGen())
	}
	if h.reloads != 0 {
		t.Fatal("registry reloaded for a rejected candidate")
	}
	sum, err := serveapi.ModelChecksum([]string{h.path})
	if err != nil {
		t.Fatal(err)
	}
	if sum != seedSum {
		t.Fatal("rejected candidate modified the live weight file")
	}
	// The consumed snapshot must not re-trigger without fresh captures.
	h.ctl.CheckNow()
	if got := h.entries(); len(got) != 2 {
		t.Fatalf("rejected snapshot re-triggered a retrain: %+v", got)
	}
}

// TestGateRejectsNaNCandidate: a candidate that predicts NaN anywhere
// on the holdout is rejected regardless of the published error.
func TestGateRejectsNaNCandidate(t *testing.T) {
	live := mlp(4, dim, 6, dim)
	h := newHarness(t, live)
	h.m.trainFn = func(int, string, *nn.Dataset, nn.TrainConfig) (*nn.Network, error) {
		return nanNet(), nil
	}
	writeCaptures(t, h.base, "m", live, records, 30)
	h.ctl.CheckNow()

	ents := h.entries()
	if len(ents) != 2 || ents[1].Verdict != serveapi.VerdictRejected {
		t.Fatalf("want one rejected entry, got %+v", ents)
	}
	if !strings.Contains(ents[1].Reason, "NaN") {
		t.Fatalf("rejection reason %q does not name the NaN poisoning", ents[1].Reason)
	}
	if ents[1].CandidateErr != -1 {
		t.Fatalf("NaN candidate error should sanitize to -1 in the lineage, got %g", ents[1].CandidateErr)
	}
	if h.liveGen() != 0 || h.reloads != 0 {
		t.Fatal("NaN candidate reached publication")
	}
}

// TestGateNoWorseThanLive: the live model sits a small, nonzero error
// from the truth (its captures come from a nearby teacher), and each
// candidate is the teacher shifted by a multiple of the live model's
// output shift, so its held-out error is that multiple of the live
// model's. A candidate publishes iff its error is no worse than live:
// half the error and an exact tie publish; twice the error is rejected,
// though it is well inside any additive slack of 0.05.
func TestGateNoWorseThanLive(t *testing.T) {
	const shift = 0.02
	shifted := func(s float64) *nn.Network {
		net := mlp(40, dim, 6, dim)
		net.Add(nn.NewAffine(1, s))
		return net
	}
	for _, tc := range []struct {
		name    string
		times   float64 // the candidate's shift, in live shifts
		verdict string
		liveGen uint64
	}{
		{"better", 0.5, serveapi.VerdictPublished, 1},
		{"equal", 1, serveapi.VerdictPublished, 1},
		{"twice", 2, serveapi.VerdictRejected, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, shifted(shift))
			h.m.trainFn = func(int, string, *nn.Dataset, nn.TrainConfig) (*nn.Network, error) {
				return shifted(tc.times * shift), nil
			}
			writeCaptures(t, h.base, "m", mlp(40, dim, 6, dim), records, 90)
			h.ctl.CheckNow()

			ents := h.entries()
			if len(ents) != 2 {
				t.Fatalf("want seed + one attempt, got %+v", ents)
			}
			e := ents[1]
			if !(e.PublishedErr > 0 && e.CandidateErr < e.PublishedErr+0.05) {
				t.Fatalf("premise: live error %g must be nonzero and the candidate's %g within 0.05 of it", e.PublishedErr, e.CandidateErr)
			}
			if ratio := e.CandidateErr / e.PublishedErr; math.Abs(ratio-tc.times) > 1e-6 {
				t.Fatalf("candidate/live error ratio %g, want %g", ratio, tc.times)
			}
			if e.Verdict != tc.verdict {
				t.Fatalf("verdict %q (%s), want %q", e.Verdict, e.Reason, tc.verdict)
			}
			if tc.verdict == serveapi.VerdictRejected && !strings.Contains(e.Reason, "gate failed") {
				t.Fatalf("rejection reason %q does not name the gate", e.Reason)
			}
			if h.liveGen() != tc.liveGen || h.reloads != int(tc.liveGen) {
				t.Fatalf("live generation %d after %d reloads, want %d", h.liveGen(), h.reloads, tc.liveGen)
			}
		})
	}
}

// TestGateReplacesNaNLive: a live model whose held-out error is NaN is
// worse than any finite candidate, so the gate publishes one.
func TestGateReplacesNaNLive(t *testing.T) {
	teacher := mlp(41, dim, 6, dim)
	h := newHarness(t, nanNet())
	h.m.trainFn = func(int, string, *nn.Dataset, nn.TrainConfig) (*nn.Network, error) {
		return teacher, nil
	}
	writeCaptures(t, h.base, "m", teacher, records, 91)
	h.ctl.CheckNow()

	ents := h.entries()
	if len(ents) != 2 || ents[1].Verdict != serveapi.VerdictPublished || ents[1].PublishedErr != -1 {
		t.Fatalf("want a published entry over a NaN live error (-1), got %+v", ents)
	}
}

// TestGateFloorsZeroTargets: rows whose targets are exactly zero (an
// out-of-the-money option price) measure a slightly-off prediction
// against the holdout's RMS row norm, not against ~0. The error is the
// int8 fit gate's metric of the member-mean prediction: small and
// finite.
func TestGateFloorsZeroTargets(t *testing.T) {
	const rows = 12
	rng := rand.New(rand.NewSource(13))
	in := make([]float64, rows*dim)
	for i := range in {
		if i/dim%3 != 0 { // every third row is all zeros
			in[i] = rng.Float64()
		}
	}
	x, err := tensor.FromSlice(in, rows, dim)
	if err != nil {
		t.Fatal(err)
	}
	y, err := tensor.FromSlice(append([]float64(nil), in...), rows, dim)
	if err != nil {
		t.Fatal(err)
	}
	holdout, err := nn.NewDataset(x, y)
	if err != nil {
		t.Fatal(err)
	}
	affine := func(shift float64) *nn.Network {
		net := nn.NewNetwork(0)
		net.Add(nn.NewAffine(1, shift))
		return net
	}
	// Two members whose mean is the identity shifted by 1e-3.
	got, err := relErr([]*nn.Network{affine(0), affine(2e-3)}, holdout)
	if err != nil {
		t.Fatal(err)
	}
	pred := make([]float64, len(in))
	for i, v := range in {
		pred[i] = v + 1e-3
	}
	if want := nn.MeanRelL2(pred, in, rows, dim); math.Abs(got-want) > 1e-15 {
		t.Fatalf("gate error %g, want the int8 gate metric %g", got, want)
	}
	if !(got > 0 && got < 0.01) {
		t.Fatalf("gate error %g on a 1e-3 shift, want small and finite", got)
	}
}

// TestRealFitWarmStartPublishes exercises the default training path (no
// seam): captures come from a teacher whose outputs sit a constant
// shift from the live model's, so warm-starting from the live weights
// and fitting toward them lowers the held-out error, and the candidate
// publishes. (Captures of the live model's own outputs would leave
// nothing to learn: their gradient is zero.)
func TestRealFitWarmStartPublishes(t *testing.T) {
	live := mlp(5, dim, 6, dim)
	teacher := mlp(5, dim, 6, dim)
	teacher.Add(nn.NewAffine(1, 0.05))
	h := newHarness(t, live)
	writeCaptures(t, h.base, "m", teacher, records, 40)
	h.ctl.CheckNow()

	ents := h.entries()
	if len(ents) != 2 || ents[1].Verdict != serveapi.VerdictPublished {
		t.Fatalf("warm-started fit toward the teacher should publish, got %+v", ents)
	}
	if e := ents[1]; !(e.CandidateErr < e.PublishedErr) {
		t.Fatalf("candidate rel err %g does not improve on the live model's %g", e.CandidateErr, e.PublishedErr)
	}
	if h.liveGen() != 1 || h.reloads != 1 {
		t.Fatalf("live gen %d, reloads %d — want 1 and 1", h.liveGen(), h.reloads)
	}
}

// TestRollbackRestoresParent publishes a new generation, rolls it back,
// and checks the parent bytes, the lineage, and the no-parent refusal
// at the seed.
func TestRollbackRestoresParent(t *testing.T) {
	live := mlp(6, dim, 6, dim)
	teacher := mlp(7, dim, 6, dim)
	h := newHarness(t, live)
	seedSum := h.entries()[0].Checksum
	h.m.trainFn = func(int, string, *nn.Dataset, nn.TrainConfig) (*nn.Network, error) {
		return teacher, nil
	}
	writeCaptures(t, h.base, "m", teacher, records, 50)
	h.ctl.CheckNow()
	if h.liveGen() != 1 {
		t.Fatalf("publish precondition failed: live gen %d, lineage %+v", h.liveGen(), h.entries())
	}

	resp, err := h.ctl.Rollback("m")
	if err != nil {
		t.Fatal(err)
	}
	if resp.RestoredGen != 0 || resp.Generation != 2 || resp.Model != "m" {
		t.Fatalf("rollback response %+v, want restored_gen 0 entry gen 2", resp)
	}
	if h.liveGen() != 0 {
		t.Fatalf("live generation %d after rollback, want 0", h.liveGen())
	}
	sum, err := serveapi.ModelChecksum([]string{h.path})
	if err != nil {
		t.Fatal(err)
	}
	if sum != seedSum || resp.Checksum != seedSum {
		t.Fatalf("rollback did not restore the seed bytes: disk %q resp %q want %q", sum, resp.Checksum, seedSum)
	}
	if h.reloads != 2 {
		t.Fatalf("registry reloaded %d times, want 2 (publish + rollback)", h.reloads)
	}
	ents := h.entries()
	if last := ents[len(ents)-1]; last.Verdict != serveapi.VerdictRollback || last.ParentGen != 0 {
		t.Fatalf("rollback lineage entry %+v", last)
	}

	// The seed has no parent.
	if _, err := h.ctl.Rollback("m"); !errors.Is(err, ErrNoParent) {
		t.Fatalf("second rollback: %v, want ErrNoParent", err)
	}
	if _, err := h.ctl.Rollback("nope"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown model rollback: %v, want ErrUnknownModel", err)
	}
}

// TestResumeFromSidecar restarts the controller over an existing
// sidecar, once after a publish and once after a rejection: the live
// generation and the consumed-row accounting must survive, so a
// restart does not re-trigger on already-trained records. Every attempt
// consumes its snapshot, so the rejected one counts as trained too.
func TestResumeFromSidecar(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cand    func(teacher *nn.Network) *nn.Network
		liveGen uint64
	}{
		{"published", func(teacher *nn.Network) *nn.Network { return teacher }, 1},
		{"rejected", func(*nn.Network) *nn.Network { return nanNet() }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			live := mlp(8, dim, 6, dim)
			teacher := mlp(9, dim, 6, dim)
			h := newHarness(t, live)
			trains := 0
			h.m.trainFn = func(int, string, *nn.Dataset, nn.TrainConfig) (*nn.Network, error) {
				trains++
				return tc.cand(teacher), nil
			}
			writeCaptures(t, h.base, "m", teacher, records, 60)
			h.ctl.CheckNow()
			if ents := h.entries(); len(ents) != 2 || h.liveGen() != tc.liveGen {
				t.Fatalf("precondition failed: live gen %d, lineage %+v", h.liveGen(), ents)
			}
			// The running learner does not retrain on the same rows.
			h.ctl.CheckNow()
			if trains != 1 {
				t.Fatalf("running learner trained %d times on one snapshot", trains)
			}

			pol := h.m.pol
			pol.Snapshot = func() (*h5.File, error) { return h5.OpenShards(h.base) }
			retrained := false
			ctl2, err := New(Config{Interval: -1, Logger: discardLog()}, pol)
			if err != nil {
				t.Fatal(err)
			}
			defer ctl2.Close()
			ctl2.models["m"].trainFn = func(int, string, *nn.Dataset, nn.TrainConfig) (*nn.Network, error) {
				retrained = true
				return teacher, nil
			}
			if got := ctl2.models["m"].state.LiveGen; got != tc.liveGen {
				t.Fatalf("restarted controller resumed at generation %d, want %d", got, tc.liveGen)
			}
			ctl2.CheckNow()
			if retrained {
				t.Fatal("restart re-triggered a retrain on already-consumed captures")
			}
		})
	}
}

// TestRefusedPublishConsumesSnapshot: a candidate the registry refuses
// settles as an error and the live bytes are back. Like every other
// attempt it consumed its snapshot, so later sweeps with no new
// captures neither train nor append an entry; and the last gate errors
// in /v1/stats and the hpacml_gate_rel_error gauge read the same
// lineage entry, so they agree with it.
func TestRefusedPublishConsumesSnapshot(t *testing.T) {
	live := mlp(13, dim, 6, dim)
	teacher := mlp(14, dim, 6, dim)
	h := newHarness(t, live)
	seedSum := h.entries()[0].Checksum
	h.reloadErr = errors.New("replica warmup failed")
	trains := 0
	h.m.trainFn = func(int, string, *nn.Dataset, nn.TrainConfig) (*nn.Network, error) {
		trains++
		return teacher, nil
	}
	writeCaptures(t, h.base, "m", teacher, records, 110)
	h.ctl.CheckNow()

	ents := h.entries()
	if len(ents) != 2 || ents[1].Verdict != serveapi.VerdictRejected || !strings.Contains(ents[1].Reason, "replica warmup failed") {
		t.Fatalf("want one rejected entry naming the refusal, got %+v", ents)
	}
	e := ents[1]
	if sum, err := serveapi.ModelChecksum([]string{h.path}); err != nil || sum != seedSum {
		t.Fatalf("live bytes %q (%v) after a refused publish, want the seed's %q", sum, err, seedSum)
	}
	s := h.ctl.Snapshot()[0]
	if s.Errors != 1 || s.Retrains != 1 || s.Generation != 0 || s.PendingRecords != 0 || s.LastVerdict != serveapi.VerdictRejected {
		t.Errorf("snapshot after a refused publish: %+v", s)
	}
	if e.PublishedErr <= 0 {
		t.Errorf("refused entry %+v carries no published error", e)
	}
	exp := string(h.reg.AppendPrometheus(nil))
	for _, c := range []struct {
		which      string
		stats, lin float64
	}{
		{"candidate", s.LastCandidateErr, e.CandidateErr},
		{"published", s.LastPublishedErr, e.PublishedErr},
	} {
		gauge := seriesValue(t, exp, `hpacml_gate_rel_error{model="m",which="`+c.which+`"}`)
		if c.stats != gauge || c.stats != c.lin {
			t.Errorf("%s error: /v1/stats %g, gauge %g, lineage %g", c.which, c.stats, gauge, c.lin)
		}
	}

	for sweep := 0; sweep < 3; sweep++ {
		h.ctl.CheckNow()
	}
	if got := h.entries(); trains != 1 || len(got) != 2 {
		t.Fatalf("sweeps without new captures trained %d times and left %d entries, want 1 and 2", trains, len(got))
	}
}

// TestRefusedRollbackKeepsLiveSet: a rollback the registry refuses
// returns the refusal, appends no entry, and leaves the live generation
// serving — in the lineage and in every member's bytes.
func TestRefusedRollbackKeepsLiveSet(t *testing.T) {
	dir := t.TempDir()
	second := filepath.Join(dir, "m.b.gmod")
	if err := mlp(17, dim, 6, dim).Save(second); err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, mlp(18, dim, 6, dim))
	// An ensemble of two members, so the whole set is checked; its own
	// controller seeds the lineage from both.
	if err := os.Remove(lineagePath(h.path)); err != nil {
		t.Fatal(err)
	}
	pol := h.m.pol
	pol.Paths = []string{h.path, second}
	ctl, err := New(Config{Interval: -1, Logger: discardLog()}, pol)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	m := ctl.models["m"]
	teachers := []*nn.Network{mlp(19, dim, 6, dim), mlp(20, dim, 6, dim)}
	m.trainFn = func(member int, _ string, _ *nn.Dataset, _ nn.TrainConfig) (*nn.Network, error) {
		return teachers[member], nil
	}
	writeCaptures(t, h.base, "m", teachers[0], records, 112)
	ctl.CheckNow()
	if m.state.LiveGen != 1 {
		t.Fatalf("publish precondition failed: %+v", m.state.Entries)
	}
	liveSum := m.state.Entries[1].Checksum

	h.reloadErr = errors.New("refused")
	if _, err := ctl.Rollback("m"); err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("refused rollback returned %v", err)
	}
	if m.state.LiveGen != 1 || len(m.state.Entries) != 2 {
		t.Fatalf("refused rollback moved the lineage: live gen %d, %+v", m.state.LiveGen, m.state.Entries)
	}
	if sum, err := serveapi.ModelChecksum(pol.Paths); err != nil || sum != liveSum {
		t.Fatalf("members hold %q (%v) after a refused rollback, want generation 1's %q", sum, err, liveSum)
	}
	if s := ctl.Snapshot()[0]; s.Rollbacks != 0 || s.Generation != 1 {
		t.Fatalf("snapshot after a refused rollback: %+v", s)
	}
}

// TestScrapeDuringOutcomes reads /metrics and /v1/stats from another
// goroutine while outcomes settle: both read the lineage the settle
// step writes (run it under -race).
func TestScrapeDuringOutcomes(t *testing.T) {
	live := mlp(30, dim, 6, dim)
	teacher := mlp(31, dim, 6, dim)
	h := newHarness(t, live)
	h.m.trainFn = func(int, string, *nn.Dataset, nn.TrainConfig) (*nn.Network, error) {
		return teacher, nil
	}
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				h.reg.AppendPrometheus(nil)
				h.ctl.Snapshot()
			}
		}
	}()
	for round := int64(0); round < 3; round++ {
		writeCaptures(t, h.base, "m", teacher, records, 120+round)
		h.ctl.CheckNow()
		if _, err := h.ctl.Rollback("m"); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	<-scraped
	if s := h.ctl.Snapshot()[0]; s.Published != 3 || s.Rollbacks != 3 || s.Generation != 0 {
		t.Fatalf("snapshot after three publish/rollback rounds: %+v", s)
	}
}

// seriesValue reads one series' value from a Prometheus exposition.
func seriesValue(t *testing.T, exp, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(exp, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("series %s missing from:\n%s", series, exp)
	return 0
}

// TestCloseAbortsInFlightTraining is the drain guarantee: Close during
// a retrain cancels training at the next Stop poll, the interrupted
// candidate is never gated or published, and no lineage entry is
// written for it.
func TestCloseAbortsInFlightTraining(t *testing.T) {
	live := mlp(10, dim, 6, dim)
	h := newHarness(t, live)
	started := make(chan struct{})
	h.m.trainFn = func(_ int, _ string, _ *nn.Dataset, cfg nn.TrainConfig) (*nn.Network, error) {
		close(started)
		for !cfg.Stop() {
			time.Sleep(time.Millisecond)
		}
		return nil, nn.ErrTrainingStopped
	}
	writeCaptures(t, h.base, "m", live, records, 70)

	done := make(chan struct{})
	go func() {
		h.ctl.CheckNow()
		close(done)
	}()
	<-started
	h.ctl.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("retrain did not abort after Close")
	}
	if got := h.entries(); len(got) != 1 {
		t.Fatalf("aborted retrain left lineage entries: %+v", got)
	}
	if h.liveGen() != 0 || h.reloads != 0 {
		t.Fatal("aborted retrain published a candidate")
	}
}

// TestAnnotateAndSnapshot checks the read-side views the HTTP layer
// serves: /v1/models decoration and the /v1/stats learner snapshot.
func TestAnnotateAndSnapshot(t *testing.T) {
	live := mlp(11, dim, 6, dim)
	teacher := mlp(12, dim, 6, dim)
	h := newHarness(t, live)
	h.m.trainFn = func(int, string, *nn.Dataset, nn.TrainConfig) (*nn.Network, error) {
		return teacher, nil
	}
	writeCaptures(t, h.base, "m", teacher, records, 80)
	h.ctl.CheckNow()

	infos := []serveapi.ModelInfo{{Name: "m"}, {Name: "other"}}
	h.ctl.Annotate(infos)
	if infos[0].LearnerGeneration != 1 || len(infos[0].Lineage) != 2 {
		t.Fatalf("annotated info %+v, want generation 1 with 2 lineage entries", infos[0])
	}
	if infos[1].LearnerGeneration != 0 || infos[1].Lineage != nil {
		t.Fatalf("unmanaged model was annotated: %+v", infos[1])
	}

	snaps := h.ctl.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("want one learner snapshot, got %+v", snaps)
	}
	s := snaps[0]
	if s.Model != "m" || s.Generation != 1 || s.Retrains != 1 || s.Published != 1 ||
		s.Rejected != 0 || s.LastVerdict != serveapi.VerdictPublished {
		t.Fatalf("learner snapshot %+v", s)
	}
}

// TestAdoptionRedoesAnInterruptedStart: the first controller for a
// model moves its files into generation 0's directory and links every
// served path (members and sidecars) through live. A start that
// crashed after linking one file, and an unrecorded staging directory,
// are finished and cleaned up without changing a served byte or
// reloading; a second start changes nothing. A publish then carries no
// parent sidecar, and the rollback brings the sidecars back.
func TestAdoptionRedoesAnInterruptedStart(t *testing.T) {
	dir := t.TempDir()
	primary, member := filepath.Join(dir, "m.gmod"), filepath.Join(dir, "e.gmod")
	for i, p := range []string{primary, member} {
		if err := mlp(int64(60+i), dim, 6, dim).Save(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, side := range []string{primary + ".quant", primary + ".guard"} {
		if err := os.WriteFile(side, []byte(side), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	paths := []string{primary, member}
	served := serveapi.ModelFiles(paths)
	before, err := serveapi.ModelChecksum(paths)
	if err != nil {
		t.Fatal(err)
	}
	gens := primary + ".gens"
	for _, d := range []string{"0000", "0003.tmp"} {
		if err := os.MkdirAll(filepath.Join(gens, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Link(primary, filepath.Join(gens, "0000", "m.gmod")); err != nil {
		t.Fatal(err)
	}

	reloads := 0
	pol := Policy{
		Model:        "m",
		Paths:        paths,
		RetrainEvery: 8,
		Train:        nn.Recipe(1, 0),
		Snapshot:     func() (*h5.File, error) { return h5.OpenShards(filepath.Join(dir, "caps.gh5")) },
		Reload:       func() error { reloads++; return nil },
	}
	for start := 0; start < 2; start++ {
		ctl, err := New(Config{Interval: -1, Logger: discardLog()}, pol)
		if err != nil {
			t.Fatal(err)
		}
		ctl.Close()
		for _, f := range served {
			target, err := os.Readlink(f)
			if want := filepath.Join("m.gmod.gens", "live", filepath.Base(f)); err != nil || target != want {
				t.Fatalf("start %d: %s links to %q (%v), want %q", start, f, target, err, want)
			}
		}
		if live, err := os.Readlink(filepath.Join(gens, "live")); err != nil || live != "0000" {
			t.Fatalf("start %d: live names %q (%v), want 0000", start, live, err)
		}
		if sum, err := serveapi.ModelChecksum(paths); err != nil || sum != before {
			t.Fatalf("start %d: adoption changed the served set: %q (%v), want %q", start, sum, err, before)
		}
		if _, err := os.Stat(filepath.Join(gens, "0003.tmp")); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("start %d: unrecorded staging directory survived: %v", start, err)
		}
		if reloads != 0 {
			t.Fatalf("start %d: adoption reloaded the registry %d times", start, reloads)
		}
	}

	ctl, err := New(Config{Interval: -1, Logger: discardLog()}, pol)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	m := ctl.models["m"]
	teachers := []*nn.Network{mlp(62, dim, 6, dim), mlp(63, dim, 6, dim)}
	m.trainFn = func(member int, _ string, _ *nn.Dataset, _ nn.TrainConfig) (*nn.Network, error) {
		return teachers[member], nil
	}
	writeCaptures(t, filepath.Join(dir, "caps.gh5"), "m", teachers[0], records, 64)
	ctl.CheckNow()
	if m.state.LiveGen != 1 {
		t.Fatalf("publish precondition failed: %+v", m.state.Entries)
	}
	if got := serveapi.ModelFiles(paths); !slices.Equal(got, paths) {
		t.Fatalf("published generation serves %v, want the members alone", got)
	}
	if _, err := ctl.Rollback("m"); err != nil {
		t.Fatal(err)
	}
	if got := serveapi.ModelFiles(paths); !slices.Equal(got, served) {
		t.Fatalf("rolled-back generation serves %v, want %v", got, served)
	}
	if sum, err := serveapi.ModelChecksum(paths); err != nil || sum != before {
		t.Fatalf("rollback restored %q (%v), want the adopted set %q", sum, err, before)
	}
}

// TestRollbackNeedsParentDirectory: a lineage written before the
// generation directories names a parent whose only copy is a per-member
// archive. The live files are adopted, and the rollback refuses with
// ErrNoParent rather than migrating the archive.
func TestRollbackNeedsParentDirectory(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.gmod")
	if err := mlp(70, dim, 6, dim).Save(path); err != nil {
		t.Fatal(err)
	}
	if err := mlp(71, dim, 6, dim).Save(path + ".gen0000"); err != nil {
		t.Fatal(err)
	}
	st := lineageState{Model: "m", LiveGen: 1, Entries: []serveapi.LineageEntry{
		{Gen: 0, Verdict: serveapi.VerdictSeed},
		{Gen: 1, Verdict: serveapi.VerdictPublished, ParentGen: 0},
	}}
	if err := st.persist(lineagePath(path)); err != nil {
		t.Fatal(err)
	}
	ctl, err := New(Config{Interval: -1, Logger: discardLog()}, Policy{
		Model:    "m",
		Paths:    []string{path},
		Train:    nn.Recipe(1, 0),
		Snapshot: func() (*h5.File, error) { return nil, errors.New("unused") },
		Reload:   func() error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if _, err := os.Stat(filepath.Join(path+".gens", "0001", "m.gmod")); err != nil {
		t.Fatalf("live generation not adopted: %v", err)
	}
	if _, err := ctl.Rollback("m"); !errors.Is(err, ErrNoParent) {
		t.Fatalf("rollback to an archived parent: %v, want ErrNoParent", err)
	}
}

// TestNewRefusesDuplicateBaseNames: members share one generation
// directory, so two members of one base name cannot both live there.
func TestNewRefusesDuplicateBaseNames(t *testing.T) {
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "m.gmod"), filepath.Join(dir, "sub", "m.gmod")}
	_, err := New(Config{Interval: -1, Logger: discardLog()}, Policy{
		Model:    "m",
		Paths:    paths,
		Snapshot: func() (*h5.File, error) { return nil, errors.New("unused") },
		Reload:   func() error { return nil },
	})
	if err == nil || !strings.Contains(err.Error(), "two members named m.gmod") {
		t.Fatalf("duplicate base names: %v, want a refusal", err)
	}
}

// TestNewRefusesNonPositiveEpochs: Fit refuses a run of no epochs, so
// New refuses the policy up front, names the model, and adopts nothing.
func TestNewRefusesNonPositiveEpochs(t *testing.T) {
	for _, epochs := range []int{0, -1} {
		path := filepath.Join(t.TempDir(), "m.gmod")
		if err := mlp(1, dim, 6, dim).Save(path); err != nil {
			t.Fatal(err)
		}
		_, err := New(Config{Interval: -1, Logger: discardLog()}, Policy{
			Model:    "surrogate",
			Paths:    []string{path},
			Train:    nn.Recipe(epochs, 0),
			Snapshot: func() (*h5.File, error) { return nil, errors.New("unused") },
			Reload:   func() error { return nil },
		})
		if err == nil || !strings.Contains(err.Error(), `"surrogate"`) || !strings.Contains(err.Error(), "epochs") {
			t.Fatalf("Epochs %d: %v, want a refusal naming the model", epochs, err)
		}
		if _, err := os.Stat(path + ".gens"); !os.IsNotExist(err) {
			t.Fatalf("Epochs %d: refused policy left a generation directory (%v)", epochs, err)
		}
	}
}
