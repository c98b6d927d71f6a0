package learner

import (
	"errors"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/h5"
	"repro/internal/nn"
	"repro/internal/serveapi"
	"repro/internal/tensor"
)

// The tests run in-package so they can reach the trainFn seam (managed
// candidates come from a stub instead of a real Fit run) and assert on
// the lineage state directly; the HTTP surface is covered by the serve
// package's integration tests.

const (
	dim     = 4  // in == out so a shape-preserving NaN net passes the gate's shape check
	records = 24 // 24 * 0.75 = 18 train / 6 holdout with the default split
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
// capture database, a reload counter standing in for the registry, and
// a loop-less controller driven by CheckNow.
type harness struct {
	path    string // live weight file
	base    string // capture database base path
	reloads int
	ctl     *Controller
	m       *managed
}

func newHarness(t *testing.T, live *nn.Network) *harness {
	t.Helper()
	dir := t.TempDir()
	h := &harness{
		path: filepath.Join(dir, "m.gmod"),
		base: filepath.Join(dir, "caps.gh5"),
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
		Reload:       func() error { h.reloads++; return nil },
	}
	ctl, err := New(Config{Interval: -1, Logger: discardLog()}, pol)
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
// so the gate publishes, the parent is archived, and the lineage
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
	// The parent generation is archived for rollback.
	if _, err := os.Stat(archivePath(h.path, 0)); err != nil {
		t.Fatalf("parent archive missing: %v", err)
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

// TestGateFloorsZeroTargets: rows whose targets are exactly zero (an
// out-of-the-money option price) measure a slightly-off prediction
// against the holdout's RMS row norm, not against ~0. The error is the
// int8 fit gate's metric of the member-mean prediction: small, finite,
// and well inside Rtol.
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
// seam): warm-starting from the live weights and fitting toward the
// model's own captured outputs keeps the holdout error ~0, so the
// candidate publishes.
func TestRealFitWarmStartPublishes(t *testing.T) {
	live := mlp(5, dim, 6, dim)
	h := newHarness(t, live)
	writeCaptures(t, h.base, "m", live, records, 40)
	h.ctl.CheckNow()

	ents := h.entries()
	if len(ents) != 2 || ents[1].Verdict != serveapi.VerdictPublished {
		t.Fatalf("warm-started self-distillation should publish, got %+v", ents)
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
// sidecar: the live generation and consumed-row accounting must
// survive, so a restart does not re-trigger on already-trained records.
func TestResumeFromSidecar(t *testing.T) {
	live := mlp(8, dim, 6, dim)
	teacher := mlp(9, dim, 6, dim)
	h := newHarness(t, live)
	h.m.trainFn = func(int, string, *nn.Dataset, nn.TrainConfig) (*nn.Network, error) {
		return teacher, nil
	}
	writeCaptures(t, h.base, "m", teacher, records, 60)
	h.ctl.CheckNow()
	if h.liveGen() != 1 {
		t.Fatalf("publish precondition failed: %+v", h.entries())
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
	if got := ctl2.models["m"].state.LiveGen; got != 1 {
		t.Fatalf("restarted controller resumed at generation %d, want 1", got)
	}
	ctl2.CheckNow()
	if retrained {
		t.Fatal("restart re-triggered a retrain on already-consumed captures")
	}
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
