package serve

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	hpacml "repro"

	"repro/internal/h5"
	"repro/internal/learner"
	"repro/internal/nn"
	"repro/internal/serveapi"
	"repro/internal/serveclient"
)

// TestClosedLoopHTTP is the end-to-end continuous-learning drive, all
// through the public surfaces: a client sends traffic and ships the
// accurate answers for the same inputs (a teacher network's, a
// constant shift from the served model's) back as capture records
// through /v1/capture, the learner snapshots the ingest database,
// retrains a warm-started candidate, shadow-gates it, and publishes a
// new generation that beats the live one on held-out captures —
// visible in /v1/models lineage, /v1/stats learners, and the
// hpacml_model_generation gauge — and the rollback endpoint restores
// the parent. The model serves int8 from a fitted sidecar: the
// published generation carries no sidecar fitted for its weights, so
// it serves f64 and says why, and the rollback brings the seed's
// sidecar, and int8, back.
func TestClosedLoopHTTP(t *testing.T) {
	hpacml.ClearModelCache()
	dir := t.TempDir()
	path := saveMLP(t, dir, "m.gmod", 6, 3, 8, 2)
	fitSidecar(t, path)
	s, err := NewServer(Config{
		MaxBatch:   8,
		MaxDelay:   500 * time.Microsecond,
		CaptureDBs: []CaptureSpec{{Name: "caps", Path: filepath.Join(dir, "caps.gh5")}},
	}, ModelSpec{Name: "m", Path: path, I8: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctl, err := learner.New(learner.Config{
		Interval: -1, // no background loop: the test drives CheckNow
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
		Metrics:  s.Metrics(),
	}, learner.Policy{
		Model:        "m",
		Paths:        []string{path},
		RetrainEvery: 8,
		MinRecords:   8,
		Train:        nn.TrainConfig{Epochs: 2, BatchSize: 8},
		Snapshot:     func() (*h5.File, error) { return s.SnapshotCaptureDB("caps") },
		Reload:       func() error { return s.ReloadModel("m") },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	ts := httptest.NewServer(NewHandler(s, WithLearner(ctl)))
	defer ts.Close()
	ctx := context.Background()

	// Drive traffic with the capture leg on: every completed inference
	// comes back as a training record, one row per record, carrying
	// the teacher's answer. Served answers would leave the retrain
	// nothing to learn.
	teacher := mlp(6, 3, 8, 2)
	teacher.Add(nn.NewAffine(1, 0.05))
	teacherPath := filepath.Join(dir, "teacher.gmod")
	if err := teacher.Save(teacherPath); err != nil {
		t.Fatal(err)
	}
	client := serveclient.New(ts.URL)
	defer client.CloseIdleConnections()
	seed, err := client.Model(ctx, "m")
	if err != nil {
		t.Fatal(err)
	}
	if seed.Precision != "int8" || seed.Checksum != seed.Lineage[0].Checksum {
		t.Fatalf("before the publish: %+v, want int8 with the seed entry's checksum", seed)
	}
	rng := rand.New(rand.NewSource(7))
	var batch []serveapi.CaptureRecord
	captured := 0
	for i := 0; i < 64; i++ {
		in := make([]float64, 3)
		for j := range in {
			in[j] = rng.Float64()
		}
		if _, err := client.Infer(ctx, "m", in); err != nil {
			t.Fatal(err)
		}
		out := directForward(t, teacherPath, in)
		batch = append(batch, serveapi.CaptureRecord{
			Region:      "m",
			InputShape:  []int{1, len(in)},
			Inputs:      in,
			OutputShape: []int{1, len(out)},
			Outputs:     out,
		})
		if len(batch) == 16 {
			n, err := client.Capture(ctx, "caps", batch)
			if err != nil {
				t.Fatal(err)
			}
			captured += n
			batch = batch[:0]
		}
	}
	if captured < 8 {
		t.Fatalf("captured only %d records", captured)
	}

	// One sweep: the warm-started candidate moves toward the teacher,
	// so its held-out error drops below the live model's and it
	// publishes.
	ctl.CheckNow()

	info, err := client.Model(ctx, "m")
	if err != nil {
		t.Fatal(err)
	}
	if info.LearnerGeneration != 1 {
		t.Fatalf("learner generation %d after retrain, want 1 (lineage %+v)", info.LearnerGeneration, info.Lineage)
	}
	if len(info.Lineage) != 2 || info.Lineage[1].Verdict != "published" {
		t.Fatalf("lineage %+v, want seed + published", info.Lineage)
	}
	if e := info.Lineage[1]; !(e.CandidateErr < e.PublishedErr) {
		t.Fatalf("published candidate rel err %g does not beat the live model's %g", e.CandidateErr, e.PublishedErr)
	}
	// The registry's checksum and the lineage entry's agree: the learner
	// hashes the same bytes the registry reloaded.
	if info.Checksum != info.Lineage[1].Checksum {
		t.Fatalf("registry checksum %q != published lineage checksum %q", info.Checksum, info.Lineage[1].Checksum)
	}
	if info.Precision != "f64" || !strings.Contains(info.PrecisionReason, "no sidecar") {
		t.Fatalf("after the publish: precision %q, reason %q; want f64 for want of a sidecar", info.Precision, info.PrecisionReason)
	}

	sr, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Learners) != 1 {
		t.Fatalf("stats learners: %+v", sr.Learners)
	}
	ln := sr.Learners[0]
	if ln.Model != "m" || ln.Generation != 1 || ln.Published != 1 || ln.Retrains != 1 {
		t.Fatalf("learner snapshot %+v", ln)
	}

	// The generation gauge rides the server's own /metrics registry.
	respM, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(respM.Body)
	respM.Body.Close()
	if !strings.Contains(string(body), "hpacml_model_generation") ||
		!strings.Contains(string(body), "hpacml_retrains_total") {
		t.Fatalf("/metrics is missing the learner families:\n%.2000s", body)
	}

	// Rollback over HTTP restores the parent generation.
	rb, err := client.Rollback(ctx, "m")
	if err != nil {
		t.Fatal(err)
	}
	if rb.RestoredGen != 0 || rb.Model != "m" {
		t.Fatalf("rollback response %+v", rb)
	}
	info, err = client.Model(ctx, "m")
	if err != nil {
		t.Fatal(err)
	}
	if info.LearnerGeneration != 0 {
		t.Fatalf("learner generation %d after rollback, want 0", info.LearnerGeneration)
	}
	if info.Precision != "int8" || info.Checksum != seed.Checksum {
		t.Fatalf("after the rollback: precision %q, checksum %q; want int8 with the seed's %q", info.Precision, info.Checksum, seed.Checksum)
	}
	// The restored weights serve again: inference still answers.
	if _, err := client.Infer(ctx, "m", inputVec(1, 3)); err != nil {
		t.Fatal(err)
	}

	// Error mapping: no parent at the seed -> 409, unknown model -> 404.
	var api *serveclient.APIError
	if _, err := client.Rollback(ctx, "m"); !errors.As(err, &api) || api.Code != http.StatusConflict {
		t.Fatalf("rollback at seed: %v, want 409", err)
	}
	if _, err := client.Rollback(ctx, "ghost"); !errors.As(err, &api) || api.Code != http.StatusNotFound {
		t.Fatalf("rollback of unknown model: %v, want 404", err)
	}
}

// TestRollbackWithoutLearner: a handler with no learner attached
// answers rollback with 404, not a panic or a 500.
func TestRollbackWithoutLearner(t *testing.T) {
	hpacml.ClearModelCache()
	dir := t.TempDir()
	path := saveMLP(t, dir, "m.gmod", 6, 3, 8, 2)
	s, err := NewServer(Config{}, ModelSpec{Name: "m", Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/models/m/rollback", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("rollback without a learner: %d, want 404", resp.StatusCode)
	}
}
