package learner_test

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	hpacml "repro"

	"repro/internal/h5"
	"repro/internal/learner"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/serveapi"
)

// crash is what the step seam panics with: the controller stops at that
// step as a killed process would, with nothing after it run.
type crash struct{ step string }

// TestCrashAtEveryStep stops a two-member ensemble's publish, and its
// rollback, after each step in turn: each staged file, the directory
// rename, the live swap, the reload, and the settle before the lineage
// persists. A fresh registry plus a fresh controller must then serve
// exactly one generation, the one the lineage says is live: /v1/models
// carries the checksum of LiveGen's lineage entry, and the generation
// directories left are exactly the ones the lineage published.
func TestCrashAtEveryStep(t *testing.T) {
	const dim = 4
	steps := map[string][]string{
		"publish":  {"stage 0", "stage 1", "rename", "swap", "reload", "settle"},
		"rollback": {"swap", "reload", "settle"},
	}
	for _, op := range []string{"publish", "rollback"} {
		for _, step := range steps[op] {
			t.Run(op+"/"+step, func(t *testing.T) {
				hpacml.ClearModelCache()
				dir := t.TempDir()
				paths := []string{filepath.Join(dir, "a.gmod"), filepath.Join(dir, "b.gmod")}
				for i, p := range paths {
					if err := learner.MLP(int64(40+i), dim, 6, dim).Save(p); err != nil {
						t.Fatal(err)
					}
				}
				base := filepath.Join(dir, "caps.gh5")
				start := func() (*serve.Server, *learner.Controller) {
					s, err := serve.NewServer(serve.Config{Workers: 1},
						serve.ModelSpec{Name: "m", Path: paths[0], Ensemble: paths[1:]})
					if err != nil {
						t.Fatal(err)
					}
					ctl, err := learner.New(learner.Config{
						Interval: -1,
						Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
					}, learner.Policy{
						Model:        "m",
						Paths:        paths,
						RetrainEvery: 8,
						Train:        nn.TrainConfig{Epochs: 1, BatchSize: 4},
						Snapshot:     func() (*h5.File, error) { return h5.OpenShards(base) },
						Reload:       func() error { return s.ReloadModel("m") },
					})
					if err != nil {
						s.Close()
						t.Fatal(err)
					}
					return s, ctl
				}

				s, ctl := start()
				teachers := []*nn.Network{learner.MLP(50, dim, 6, dim), learner.MLP(51, dim, 6, dim)}
				learner.SetTrainFn(ctl, "m", func(member int, _ string, _ *nn.Dataset, _ nn.TrainConfig) (*nn.Network, error) {
					return teachers[member], nil
				})
				learner.WriteCaptures(t, base, "m", teachers[0], 24, 7)
				if op == "rollback" {
					ctl.CheckNow()
					if g := ctl.Snapshot()[0].Generation; g != 1 {
						t.Fatalf("publish precondition failed: live generation %d", g)
					}
				}
				crashed := false
				learner.SetStepHook(ctl, "m", func(name string) {
					if name == step {
						panic(crash{name})
					}
				})
				func() {
					defer func() {
						if r := recover(); r != nil {
							if _, ok := r.(crash); !ok {
								panic(r)
							}
							crashed = true
						}
					}()
					if op == "publish" {
						ctl.CheckNow()
					} else if _, err := ctl.Rollback("m"); err != nil {
						t.Error(err)
					}
				}()
				if !crashed {
					t.Fatalf("%s never reached step %q", op, step)
				}
				ctl.Close()
				s.Close()

				hpacml.ClearModelCache() // a restarted process has an empty cache
				s, ctl = start()
				defer s.Close()
				defer ctl.Close()
				infos := s.Models()
				ctl.Annotate(infos)
				info := infos[0]
				var live *serveapi.LineageEntry
				var published []string
				for i, e := range info.Lineage {
					if e.Gen == info.LearnerGeneration {
						live = &info.Lineage[i]
					}
					if e.Verdict == serveapi.VerdictSeed || e.Verdict == serveapi.VerdictPublished {
						published = append(published, fmt.Sprintf("%04d", e.Gen))
					}
				}
				if live == nil || info.Checksum != live.Checksum {
					t.Fatalf("after a crash at %s: registry serves %q, lineage live generation %d entry %+v",
						step, info.Checksum, info.LearnerGeneration, live)
				}
				if sum, err := serveapi.ModelChecksum(paths); err != nil || sum != live.Checksum {
					t.Fatalf("after a crash at %s: files hold %q (%v), want %q", step, sum, err, live.Checksum)
				}
				ents, err := os.ReadDir(paths[0] + ".gens")
				if err != nil {
					t.Fatal(err)
				}
				var left []string
				for _, e := range ents {
					if e.Name() != "live" {
						left = append(left, e.Name())
					}
				}
				sort.Strings(published)
				if !slices.Equal(left, published) {
					t.Fatalf("after a crash at %s: generation directories %v, want the published %v", step, left, published)
				}
			})
		}
	}
}
