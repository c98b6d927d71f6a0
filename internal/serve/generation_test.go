package serve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	hpacml "repro"

	"repro/internal/nn"
	"repro/internal/serveapi"
)

// TestLoadSeesOneGenerationDuringSwap: a two-member ensemble served
// through a live symlink, as the learner lays it out, swaps live to the
// next generation after the load step has opened the first member and
// before it reads anything. The load must notice and read the set
// again: it publishes generation 1 whole — its checksum, and an answer
// bit-identical to generation 1's ensemble — never member a from one
// generation and member b from the other.
func TestLoadSeesOneGenerationDuringSwap(t *testing.T) {
	hpacml.ClearModelCache()
	dir := t.TempDir()
	gens := filepath.Join(dir, "a.gmod.gens")
	var gen1 []string
	for g, seeds := range [][2]int64{{80, 81}, {82, 83}} {
		gdir := filepath.Join(gens, []string{"0000", "0001"}[g])
		if err := os.MkdirAll(gdir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, name := range []string{"a.gmod", "b.gmod"} {
			p := saveMLP(t, gdir, name, seeds[i], 5, 8, 2)
			if g == 1 {
				gen1 = append(gen1, p)
			}
		}
	}
	live := filepath.Join(gens, "live")
	point := func(target string) {
		t.Helper()
		os.Remove(live + ".tmp")
		if err := os.Symlink(target, live+".tmp"); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(live+".tmp", live); err != nil {
			t.Fatal(err)
		}
	}
	point("0000")
	paths := []string{filepath.Join(dir, "a.gmod"), filepath.Join(dir, "b.gmod")}
	for _, p := range paths {
		if err := os.Symlink(filepath.Join("a.gmod.gens", "live", filepath.Base(p)), p); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewServer(Config{Workers: 1}, ModelSpec{Name: "e", Path: paths[0], Ensemble: paths[1:]})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	swapped := false
	testHookOpened = func(path string) {
		if path == paths[0] && !swapped {
			swapped = true
			point("0001")
		}
	}
	defer func() { testHookOpened = nil }()
	if err := s.CheckReload(); err != nil {
		t.Fatal(err)
	}
	if !swapped {
		t.Fatal("the swap never ran")
	}
	want, err := serveapi.ModelChecksum(gen1)
	if err != nil {
		t.Fatal(err)
	}
	if info := s.Models()[0]; info.Checksum != want || info.Generation != 1 {
		t.Fatalf("after the racing swap: checksum %s at generation %d, want generation 1's %s", info.Checksum, info.Generation, want)
	}
	in := inputVec(3, 5)
	got, err := s.Infer("e", in)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewServer(Config{Workers: 1}, ModelSpec{Name: "ref", Path: gen1[0], Ensemble: gen1[1:]})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	exp, err := ref.Infer("ref", in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exp {
		if got[i] != exp[i] {
			t.Fatalf("served %v, generation 1's ensemble answers %v", got, exp)
		}
	}
}

// TestQuantOnlyChangeReloads: the checksum covers the sidecars, so an
// int8 model that serves f64 for want of a sidecar switches to int8
// once one is written, at the next generation.
func TestQuantOnlyChangeReloads(t *testing.T) {
	hpacml.ClearModelCache()
	path := saveMLP(t, t.TempDir(), "m.gmod", 84, 5, 16, 2)
	s, err := NewServer(Config{Workers: 2}, ModelSpec{Name: "m", Path: path, I8: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if info := s.Models()[0]; info.Precision != "f64" || !strings.Contains(info.PrecisionReason, "no sidecar") {
		t.Fatalf("before the sidecar: %q, %q", info.Precision, info.PrecisionReason)
	}
	fitSidecar(t, path)
	if err := s.CheckReload(); err != nil {
		t.Fatal(err)
	}
	if info := s.Models()[0]; info.Precision != "int8" || info.PrecisionReason != "" || info.Generation != 1 {
		t.Fatalf("after writing the sidecar: %+v, want int8 at generation 1", info)
	}
	if _, err := s.Infer("m", inputVec(1, 5)); err != nil {
		t.Fatal(err)
	}
}

// TestReloadReadsSetOnce: with four int8 replicas, an accepted reload
// reads the .quant once, in the load step, and every replica then swaps
// onto the generation's one engine — one network, one int8 program —
// without touching the disk: the model files are gone before any
// replica swaps, and each still serves int8 at the new generation. At
// registration every replica holds the first generation's one engine
// too.
func TestReloadReadsSetOnce(t *testing.T) {
	hpacml.ClearModelCache()
	path := saveMLP(t, t.TempDir(), "m.gmod", 85, 5, 16, 2)
	fitSidecar(t, path)
	stall := newStallHook()
	s, err := NewServer(Config{Workers: 4, MaxBatch: 1, batchHook: stall.hook}, ModelSpec{Name: "m", Path: path, I8: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer stall.release()
	m := s.models["m"]
	first := m.gen.Load()
	for _, rep := range m.replicas {
		if rep.gen != first || rep.engine != first.engines[0] {
			t.Fatalf("replica %d after registration does not hold the generation's one engine", rep.idx)
		}
	}

	if err := mlp(86, 5, 16, 2).Save(path); err != nil {
		t.Fatal(err)
	}
	fitSidecar(t, path)
	quantReads := 0
	testHookOpened = func(p string) {
		if p == nn.QuantPath(path) {
			quantReads++
		}
	}
	defer func() { testHookOpened = nil }()
	if err := s.CheckReload(); err != nil {
		t.Fatal(err)
	}
	if info := s.Models()[0]; quantReads != 1 || info.Generation != 1 || info.Precision != "int8" {
		t.Fatalf("reload read the sidecar %d times and serves %+v; want one read, int8 at generation 1", quantReads, info)
	}
	for _, p := range []string{path, nn.QuantPath(path)} {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}

	// One row per batch and every worker parked in its batch: each of
	// the four requests lands on its own replica, after its reload.
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			_, err := s.Infer("m", inputVec(i, 5))
			errs <- err
		}()
	}
	for i := 0; i < 4; i++ {
		<-stall.entered
	}
	stall.release()
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	g := m.gen.Load()
	for _, rep := range m.replicas {
		e := rep.engine.(*hpacml.LocalEngine)
		if rep.gen != g || g.num != 1 || e != g.engines[0] || e.Precision() != "int8" {
			t.Fatalf("replica %d: generation %d precision %s (%s); want generation 1's one int8 engine",
				rep.idx, rep.gen.num, e.Precision(), e.PrecisionReason())
		}
	}
}
