package minibude

import (
	"math"
	"testing"
	"testing/quick"
)

func smallConfig() Config {
	return Config{NumPoses: 128, LigandAtoms: 8, ProteinAtoms: 32, AtomTypes: 3, Seed: 5}
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{NumPoses: 0, LigandAtoms: 1, ProteinAtoms: 1, AtomTypes: 1},
		{NumPoses: 1, LigandAtoms: 0, ProteinAtoms: 1, AtomTypes: 1},
		{NumPoses: 1, LigandAtoms: 1, ProteinAtoms: 0, AtomTypes: 1},
		{NumPoses: 1, LigandAtoms: 1, ProteinAtoms: 1, AtomTypes: 0},
	}
	for _, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("config %+v: want error", c)
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	a.ComputeEnergies()
	b.ComputeEnergies()
	for i := range a.Energies {
		if a.Energies[i] != b.Energies[i] {
			t.Fatalf("energies differ at %d: %g vs %g", i, a.Energies[i], b.Energies[i])
		}
	}
}

func TestEnergiesAreFiniteAndVaried(t *testing.T) {
	in, _ := New(smallConfig())
	in.ComputeEnergies()
	seen := map[float64]bool{}
	for i, e := range in.Energies {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			t.Fatalf("energy %d not finite: %g", i, e)
		}
		seen[e] = true
	}
	if len(seen) < len(in.Energies)/2 {
		t.Fatalf("energies suspiciously degenerate: %d unique of %d", len(seen), len(in.Energies))
	}
}

func TestIdentityPoseMatchesDirectScore(t *testing.T) {
	in, _ := New(smallConfig())
	// Zero pose: rotation = I, translation = 0.
	for d := 0; d < 6; d++ {
		in.Poses[d] = 0
	}
	in.ComputeEnergies()
	// Direct evaluation without any transform.
	var want float64
	nt := in.Cfg.AtomTypes
	for _, l := range in.Ligand {
		for _, p := range in.Protein {
			dx, dy, dz := l.X-p.X, l.Y-p.Y, l.Z-p.Z
			r2 := dx*dx + dy*dy + dz*dz
			if r2 < 2.25 {
				r2 = 2.25
			}
			idx := l.Type*nt + p.Type
			s2 := in.sigma[idx] * in.sigma[idx] / r2
			s6 := s2 * s2 * s2
			want += 4*in.epsilon[idx]*(s6*s6-s6) + in.charge[idx]/math.Sqrt(r2)
		}
	}
	if math.Abs(in.Energies[0]-want) > 1e-9*math.Abs(want) {
		t.Fatalf("identity pose energy %g, direct %g", in.Energies[0], want)
	}
}

func TestEnergyContinuityInPose(t *testing.T) {
	// Small pose perturbations must produce small energy changes (the
	// property that makes the surrogate learnable).
	in, _ := New(smallConfig())
	base := append([]float64(nil), in.Poses[:6]...)
	in.ComputeEnergies()
	e0 := in.Energies[0]
	for d := 0; d < 6; d++ {
		in.Poses[d] = base[d] + 1e-5
	}
	in.ComputeEnergies()
	if math.Abs(in.Energies[0]-e0) > 1 {
		t.Fatalf("energy jumped %g for a 1e-5 pose perturbation", math.Abs(in.Energies[0]-e0))
	}
}

func TestRandomizePosesChangesInputs(t *testing.T) {
	in, _ := New(smallConfig())
	before := append([]float64(nil), in.Poses...)
	in.RandomizePoses(999)
	same := 0
	for i := range before {
		if before[i] == in.Poses[i] {
			same++
		}
	}
	if same == len(before) {
		t.Fatal("poses unchanged after RandomizePoses")
	}
}

func TestPosesMatrixShape(t *testing.T) {
	in, _ := New(smallConfig())
	data, n, f := in.PosesMatrix()
	if n != in.Cfg.NumPoses || f != 6 || len(data) != n*f {
		t.Fatalf("matrix %dx%d over %d elements", n, f, len(data))
	}
}

func TestDirectivesParseAndCount(t *testing.T) {
	src := Directives("m.gmod", "d.gh5")
	// Table II: MiniBUDE uses 4 directives.
	count := 0
	for _, line := range splitLines(src) {
		if len(line) > 0 && line[0] == '#' {
			count++
		}
	}
	if count != 4 {
		t.Fatalf("directive count = %d, want 4 (Table II)", count)
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}

// Property: pose energies are invariant under regeneration with the same
// seed (full determinism of the deck).
func TestPropSeedDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		cfg := smallConfig()
		cfg.Seed = seed
		cfg.NumPoses = 16
		a, err := New(cfg)
		if err != nil {
			return false
		}
		b, err := New(cfg)
		if err != nil {
			return false
		}
		a.ComputeEnergies()
		b.ComputeEnergies()
		for i := range a.Energies {
			if a.Energies[i] != b.Energies[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
