package miniweather

import (
	"math"
	"testing"
)

func smallConfig() Config {
	return Config{NX: 32, NZ: 16, XLen: 2.0e4, ZLen: 1.0e4, CFL: 0.9}
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{NX: 4, NZ: 16, XLen: 1, ZLen: 1, CFL: 0.5},
		{NX: 16, NZ: 4, XLen: 1, ZLen: 1, CFL: 0.5},
		{NX: 16, NZ: 16, XLen: 0, ZLen: 1, CFL: 0.5},
		{NX: 16, NZ: 16, XLen: 1, ZLen: 1, CFL: 0},
		{NX: 16, NZ: 16, XLen: 1, ZLen: 1, CFL: 99},
	}
	for _, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("config %+v: want error", c)
		}
	}
}

func TestHydrostaticBackgroundDecreasesWithHeight(t *testing.T) {
	r0, _ := hydroConstTheta(0)
	r5, _ := hydroConstTheta(5000)
	r10, _ := hydroConstTheta(10000)
	if !(r0 > r5 && r5 > r10) {
		t.Fatalf("density not decreasing with height: %g %g %g", r0, r5, r10)
	}
	if r0 < 1.0 || r0 > 1.4 {
		t.Fatalf("sea-level density implausible: %g", r0)
	}
}

func TestBubbleInitialCondition(t *testing.T) {
	in, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Potential-temperature perturbation positive inside the bubble,
	// zero far away; all other fields zero.
	var maxRhoT float64
	for k := 0; k < in.Cfg.NZ; k++ {
		for i := 0; i < in.Cfg.NX; i++ {
			if v := in.State[in.idx(IDRhoT, k+hs, i+hs)]; v > maxRhoT {
				maxRhoT = v
			}
			if in.State[in.idx(IDUMom, k+hs, i+hs)] != 0 {
				t.Fatal("initial momentum must be zero")
			}
		}
	}
	if maxRhoT <= 0 {
		t.Fatal("bubble missing from initial condition")
	}
	if corner := in.State[in.idx(IDRhoT, hs, hs)]; corner != 0 {
		t.Fatalf("corner cell inside bubble: %g", corner)
	}
}

func TestStepStaysFiniteAndStable(t *testing.T) {
	in, _ := New(smallConfig())
	for s := 0; s < 50; s++ {
		in.Step()
	}
	for i, v := range in.State {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("state[%d] not finite after 50 steps: %g", i, v)
		}
	}
	// Perturbations stay bounded (stability of the scheme).
	interior := in.Interior(nil)
	for i, v := range interior {
		if math.Abs(v) > 100 {
			t.Fatalf("interior[%d] blew up: %g", i, v)
		}
	}
}

func TestMassConservation(t *testing.T) {
	in, _ := New(smallConfig())
	m0 := in.TotalMass()
	for s := 0; s < 50; s++ {
		in.Step()
	}
	m1 := in.TotalMass()
	if rel := math.Abs(m1-m0) / m0; rel > 1e-8 {
		t.Fatalf("mass drifted by %g (relative)", rel)
	}
}

func TestBubbleRises(t *testing.T) {
	in, _ := New(smallConfig())
	// Center of mass (height) of the theta perturbation must increase:
	// warm air rises.
	com := func() float64 {
		var num, den float64
		for k := 0; k < in.Cfg.NZ; k++ {
			for i := 0; i < in.Cfg.NX; i++ {
				v := in.State[in.idx(IDRhoT, k+hs, i+hs)]
				if v > 0 {
					num += v * (float64(k) + 0.5)
					den += v
				}
			}
		}
		if den == 0 {
			return 0
		}
		return num / den
	}
	z0 := com()
	for s := 0; s < 200; s++ {
		in.Step()
	}
	z1 := com()
	if z1 <= z0 {
		t.Fatalf("bubble did not rise: center %g -> %g", z0, z1)
	}
}

func TestXSymmetryPreserved(t *testing.T) {
	// The bubble is centered in x; the dynamics must preserve mirror
	// symmetry of the theta field about the domain center.
	in, _ := New(smallConfig())
	for s := 0; s < 20; s++ {
		in.Step()
	}
	nx := in.Cfg.NX
	for k := 0; k < in.Cfg.NZ; k++ {
		for i := 0; i < nx/2; i++ {
			l := in.State[in.idx(IDRhoT, k+hs, i+hs)]
			r := in.State[in.idx(IDRhoT, k+hs, nx-1-i+hs)]
			if math.Abs(l-r) > 1e-8*(1+math.Abs(l)) {
				t.Fatalf("x symmetry broken at k=%d i=%d: %g vs %g", k, i, l, r)
			}
		}
	}
}

func TestInteriorRoundTrip(t *testing.T) {
	in, _ := New(smallConfig())
	in.Step()
	snap := in.Interior(nil)
	// Clobber, restore, compare.
	zero := make([]float64, len(snap))
	in.SetInterior(zero)
	if in.Interior(nil)[10] != 0 {
		t.Fatal("SetInterior failed to clear")
	}
	in.SetInterior(snap)
	back := in.Interior(nil)
	for i := range snap {
		if back[i] != snap[i] {
			t.Fatalf("interior round trip mismatch at %d", i)
		}
	}
}

func TestStateDims(t *testing.T) {
	in, _ := New(smallConfig())
	nv, nzh, nxh := in.StateDims()
	if nv != NumVars || nzh != in.Cfg.NZ+2*hs || nxh != in.Cfg.NX+2*hs {
		t.Fatalf("dims = %d %d %d", nv, nzh, nxh)
	}
	if len(in.State) != nv*nzh*nxh {
		t.Fatal("state length mismatch")
	}
}

func TestDeterministicEvolution(t *testing.T) {
	a, _ := New(smallConfig())
	b, _ := New(smallConfig())
	for s := 0; s < 10; s++ {
		a.Step()
		b.Step()
	}
	ai, bi := a.Interior(nil), b.Interior(nil)
	for i := range ai {
		if ai[i] != bi[i] {
			t.Fatal("evolution not deterministic")
		}
	}
}

func TestDirectiveCount(t *testing.T) {
	src := Directives("m", "d")
	count := 0
	for i := 0; i+1 < len(src); i++ {
		if src[i] == '\n' && src[i+1] == '#' {
			count++
		}
	}
	if count != 3 {
		t.Fatalf("directive count = %d, want 3 (Table II)", count)
	}
}
