// Package minibude is a Go port of the miniBUDE virtual-screening
// mini-app (Poenaru et al.): it evaluates an empirical forcefield over
// ligand poses to predict ligand–protein binding energy. The kernel is
// compute-bound — every pose touches every ligand×protein atom pair —
// which is exactly why the paper's Observation 2 replaces it with a dense
// surrogate that uses the hardware far more efficiently.
//
// QoI: the binding energy of each pose. Metric: MAPE (Table I).
package minibude

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
)

// Atom is one forcefield particle: position plus a type index selecting
// its interaction parameters.
type Atom struct {
	X, Y, Z float64
	Type    int
}

// Config sizes the deck.
type Config struct {
	NumPoses     int
	LigandAtoms  int
	ProteinAtoms int
	AtomTypes    int
	Seed         int64
}

// DefaultConfig mirrors a small bm1-like deck that runs in milliseconds
// on a CPU device while keeping the kernel strongly compute-bound.
func DefaultConfig() Config {
	return Config{NumPoses: 4096, LigandAtoms: 24, ProteinAtoms: 192, AtomTypes: 4, Seed: 7}
}

// Instance is one generated deck plus its pose and energy buffers — the
// application state the HPAC-ML region maps.
type Instance struct {
	Cfg     Config
	Protein []Atom
	Ligand  []Atom

	// Poses holds NumPoses rows of 6 descriptors (3 Euler angles, 3
	// translations): the region's input array.
	Poses []float64
	// Energies holds the computed binding energy per pose: the region's
	// output array and the QoI.
	Energies []float64

	// Pairwise forcefield parameters indexed [typeA*AtomTypes+typeB].
	epsilon []float64
	sigma   []float64
	charge  []float64
}

// New generates a deterministic deck from the config.
func New(cfg Config) (*Instance, error) {
	if cfg.NumPoses <= 0 || cfg.LigandAtoms <= 0 || cfg.ProteinAtoms <= 0 || cfg.AtomTypes <= 0 {
		return nil, fmt.Errorf("minibude: all config sizes must be positive: %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	in := &Instance{
		Cfg:      cfg,
		Protein:  make([]Atom, cfg.ProteinAtoms),
		Ligand:   make([]Atom, cfg.LigandAtoms),
		Poses:    make([]float64, cfg.NumPoses*6),
		Energies: make([]float64, cfg.NumPoses),
		epsilon:  make([]float64, cfg.AtomTypes*cfg.AtomTypes),
		sigma:    make([]float64, cfg.AtomTypes*cfg.AtomTypes),
		charge:   make([]float64, cfg.AtomTypes*cfg.AtomTypes),
	}
	// Protein: a loose globular cluster.
	for i := range in.Protein {
		in.Protein[i] = Atom{
			X:    rng.NormFloat64() * 4,
			Y:    rng.NormFloat64() * 4,
			Z:    rng.NormFloat64() * 4,
			Type: rng.Intn(cfg.AtomTypes),
		}
	}
	// Ligand: a compact cluster near the origin.
	for i := range in.Ligand {
		in.Ligand[i] = Atom{
			X:    rng.NormFloat64(),
			Y:    rng.NormFloat64(),
			Z:    rng.NormFloat64(),
			Type: rng.Intn(cfg.AtomTypes),
		}
	}
	// Smooth, bounded pairwise parameters.
	for a := 0; a < cfg.AtomTypes; a++ {
		for b := 0; b < cfg.AtomTypes; b++ {
			idx := a*cfg.AtomTypes + b
			in.epsilon[idx] = 0.2 + 0.8*rng.Float64()
			in.sigma[idx] = 1.5 + rng.Float64()
			in.charge[idx] = (rng.Float64()*2 - 1) * 0.5
		}
	}
	in.RandomizePoses(cfg.Seed + 1)
	return in, nil
}

// RandomizePoses fills the pose array with fresh uniform draws: angles in
// [-0.5, 0.5] rad, translations in [-1.5, 1.5].
func (in *Instance) RandomizePoses(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for p := 0; p < in.Cfg.NumPoses; p++ {
		for d := 0; d < 3; d++ {
			in.Poses[p*6+d] = rng.Float64() - 0.5
		}
		for d := 3; d < 6; d++ {
			in.Poses[p*6+d] = (rng.Float64() - 0.5) * 3
		}
	}
}

// ComputeEnergies is the accurate execution path: the fasten-style kernel
// that scores every pose against the full protein.
func (in *Instance) ComputeEnergies() {
	lig, prot := in.Ligand, in.Protein
	nt := in.Cfg.AtomTypes
	parallel.For(in.Cfg.NumPoses, func(p int) {
		in.Energies[p] = in.scorePose(in.Poses[p*6:p*6+6], lig, prot, nt)
	})
}

// scorePose transforms the ligand by the pose and accumulates the
// empirical forcefield energy over all atom pairs.
func (in *Instance) scorePose(pose []float64, lig, prot []Atom, nt int) float64 {
	sa, ca := math.Sincos(pose[0])
	sb, cb := math.Sincos(pose[1])
	sg, cg := math.Sincos(pose[2])
	tx, ty, tz := pose[3], pose[4], pose[5]

	// Rotation matrix Rz(g) Ry(b) Rx(a).
	r00 := cg * cb
	r01 := cg*sb*sa - sg*ca
	r02 := cg*sb*ca + sg*sa
	r10 := sg * cb
	r11 := sg*sb*sa + cg*ca
	r12 := sg*sb*ca - cg*sa
	r20 := -sb
	r21 := cb * sa
	r22 := cb * ca

	var energy float64
	for li := range lig {
		l := &lig[li]
		lx := r00*l.X + r01*l.Y + r02*l.Z + tx
		ly := r10*l.X + r11*l.Y + r12*l.Z + ty
		lz := r20*l.X + r21*l.Y + r22*l.Z + tz
		for pi := range prot {
			pr := &prot[pi]
			dx := lx - pr.X
			dy := ly - pr.Y
			dz := lz - pr.Z
			r2 := dx*dx + dy*dy + dz*dz
			if r2 < 2.25 { // soft-core floor at 1.5 to bound the LJ wall
				r2 = 2.25
			}
			idx := l.Type*nt + pr.Type
			s2 := in.sigma[idx] * in.sigma[idx] / r2
			s6 := s2 * s2 * s2
			// Lennard-Jones steric term plus a screened electrostatic
			// term — the smooth empirical-forcefield family BUDE uses.
			energy += 4*in.epsilon[idx]*(s6*s6-s6) + in.charge[idx]/math.Sqrt(r2)
		}
	}
	return energy
}

// PosesMatrix returns the pose array viewed as [NumPoses][6] for the
// HPAC-ML array binding.
func (in *Instance) PosesMatrix() ([]float64, int, int) {
	return in.Poses, in.Cfg.NumPoses, 6
}

// Directives returns the HPAC-ML annotation for the pose-scoring region —
// exactly the 4 directives Table II reports for MiniBUDE: two functor
// declarations, one input tensor map, and the ml clause (whose out()
// carries an inline functor application).
func Directives(model, db string) string {
	return fmt.Sprintf(`
#pragma approx tensor functor(pose_in: [i, 0:6] = ([i, 0:6]))
#pragma approx tensor functor(energy_out: [i, 0:1] = ([i]))
#pragma approx tensor map(to: pose_in(poses[0:NPOSES, 0:6]))
#pragma approx ml(predicated:useModel) in(poses) out(energy_out(energies[0:NPOSES])) model(%q) db(%q)
`, model, db)
}
