// Package miniweather is a Go port of the MiniWeather mini-app (Norman):
// 2-D dry compressible Euler dynamics with a hydrostatic background,
// solved by dimensionally split, 4th-order finite-volume fluxes with
// hyperviscosity and a three-substep low-storage integrator — the
// essential weather/climate dynamical core the paper uses to study
// auto-regressive surrogate error (Observation 4, Figure 9).
//
// The prognostic state holds perturbation density, x-momentum,
// z-momentum, and density-weighted potential temperature on an nx×nz
// grid (periodic in x, solid walls in z) initialized with a warm thermal
// bubble.
//
// QoI: the state variables at every gridpoint. Metric: RMSE (Table I).
package miniweather

import (
	"fmt"
	"math"

	"repro/internal/parallel"
)

// Physical constants (matching the reference implementation).
const (
	grav   = 9.8
	cp     = 1004.0
	cv     = 717.0
	rd     = 287.0
	p0     = 1.0e5
	theta0 = 300.0
	gamma  = cp / cv
)

// c0 is the pressure constant: p = c0 * (rho*theta)^gamma.
var c0 = math.Pow(rd*math.Pow(p0, -rd/cp), gamma)

// Variable indices within the state vector.
const (
	IDDens = 0 // perturbation density
	IDUMom = 1 // x-momentum
	IDWMom = 2 // z-momentum
	IDRhoT = 3 // perturbation (rho * potential temperature)

	NumVars = 4
	hs      = 2 // halo width
)

// Config sizes the simulation.
type Config struct {
	NX, NZ int
	XLen   float64
	ZLen   float64
	CFL    float64
	Seed   int64
}

// DefaultConfig is a bubble-resolving grid small enough for surrogate
// training campaigns.
func DefaultConfig() Config {
	return Config{NX: 64, NZ: 32, XLen: 2.0e4, ZLen: 1.0e4, CFL: 0.9}
}

// Instance is one simulation: state arrays (with halos), the hydrostatic
// background, and the timestep machinery.
type Instance struct {
	Cfg        Config
	dx, dz, dt float64

	// State is [NumVars][NZ+2hs][NX+2hs], row-major, perturbations from
	// the hydrostatic background. The HPAC-ML region maps its interior.
	State []float64
	tmp   []float64
	tend  []float64

	// Hydrostatic background profiles.
	hyDensCell      []float64 // at cell centers, with halos
	hyDensThetaCell []float64
	hyDensInt       []float64 // at z-interfaces
	hyDensThetaInt  []float64
	hyPressureInt   []float64

	directionSwitch bool
}

// New builds an initialized simulation with the thermal-bubble initial
// condition.
func New(cfg Config) (*Instance, error) {
	if cfg.NX < 8 || cfg.NZ < 8 {
		return nil, fmt.Errorf("miniweather: grid must be at least 8x8, got %dx%d", cfg.NX, cfg.NZ)
	}
	if cfg.XLen <= 0 || cfg.ZLen <= 0 {
		return nil, fmt.Errorf("miniweather: domain lengths must be positive")
	}
	if cfg.CFL <= 0 || cfg.CFL > 1.5 {
		return nil, fmt.Errorf("miniweather: CFL %g out of (0, 1.5]", cfg.CFL)
	}
	in := &Instance{Cfg: cfg}
	in.dx = cfg.XLen / float64(cfg.NX)
	in.dz = cfg.ZLen / float64(cfg.NZ)
	maxSpeed := 450.0 // max gravity/acoustic wave speed, per the reference
	in.dt = math.Min(in.dx, in.dz) / maxSpeed * cfg.CFL

	nCells := NumVars * (cfg.NZ + 2*hs) * (cfg.NX + 2*hs)
	in.State = make([]float64, nCells)
	in.tmp = make([]float64, nCells)
	in.tend = make([]float64, NumVars*cfg.NZ*cfg.NX)

	in.hyDensCell = make([]float64, cfg.NZ+2*hs)
	in.hyDensThetaCell = make([]float64, cfg.NZ+2*hs)
	in.hyDensInt = make([]float64, cfg.NZ+1)
	in.hyDensThetaInt = make([]float64, cfg.NZ+1)
	in.hyPressureInt = make([]float64, cfg.NZ+1)

	for k := 0; k < cfg.NZ+2*hs; k++ {
		z := (float64(k-hs) + 0.5) * in.dz
		r, t := hydroConstTheta(z)
		in.hyDensCell[k] = r
		in.hyDensThetaCell[k] = r * t
	}
	for k := 0; k <= cfg.NZ; k++ {
		z := float64(k) * in.dz
		r, t := hydroConstTheta(z)
		in.hyDensInt[k] = r
		in.hyDensThetaInt[k] = r * t
		in.hyPressureInt[k] = c0 * math.Pow(r*t, gamma)
	}
	in.InitThermalBubble()
	return in, nil
}

// hydroConstTheta returns the hydrostatic (density, potential temperature)
// at height z for a constant-theta background.
func hydroConstTheta(z float64) (r, t float64) {
	t = theta0
	exner := 1 - grav*z/(cp*theta0)
	p := p0 * math.Pow(exner, cp/rd)
	rt := math.Pow(p/c0, 1/gamma)
	return rt / t, t
}

// InitThermalBubble resets the state to a warm cosine-squared bubble
// (amplitude 3 K) centered in x at 1/4 of the domain height.
func (in *Instance) InitThermalBubble() {
	cfg := in.Cfg
	for i := range in.State {
		in.State[i] = 0
	}
	for k := 0; k < cfg.NZ; k++ {
		for i := 0; i < cfg.NX; i++ {
			x := (float64(i) + 0.5) * in.dx
			z := (float64(k) + 0.5) * in.dz
			dtheta := sampleEllipse(x, z, 3.0, cfg.XLen/2, 2000.0, 2000.0, 2000.0)
			if dtheta != 0 {
				r := in.hyDensCell[k+hs]
				in.State[in.idx(IDRhoT, k+hs, i+hs)] = r * dtheta
			}
		}
	}
}

// posRT floors rho*theta at a tiny positive value so that a wildly wrong
// surrogate state (Observation 4: auto-regressive surrogates can go
// unstable) degrades to huge-but-finite pressures instead of NaNs from a
// negative base under the fractional exponent.
func posRT(rt float64) float64 {
	if rt < 1e-6 {
		return 1e-6
	}
	return rt
}

// sampleEllipse returns amp*cos^2(pi/2 * dist) inside the ellipse of
// radii (xrad, zrad) centered at (x0, z0), and 0 outside.
func sampleEllipse(x, z, amp, x0, z0, xrad, zrad float64) float64 {
	dx := (x - x0) / xrad
	dz := (z - z0) / zrad
	dist := math.Sqrt(dx*dx + dz*dz)
	if dist >= 1 {
		return 0
	}
	c := math.Cos(math.Pi / 2 * dist)
	return amp * c * c
}

func (in *Instance) idx(v, k, i int) int {
	return (v*(in.Cfg.NZ+2*hs)+k)*(in.Cfg.NX+2*hs) + i
}

func (in *Instance) tendIdx(v, k, i int) int {
	return (v*in.Cfg.NZ+k)*in.Cfg.NX + i
}

// Step advances the state by one full timestep using Strang-like
// dimensional splitting with the reference three-substep integrator.
func (in *Instance) Step() {
	if in.directionSwitch {
		in.discreteStepDir(true)
		in.discreteStepDir(false)
	} else {
		in.discreteStepDir(false)
		in.discreteStepDir(true)
	}
	in.directionSwitch = !in.directionSwitch
}

// discreteStepDir performs the three-substep update in one direction.
func (in *Instance) discreteStepDir(xdir bool) {
	in.semiStep(in.State, in.State, in.tmp, in.dt/3, xdir)
	in.semiStep(in.State, in.tmp, in.tmp, in.dt/2, xdir)
	in.semiStep(in.State, in.tmp, in.State, in.dt, xdir)
}

// semiStep computes out = init + dt * tend(cur) for one direction.
func (in *Instance) semiStep(init, cur, out []float64, dt float64, xdir bool) {
	if xdir {
		in.setHalosX(cur)
		in.tendenciesX(cur, dt)
	} else {
		in.setHalosZ(cur)
		in.tendenciesZ(cur, dt)
	}
	cfg := in.Cfg
	parallel.For(NumVars*cfg.NZ, func(vk int) {
		v, k := vk/cfg.NZ, vk%cfg.NZ
		for i := 0; i < cfg.NX; i++ {
			id := in.idx(v, k+hs, i+hs)
			out[id] = init[id] + dt*in.tend[in.tendIdx(v, k, i)]
		}
	})
}

// setHalosX applies periodic boundaries in x.
func (in *Instance) setHalosX(s []float64) {
	cfg := in.Cfg
	parallel.For(NumVars*(cfg.NZ+2*hs), func(vk int) {
		v, k := vk/(cfg.NZ+2*hs), vk%(cfg.NZ+2*hs)
		for h := 0; h < hs; h++ {
			s[in.idx(v, k, h)] = s[in.idx(v, k, cfg.NX+h)]
			s[in.idx(v, k, cfg.NX+hs+h)] = s[in.idx(v, k, hs+h)]
		}
	})
}

// setHalosZ applies solid-wall boundaries in z: constant extrapolation
// with zero vertical momentum and density-scaled horizontal momentum.
func (in *Instance) setHalosZ(s []float64) {
	cfg := in.Cfg
	parallel.For(NumVars*(cfg.NX+2*hs), func(vi int) {
		v, i := vi/(cfg.NX+2*hs), vi%(cfg.NX+2*hs)
		for h := 0; h < hs; h++ {
			bot, top := hs, cfg.NZ+hs-1
			switch v {
			case IDWMom:
				s[in.idx(v, h, i)] = 0
				s[in.idx(v, cfg.NZ+hs+h, i)] = 0
			case IDUMom:
				s[in.idx(v, h, i)] = s[in.idx(v, bot, i)] / in.hyDensCell[bot] * in.hyDensCell[h]
				s[in.idx(v, cfg.NZ+hs+h, i)] = s[in.idx(v, top, i)] / in.hyDensCell[top] * in.hyDensCell[cfg.NZ+hs+h]
			default:
				s[in.idx(v, h, i)] = s[in.idx(v, bot, i)]
				s[in.idx(v, cfg.NZ+hs+h, i)] = s[in.idx(v, top, i)]
			}
		}
	})
}

// tendenciesX computes x-direction flux-divergence tendencies.
func (in *Instance) tendenciesX(s []float64, dt float64) {
	cfg := in.Cfg
	hvCoef := -0.25 * in.dx / (16 * dt) // hyperviscosity (hv_beta = 0.25)
	nxi := cfg.NX + 1
	flux := make([]float64, NumVars*cfg.NZ*nxi)
	parallel.For(cfg.NZ, func(k int) {
		var vals, d3 [NumVars]float64
		for i := 0; i <= cfg.NX; i++ {
			for v := 0; v < NumVars; v++ {
				s0 := s[in.idx(v, k+hs, i)]
				s1 := s[in.idx(v, k+hs, i+1)]
				s2 := s[in.idx(v, k+hs, i+2)]
				s3 := s[in.idx(v, k+hs, i+3)]
				vals[v] = -s0/12 + 7*s1/12 + 7*s2/12 - s3/12
				d3[v] = -s0 + 3*s1 - 3*s2 + s3
			}
			r := vals[IDDens] + in.hyDensCell[k+hs]
			u := vals[IDUMom] / r
			w := vals[IDWMom] / r
			t := (vals[IDRhoT] + in.hyDensThetaCell[k+hs]) / r
			p := c0 * math.Pow(posRT(r*t), gamma)

			base := (k*nxi + i) * NumVars
			flux[base+IDDens] = r*u - hvCoef*d3[IDDens]
			flux[base+IDUMom] = r*u*u + p - hvCoef*d3[IDUMom]
			flux[base+IDWMom] = r*u*w - hvCoef*d3[IDWMom]
			flux[base+IDRhoT] = r*u*t - hvCoef*d3[IDRhoT]
		}
	})
	parallel.For(cfg.NZ, func(k int) {
		for i := 0; i < cfg.NX; i++ {
			for v := 0; v < NumVars; v++ {
				l := (k*nxi + i) * NumVars
				rgt := (k*nxi + i + 1) * NumVars
				in.tend[in.tendIdx(v, k, i)] = -(flux[rgt+v] - flux[l+v]) / in.dx
			}
		}
	})
}

// tendenciesZ computes z-direction tendencies including the gravity
// source term.
func (in *Instance) tendenciesZ(s []float64, dt float64) {
	cfg := in.Cfg
	hvCoef := -0.25 * in.dz / (16 * dt)
	nzi := cfg.NZ + 1
	flux := make([]float64, NumVars*nzi*cfg.NX)
	parallel.For(nzi, func(k int) {
		var vals, d3 [NumVars]float64
		for i := 0; i < cfg.NX; i++ {
			for v := 0; v < NumVars; v++ {
				s0 := s[in.idx(v, k, i+hs)]
				s1 := s[in.idx(v, k+1, i+hs)]
				s2 := s[in.idx(v, k+2, i+hs)]
				s3 := s[in.idx(v, k+3, i+hs)]
				vals[v] = -s0/12 + 7*s1/12 + 7*s2/12 - s3/12
				d3[v] = -s0 + 3*s1 - 3*s2 + s3
			}
			r := vals[IDDens] + in.hyDensInt[k]
			u := vals[IDUMom] / r
			w := vals[IDWMom] / r
			t := (vals[IDRhoT] + in.hyDensThetaInt[k]) / r
			p := c0*math.Pow(posRT(r*t), gamma) - in.hyPressureInt[k]
			// Enforce zero mass/heat flux through the solid walls.
			if k == 0 || k == cfg.NZ {
				w = 0
				d3[IDDens] = 0
				d3[IDRhoT] = 0
			}
			base := (k*cfg.NX + i) * NumVars
			flux[base+IDDens] = r*w - hvCoef*d3[IDDens]
			flux[base+IDUMom] = r*w*u - hvCoef*d3[IDUMom]
			flux[base+IDWMom] = r*w*w + p - hvCoef*d3[IDWMom]
			flux[base+IDRhoT] = r*w*t - hvCoef*d3[IDRhoT]
		}
	})
	parallel.For(cfg.NZ, func(k int) {
		for i := 0; i < cfg.NX; i++ {
			for v := 0; v < NumVars; v++ {
				lo := (k*cfg.NX + i) * NumVars
				hi := ((k+1)*cfg.NX + i) * NumVars
				td := -(flux[hi+v] - flux[lo+v]) / in.dz
				if v == IDWMom {
					td -= s[in.idx(IDDens, k+hs, i+hs)] * grav
				}
				in.tend[in.tendIdx(v, k, i)] = td
			}
		}
	})
}

// Interior copies the halo-free state [NumVars][NZ][NX] into dst (or
// allocates it when nil) and returns it: the QoI vector.
func (in *Instance) Interior(dst []float64) []float64 {
	cfg := in.Cfg
	n := NumVars * cfg.NZ * cfg.NX
	if dst == nil {
		dst = make([]float64, n)
	}
	at := 0
	for v := 0; v < NumVars; v++ {
		for k := 0; k < cfg.NZ; k++ {
			for i := 0; i < cfg.NX; i++ {
				dst[at] = in.State[in.idx(v, k+hs, i+hs)]
				at++
			}
		}
	}
	return dst
}

// SetInterior overwrites the halo-free state from src (same layout as
// Interior).
func (in *Instance) SetInterior(src []float64) {
	cfg := in.Cfg
	at := 0
	for v := 0; v < NumVars; v++ {
		for k := 0; k < cfg.NZ; k++ {
			for i := 0; i < cfg.NX; i++ {
				in.State[in.idx(v, k+hs, i+hs)] = src[at]
				at++
			}
		}
	}
}

// TotalMass returns the integral of full density over the domain — the
// conserved quantity the test suite tracks.
func (in *Instance) TotalMass() float64 {
	cfg := in.Cfg
	var mass float64
	for k := 0; k < cfg.NZ; k++ {
		for i := 0; i < cfg.NX; i++ {
			r := in.State[in.idx(IDDens, k+hs, i+hs)] + in.hyDensCell[k+hs]
			mass += r * in.dx * in.dz
		}
	}
	return mass
}

// StateDims returns the shape of the full state array including halos:
// [NumVars, NZ+2hs, NX+2hs], for binding to HPAC-ML.
func (in *Instance) StateDims() (nv, nzh, nxh int) {
	return NumVars, in.Cfg.NZ + 2*hs, in.Cfg.NX + 2*hs
}

// Directives returns the 3-directive HPAC-ML annotation Table II reports
// for MiniWeather: one functor, one map over the interior of the haloed
// state array, and the ml clause with an inout array (the iterative
// solver updates its state in place).
func Directives(model, db string) string {
	return fmt.Sprintf(`
#pragma approx tensor functor(cell: [c, k, i, 0:1] = ([c, k, i]))
#pragma approx tensor map(to: cell(state[0:NV, 2:NZH-2, 2:NXH-2]))
#pragma approx ml(predicated:useModel) inout(state) model(%q) db(%q) if(gate)
`, model, db)
}
