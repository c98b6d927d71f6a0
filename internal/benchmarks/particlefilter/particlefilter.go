// Package particlefilter is a Go port of the Rodinia ParticleFilter
// benchmark (Che et al.): statistical estimation of a moving object's
// location in a synthetic, noisy video. The original application is
// itself an algorithmic approximation — a sequential Monte-Carlo filter
// with likelihood evaluation and systematic resampling over thousands of
// particles per frame. The paper's Observation 1 shows a CNN surrogate
// over the raw frames beats that approximation in both speed and
// accuracy; this port reproduces both paths.
//
// QoI: the estimated object location per frame. Metric: RMSE (Table I).
package particlefilter

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
)

// Config sizes the video and the filter.
type Config struct {
	FrameSize int // frames are FrameSize x FrameSize pixels
	NumFrames int
	Particles int
	Seed      int64
}

// DefaultConfig matches a Rodinia-style small video with a heavy filter.
func DefaultConfig() Config {
	return Config{FrameSize: 32, NumFrames: 32, Particles: 4096, Seed: 17}
}

// Instance holds the synthetic video, the ground truth track, and the
// filter state.
type Instance struct {
	Cfg Config

	// Video is [NumFrames][FrameSize][FrameSize] pixel intensities in
	// [0, 255]; the region's input array (one frame at a time).
	Video []float64
	// TruthX/TruthY is the ground-truth object location per frame — the
	// training target captured during collection.
	TruthX []float64
	TruthY []float64
	// EstX/EstY is the filter's (or surrogate's) estimate per frame: the
	// QoI.
	EstX []float64
	EstY []float64

	// Filter state.
	px, py   []float64
	weights  []float64
	cdf      []float64
	rng      *rand.Rand
	template []int // disk offsets (dy, dx interleaved)

}

// Object appearance constants from the Rodinia generator: the object is a
// disk of foreground intensity on a darker background, plus Gaussian
// noise.
const (
	diskRadius = 5
	background = 100.0
	foreground = 228.0
	pixelNoise = 12.0
)

// New synthesizes the video and ground truth and prepares the filter.
func New(cfg Config) (*Instance, error) {
	if cfg.FrameSize < 16 || cfg.NumFrames <= 0 || cfg.Particles <= 0 {
		return nil, fmt.Errorf("particlefilter: bad config %+v", cfg)
	}
	in := &Instance{
		Cfg:     cfg,
		Video:   make([]float64, cfg.NumFrames*cfg.FrameSize*cfg.FrameSize),
		TruthX:  make([]float64, cfg.NumFrames),
		TruthY:  make([]float64, cfg.NumFrames),
		EstX:    make([]float64, cfg.NumFrames),
		EstY:    make([]float64, cfg.NumFrames),
		px:      make([]float64, cfg.Particles),
		py:      make([]float64, cfg.Particles),
		weights: make([]float64, cfg.Particles),
		cdf:     make([]float64, cfg.Particles),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	for dy := -diskRadius; dy <= diskRadius; dy++ {
		for dx := -diskRadius; dx <= diskRadius; dx++ {
			if dy*dy+dx*dx <= diskRadius*diskRadius {
				in.template = append(in.template, dy, dx)
			}
		}
	}
	in.SynthesizeVideo(cfg.Seed)
	return in, nil
}

// SynthesizeVideo regenerates the video with a fresh trajectory: the
// object starts near a corner and drifts diagonally with process noise
// (the Rodinia dynamics x += 1, y += 2 plus noise), bouncing at walls.
func (in *Instance) SynthesizeVideo(seed int64) {
	cfg := in.Cfg
	rng := rand.New(rand.NewSource(seed))
	fs := float64(cfg.FrameSize)
	x := fs * 0.25
	y := fs * 0.25
	vx, vy := 1.0, 2.0
	for f := 0; f < cfg.NumFrames; f++ {
		x += vx + rng.NormFloat64()*0.25
		y += vy + rng.NormFloat64()*0.5
		if x < diskRadius+1 || x > fs-diskRadius-2 {
			vx = -vx
			x = math.Max(diskRadius+1, math.Min(fs-diskRadius-2, x))
		}
		if y < diskRadius+1 || y > fs-diskRadius-2 {
			vy = -vy
			y = math.Max(diskRadius+1, math.Min(fs-diskRadius-2, y))
		}
		in.TruthX[f] = x
		in.TruthY[f] = y
		base := f * cfg.FrameSize * cfg.FrameSize
		for py := 0; py < cfg.FrameSize; py++ {
			for px := 0; px < cfg.FrameSize; px++ {
				dx := float64(px) - x
				dy := float64(py) - y
				v := background
				if dx*dx+dy*dy <= diskRadius*diskRadius {
					v = foreground
				}
				v += rng.NormFloat64() * pixelNoise
				if v < 0 {
					v = 0
				}
				if v > 255 {
					v = 255
				}
				in.Video[base+py*cfg.FrameSize+px] = v
			}
		}
	}
}

// Frame returns the pixel slice of frame f (aliased, not copied).
func (in *Instance) Frame(f int) []float64 {
	n := in.Cfg.FrameSize * in.Cfg.FrameSize
	return in.Video[f*n : (f+1)*n]
}

// ResetFilter re-seeds the particles at the first ground-truth location,
// as the Rodinia code does.
func (in *Instance) ResetFilter() {
	in.rng = rand.New(rand.NewSource(in.Cfg.Seed + 99))
	for p := 0; p < in.Cfg.Particles; p++ {
		in.px[p] = in.TruthX[0]
		in.py[p] = in.TruthY[0]
	}
}

// RunFilterFrame is the accurate execution path for one frame: propagate
// particles, compute likelihoods against the frame, normalize, estimate,
// and resample. It returns the location estimate.
func (in *Instance) RunFilterFrame(f int) (x, y float64) {
	cfg := in.Cfg
	frame := in.Frame(f)
	fs := cfg.FrameSize

	// Propagation with the known dynamics plus process noise (drawn
	// serially for determinism, as Rodinia does with its LCG).
	for p := 0; p < cfg.Particles; p++ {
		in.px[p] += 1 + in.rng.NormFloat64()*1.0
		in.py[p] += 2 + in.rng.NormFloat64()*2.0
	}

	// Likelihood kernel: for each particle, compare the disk template
	// against the frame (the Rodinia likelihood with foreground and
	// background hypotheses).
	parallel.For(cfg.Particles, func(p int) {
		cx := int(math.Round(in.px[p]))
		cy := int(math.Round(in.py[p]))
		var like float64
		nPts := len(in.template) / 2
		for ti := 0; ti < len(in.template); ti += 2 {
			yy := cy + in.template[ti]
			xx := cx + in.template[ti+1]
			if yy < 0 {
				yy = 0
			}
			if yy >= fs {
				yy = fs - 1
			}
			if xx < 0 {
				xx = 0
			}
			if xx >= fs {
				xx = fs - 1
			}
			v := frame[yy*fs+xx]
			like += (v-background)*(v-background) - (v-foreground)*(v-foreground)
		}
		in.weights[p] = like / float64(nPts) / (2 * pixelNoise * pixelNoise)
	})

	// Normalize in log space for stability, then estimate.
	maxW := math.Inf(-1)
	for _, w := range in.weights {
		if w > maxW {
			maxW = w
		}
	}
	var sum float64
	for p := range in.weights {
		in.weights[p] = math.Exp(in.weights[p] - maxW)
		sum += in.weights[p]
	}
	for p := range in.weights {
		in.weights[p] /= sum
		x += in.px[p] * in.weights[p]
		y += in.py[p] * in.weights[p]
	}

	// Systematic resampling through the weight CDF.
	acc := 0.0
	for p := range in.weights {
		acc += in.weights[p]
		in.cdf[p] = acc
	}
	u0 := in.rng.Float64() / float64(cfg.Particles)
	newX := make([]float64, cfg.Particles)
	newY := make([]float64, cfg.Particles)
	j := 0
	for p := 0; p < cfg.Particles; p++ {
		u := u0 + float64(p)/float64(cfg.Particles)
		for j < cfg.Particles-1 && in.cdf[j] < u {
			j++
		}
		newX[p] = in.px[j]
		newY[p] = in.py[j]
	}
	copy(in.px, newX)
	copy(in.py, newY)
	return x, y
}

// RunFilter runs the accurate particle filter over every frame, filling
// EstX/EstY.
func (in *Instance) RunFilter() {
	in.ResetFilter()
	for f := 0; f < in.Cfg.NumFrames; f++ {
		in.EstX[f], in.EstY[f] = in.RunFilterFrame(f)
	}
}

// TrackRMSE returns the RMSE of the estimates against ground truth over
// both coordinates — the benchmark QoI error.
func (in *Instance) TrackRMSE() float64 {
	var s float64
	n := 0
	for f := 0; f < in.Cfg.NumFrames; f++ {
		dx := in.EstX[f] - in.TruthX[f]
		dy := in.EstY[f] - in.TruthY[f]
		s += dx*dx + dy*dy
		n += 2
	}
	return math.Sqrt(s / float64(n))
}

// Directives returns the 4-directive HPAC-ML annotation (Table II): the
// frame gathers as an image, the location estimate scatters back through
// an inline functor application.
func Directives(model, db string) string {
	return fmt.Sprintf(`
#pragma approx tensor functor(pix: [i, j, 0:1] = ([i, j]))
#pragma approx tensor functor(loc: [i, 0:2] = ([i, 0:2]))
#pragma approx tensor map(to: pix(frame[0:FS, 0:FS]))
#pragma approx ml(predicated:useModel) in(frame) out(loc(est[0:1, 0:2])) model(%q) db(%q)
`, model, db)
}
