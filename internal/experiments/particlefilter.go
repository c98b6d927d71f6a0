package experiments

import (
	"fmt"

	hpacml "repro"

	"repro/internal/benchmarks/common"
	"repro/internal/benchmarks/particlefilter"
	"repro/internal/bo"
	"repro/internal/nn"
)

// tracker is ParticleFilter's hook set: a CNN over raw frames replaces
// the whole filter (Observation 1).
type tracker struct {
	in    *particlefilter.Instance
	frame []float64 // the region's bound input frame
	est   []float64 // the region's bound output location [1][2]
}

// NewParticleFilter builds the ParticleFilter harness with the Table IV
// CNN family (conv kernel/stride, maxpool kernel, FC2 size).
func NewParticleFilter(scale Scale) *Harness {
	cfg := particlefilter.DefaultConfig()
	if scale == ScaleTest {
		cfg.NumFrames = 24
		cfg.Particles = 1024
	}
	in, err := particlefilter.New(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: particlefilter config invalid: %v", err))
	}

	var arch *bo.Space
	if scale == ScaleFull {
		arch = &bo.Space{Params: []bo.Param{
			bo.IntParam{Key: "conv_kernel", Min: 2, Max: 14},
			bo.IntParam{Key: "conv_stride", Min: 1, Max: 14},
			bo.IntParam{Key: "pool_kernel", Min: 1, Max: 10},
			bo.IntParam{Key: "fc2", Min: 0, Max: 128},
		}}
	} else {
		arch = &bo.Space{Params: []bo.Param{
			bo.IntParam{Key: "conv_kernel", Min: 2, Max: 6},
			bo.IntParam{Key: "conv_stride", Min: 1, Max: 3},
			bo.IntParam{Key: "pool_kernel", Min: 1, Max: 3},
			bo.IntParam{Key: "fc2", Min: 0, Max: 48},
		}}
	}
	fs := in.Cfg.FrameSize
	p := &tracker{in: in, frame: make([]float64, fs*fs), est: make([]float64, 2)}
	return newHarness(&Harness{
		info: common.Info{
			Name:        "particlefilter",
			Description: "Statistical estimation of a target object's location in noisy video frames",
			QoI:         "The location of the object",
			Metric:      common.MetricRMSE,
			TotalLoC:    particlefilter.SourceLoC(),
		},
		arch: arch,
		paperArch: []string{
			"Conv. Kernel Size; Conv. Stride: [2, 14]",
			"Maxpool Kernel Size: [1, 10]",
			"FC 2 Size: [0, 128]",
		},
		directives: particlefilter.Directives,
		bind: []hpacml.Option{
			hpacml.BindInt("FS", fs),
			hpacml.BindArray("frame", p.frame, fs, fs),
			hpacml.BindArray("est", p.est, 1, 2),
			hpacml.InputLayout(hpacml.LayoutImage2D),
			hpacml.OutputLayout(hpacml.LayoutFlat),
		},
		app: p,
	})
}

// video runs the filter over every frame of the current video through
// r. The accurate path runs the filter for the frame but captures the
// ground truth as the training target, as the paper's PF port does.
func (p *tracker) video(r *hpacml.Region) error {
	p.in.ResetFilter()
	for f := 0; f < p.in.Cfg.NumFrames; f++ {
		copy(p.frame, p.in.Frame(f))
		if err := r.Execute(func() error {
			p.in.EstX[f], p.in.EstY[f] = p.in.RunFilterFrame(f)
			p.est[0] = p.in.TruthX[f]
			p.est[1] = p.in.TruthY[f]
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// collect runs one video per collection run: several videos widen the
// training distribution.
func (p *tracker) collect(r *hpacml.Region, opt Options) error {
	for v := 0; v < max(opt.CollectRuns, 1); v++ {
		p.in.SynthesizeVideo(opt.Seed + int64(v))
		if err := p.video(r); err != nil {
			return fmt.Errorf("video %d: %w", v, err)
		}
	}
	return nil
}

func (p *tracker) overhead(opt Options) (func() error, func(*hpacml.Region) error) {
	p.in.SynthesizeVideo(opt.Seed)
	return p.filter, p.video
}

func (p *tracker) filter() error { p.in.RunFilter(); return nil }

// evaluation runs the original filter and the surrogate over a held-out
// video and scores both against ground truth; the filter's error is
// the baseline (the vertical line of Figure 7).
func (p *tracker) evaluation(opt Options) evaluation {
	p.in.SynthesizeVideo(opt.Seed + 777)
	return evaluation{
		runs:     opt.EvalRuns,
		accurate: p.filter,
		surrogate: func(r *hpacml.Region) error {
			for f := 0; f < p.in.Cfg.NumFrames; f++ {
				copy(p.frame, p.in.Frame(f))
				if err := r.Execute(nil); err != nil {
					return err
				}
				p.in.EstX[f], p.in.EstY[f] = p.est[0], p.est[1]
			}
			return nil
		},
		reference: func(common.Metric) scorer {
			baseline := p.in.TrackRMSE()
			return func() (float64, float64, error) { return p.in.TrackRMSE(), baseline, nil }
		},
	}
}

// build realizes the PF CNN: conv -> ReLU -> maxpool -> flatten ->
// [dense fc2 -> ReLU ->] dense(2). Invalid geometry combinations return
// an error, which the search treats as a failed trial.
func (p *tracker) build(arch map[string]bo.Value, dropout float64, _ *nn.Dataset, opt Options) (*nn.Network, nn.Loss, error) {
	fs := p.in.Cfg.FrameSize
	k := arch["conv_kernel"].Int
	s := arch["conv_stride"].Int
	pool := arch["pool_kernel"].Int
	fc2 := arch["fc2"].Int
	const channels = 4

	net := nn.NewNetwork(opt.Seed)
	// Normalize raw 0-255 pixels around zero before the convolutions.
	net.Add(nn.NewAffine(1.0/255, -0.5))
	net.Add(net.NewConv2D(1, channels, k, k, s), nn.NewActivation(nn.ActReLU))
	if pool > 1 {
		net.Add(nn.NewMaxPool2D(pool))
	}
	net.Add(nn.NewFlatten())
	sample, err := net.OutShape([]int{1, fs, fs})
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: invalid PF architecture %v: %w", arch, err)
	}
	flat := sample[0]
	if fc2 > 0 {
		net.Add(net.NewDense(flat, fc2), nn.NewActivation(nn.ActReLU))
		flat = fc2
	}
	if dropout > 0 {
		net.Add(net.NewDropout(dropout))
	}
	net.Add(net.NewDense(flat, 2))
	return net, nil, nil
}
