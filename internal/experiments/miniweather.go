package experiments

import (
	"fmt"
	"math"

	hpacml "repro"

	"repro/internal/benchmarks/common"
	"repro/internal/benchmarks/miniweather"
	"repro/internal/bo"
	"repro/internal/nn"
)

// weather is MiniWeather's hook set: an iterative, auto-regressive
// region whose state array is both input and output (the 3-directive
// inout annotation of Table II). The if clause gates surrogate use per
// timestep, enabling the Figure 9 interleaving study.
type weather struct {
	in   *miniweather.Instance
	gate bool // the if clause: true runs the HPAC-ML path
}

// NewMiniWeather builds the MiniWeather harness with the Table IV
// convolutional family.
func NewMiniWeather(scale Scale) *Harness {
	h, _ := newMiniWeather(scale)
	return h
}

// newMiniWeather also returns the hook set, which Figure 9 drives.
func newMiniWeather(scale Scale) (*Harness, *weather) {
	cfg := miniweather.DefaultConfig()
	if scale == ScaleTest {
		cfg.NX, cfg.NZ = 32, 16
	}
	in, err := miniweather.New(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: miniweather config invalid: %v", err))
	}

	var arch *bo.Space
	if scale == ScaleFull {
		arch = &bo.Space{Params: []bo.Param{
			bo.IntParam{Key: "conv1_kernel", Min: 2, Max: 8},
			bo.IntParam{Key: "conv1_channels", Min: 4, Max: 8},
			bo.IntParam{Key: "conv2_kernel", Min: 0, Max: 6},
		}}
	} else {
		arch = &bo.Space{Params: []bo.Param{
			bo.IntParam{Key: "conv1_kernel", Min: 2, Max: 4},
			bo.IntParam{Key: "conv1_channels", Min: 4, Max: 6},
			bo.IntParam{Key: "conv2_kernel", Min: 0, Max: 3},
		}}
	}
	w := &weather{in: in, gate: true}
	nv, nzh, nxh := in.StateDims()
	return newHarness(&Harness{
		info: common.Info{
			Name:        "miniweather",
			Description: "Atmospheric dynamics via essential weather/climate modeling equations",
			QoI:         "Simulation state variables (density, x momentum, z momentum, potential temperature) at each gridpoint",
			Metric:      common.MetricRMSE,
			TotalLoC:    miniweather.SourceLoC(),
		},
		arch: arch,
		paperArch: []string{
			"Conv. Layer 1 Kernel Size: [2, 8]",
			"Conv. Layer 1 Output Channels: [4, 8]",
			"Conv. Layer 2 Kernel Size: [0, 6]",
		},
		directives: miniweather.Directives,
		bind: []hpacml.Option{
			hpacml.BindInt("NV", nv),
			hpacml.BindInt("NZH", nzh),
			hpacml.BindInt("NXH", nxh),
			hpacml.BindArray("state", in.State, nv, nzh, nxh),
			hpacml.BindPredicate("gate", func() bool { return w.gate }),
			hpacml.InputLayout(hpacml.LayoutChannels),
			hpacml.OutputLayout(hpacml.LayoutChannels),
		},
		app: w,
	}), w
}

func (w *weather) step() error { w.in.Step(); return nil }

// collect runs the simulation forward from one thermal bubble,
// recording (state_t, state_t+1) pairs — the auto-regressive training
// set — ten timesteps per collection run.
func (w *weather) collect(r *hpacml.Region, opt Options) error {
	w.in.InitThermalBubble()
	w.gate = true
	for s := 0; s < opt.CollectRuns*10; s++ {
		if err := r.Execute(w.step); err != nil {
			return fmt.Errorf("step %d: %w", s, err)
		}
	}
	return nil
}

func (w *weather) overhead(Options) (func() error, func(*hpacml.Region) error) {
	w.in.InitThermalBubble()
	w.gate = true
	return w.step, func(r *hpacml.Region) error { return r.Execute(w.step) }
}

// evaluation spins the simulation up with accurate steps, then compares
// an all-surrogate rollout against the accurate continuation: RMSE of
// the final state and end-to-end speedup over the rollout window.
func (w *weather) evaluation(Options) evaluation {
	const spinup, window = 30, 10
	w.in.InitThermalBubble()
	for s := 0; s < spinup; s++ {
		w.in.Step()
	}
	snapshot := w.in.Interior(nil)
	w.gate = true
	return evaluation{
		runs: 1,
		accurate: func() error {
			w.in.SetInterior(snapshot)
			for s := 0; s < window; s++ {
				w.in.Step()
			}
			return nil
		},
		surrogate: func(r *hpacml.Region) error {
			w.in.SetInterior(snapshot)
			for s := 0; s < window; s++ {
				if err := r.Execute(w.step); err != nil {
					return err
				}
			}
			return nil
		},
		reference: func(m common.Metric) scorer {
			return compare(m, func() []float64 { return w.in.Interior(nil) })
		},
	}
}

// mwStats holds the per-channel normalization statistics computed from a
// training database: input mean/std of the state channels and the std of
// the per-step delta (next state minus current state).
type mwStats struct {
	inMean, inStd, deltaStd []float64
	blockLen                int
}

// computeMWStats derives the normalization statistics from the dataset.
func computeMWStats(ds *nn.Dataset) mwStats {
	nc := miniweather.NumVars
	per := ds.Y.Dim(1) / nc
	rows := ds.Y.Dim(0)
	xd := ds.X.Contiguous().Data()
	yd := ds.Y.Contiguous().Data()
	st := mwStats{
		inMean:   make([]float64, nc),
		inStd:    make([]float64, nc),
		deltaStd: make([]float64, nc),
		blockLen: per,
	}
	cols := nc * per
	for c := 0; c < nc; c++ {
		var sum, sum2, dsum, dsum2 float64
		n := 0
		for row := 0; row < rows; row++ {
			base := row*cols + c*per
			for i := 0; i < per; i++ {
				x := xd[base+i]
				d := yd[base+i] - x
				sum += x
				sum2 += x * x
				dsum += d
				dsum2 += d * d
				n++
			}
		}
		mean := sum / float64(n)
		st.inMean[c] = mean
		st.inStd[c] = math.Sqrt(math.Max(1e-12, sum2/float64(n)-mean*mean))
		dmean := dsum / float64(n)
		st.deltaStd[c] = math.Sqrt(math.Max(1e-12, dsum2/float64(n)-dmean*dmean))
	}
	return st
}

// build fits the convolutional surrogate for normalized-delta
// training: the model internally standardizes its input channels,
// predicts the per-step delta on a normalized scale, rescales it to
// physical units, and adds it to the input (residual). The loss weights
// each channel by the inverse variance of its delta so the small-scale
// density channel — which drives the gravity source term when the
// surrogate runs auto-regressively — carries equal gradient weight.
func (w *weather) build(arch map[string]bo.Value, dropout float64, ds *nn.Dataset, opt Options) (*nn.Network, nn.Loss, error) {
	stats := computeMWStats(ds)
	net, err := w.buildCNN(arch, dropout, opt.Seed, stats)
	if err != nil {
		return nil, nil, err
	}
	return net, nn.WeightedMSE{Weights: nn.InverseVarianceWeights(stats.deltaStd, stats.blockLen, 1e-9)}, nil
}

// buildCNN realizes the Table IV MiniWeather family: one or two conv
// layers (conv2_kernel = 0 drops the second) and a dense decoder, wrapped
// as body of a residual block with channel normalization on the way in
// and delta-scale restoration on the way out.
func (w *weather) buildCNN(arch map[string]bo.Value, dropout float64, seed int64, stats mwStats) (*nn.Network, error) {
	cfg := w.in.Cfg
	k1 := arch["conv1_kernel"].Int
	ch := arch["conv1_channels"].Int
	k2 := arch["conv2_kernel"].Int
	nc := miniweather.NumVars

	inScales := make([]float64, nc)
	inShifts := make([]float64, nc)
	for c := 0; c < nc; c++ {
		inScales[c] = 1 / stats.inStd[c]
		inShifts[c] = -stats.inMean[c] / stats.inStd[c]
	}

	body := nn.NewNetwork(seed)
	body.Add(nn.NewChannelAffine(stats.blockLen, inScales, inShifts))
	body.Add(body.NewConv2D(nc, ch, k1, k1, 1), nn.NewActivation(nn.ActTanh))
	if k2 > 1 {
		body.Add(body.NewConv2D(ch, ch, k2, k2, 1), nn.NewActivation(nn.ActTanh))
	}
	body.Add(nn.NewFlatten())
	sample, err := body.OutShape([]int{nc, cfg.NZ, cfg.NX})
	if err != nil {
		return nil, fmt.Errorf("experiments: invalid MiniWeather architecture %v: %w", arch, err)
	}
	flat := sample[0]
	if dropout > 0 {
		body.Add(body.NewDropout(dropout))
	}
	// Bottleneck decoder: a small latent keeps the dense decode cost (the
	// dominant FLOPs term) proportional to the grid rather than quadratic
	// in it.
	const latent = 48
	body.Add(body.NewDense(flat, latent), nn.NewActivation(nn.ActTanh))
	body.Add(body.NewDense(latent, nc*cfg.NZ*cfg.NX))
	body.Add(nn.NewChannelAffine(stats.blockLen, stats.deltaStd, nil))

	net := nn.NewNetwork(seed + 1)
	net.Add(nn.NewResidual(body))
	return net, nil
}
