package experiments

import (
	"fmt"
	"math"

	hpacml "repro"

	"repro/internal/benchmarks/common"
	"repro/internal/bo"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// tabular is the hook set of the three MLP benchmarks (MiniBUDE,
// Binomial Options, Bonds): per-sample feature rows in, one QoI row
// out, fresh random inputs for every collection run.
type tabular struct {
	// reset re-randomizes the inputs with the given seed.
	reset func(seed int64)
	// run executes the accurate path over the whole batch.
	run func() error
	// out is the QoI buffer the region scatters into.
	out []float64
	// hidden maps an architecture to its hidden-layer sizes.
	hidden func(arch map[string]bo.Value) ([]int, error)
}

func (t *tabular) collect(r *hpacml.Region, opt Options) error {
	for run := 0; run < opt.CollectRuns; run++ {
		t.reset(opt.Seed + int64(run))
		if err := r.Execute(t.run); err != nil {
			return fmt.Errorf("run %d: %w", run, err)
		}
	}
	return nil
}

func (t *tabular) overhead(opt Options) (func() error, func(*hpacml.Region) error) {
	t.reset(opt.Seed)
	return t.run, func(r *hpacml.Region) error { return r.Execute(t.run) }
}

// evaluation times the batch on inputs unseen during training.
func (t *tabular) evaluation(opt Options) evaluation {
	t.reset(opt.Seed + 101)
	return evaluation{
		runs:      opt.EvalRuns,
		accurate:  t.run,
		surrogate: func(r *hpacml.Region) error { return r.Execute(nil) },
		reference: func(m common.Metric) scorer {
			return compare(m, func() []float64 { return t.out })
		},
	}
}

// build assembles an MLP, wrapped in fixed standardization when
// Options.Normalize is set.
func (t *tabular) build(arch map[string]bo.Value, dropout float64, ds *nn.Dataset, opt Options) (*nn.Network, nn.Loss, error) {
	hidden, err := t.hidden(arch)
	if err != nil {
		return nil, nil, err
	}
	net := buildMLP(hidden, dropout, ds.X.Dim(1), ds.Y.Dim(1), opt.Seed)
	if opt.Normalize {
		net, err = standardizeNet(net, ds, opt.Seed)
	}
	return net, nil, err
}

// twoLayerSpace is the Table IV Binomial/Bonds family: one or two hidden
// layers (hidden2 = 0 drops the second), scaled down at ScaleTest.
func twoLayerSpace(scale Scale) (*bo.Space, []string) {
	h1Max, h2Max := 512, 512
	if scale == ScaleTest {
		h1Max, h2Max = 48, 24
	}
	space := &bo.Space{Params: []bo.Param{
		bo.IntParam{Key: "hidden1", Min: 5, Max: h1Max},
		bo.IntParam{Key: "hidden2", Min: 0, Max: h2Max},
	}}
	return space, []string{
		"Hidden 1 Features: [5, 512]",
		"Hidden 2 Features: [0, 512]",
	}
}

// twoLayerHidden realizes a twoLayerSpace assignment.
func twoLayerHidden(arch map[string]bo.Value) ([]int, error) {
	h1 := arch["hidden1"].Int
	h2 := arch["hidden2"].Int
	if h1 < 1 || h2 < 0 {
		return nil, fmt.Errorf("experiments: bad arch %v", arch)
	}
	hidden := []int{h1}
	if h2 > 0 {
		hidden = append(hidden, h2)
	}
	return hidden, nil
}

// standardizeNet sandwiches net between fixed per-feature affine layers
// fitted on the training set: inputs are standardized to zero mean and
// unit variance before the first layer, outputs are mapped back to raw
// scale after the last. The affine layers carry no trainable parameters
// (they are architecture, like a TorchScript archive's preprocessing),
// so Fit optimizes the same raw-space loss while the hidden layers see
// conditioned activations — and the saved model stays self-contained,
// eating and emitting raw application data.
func standardizeNet(net *nn.Network, ds *nn.Dataset, seed int64) (*nn.Network, error) {
	inMean, inStd, err := featureStats(ds.X)
	if err != nil {
		return nil, err
	}
	outMean, outStd, err := featureStats(ds.Y)
	if err != nil {
		return nil, err
	}
	inScale := make([]float64, len(inMean))
	inShift := make([]float64, len(inMean))
	for j := range inMean {
		inScale[j] = 1 / inStd[j]
		inShift[j] = -inMean[j] / inStd[j]
	}
	wrapped := nn.NewNetwork(seed)
	wrapped.Add(nn.NewChannelAffine(1, inScale, inShift))
	for _, e := range net.Layers {
		wrapped.Add(e.Layer)
	}
	wrapped.Add(nn.NewChannelAffine(1, outStd, outMean))
	return wrapped, nil
}

// featureStats computes the per-column mean and standard deviation of a
// [rows, features] tensor. Constant columns get a stddev of 1 so the
// standardization stays invertible.
func featureStats(t *tensor.Tensor) (mean, std []float64, err error) {
	if t.Rank() != 2 || t.Dim(0) == 0 {
		return nil, nil, fmt.Errorf("feature stats want a non-empty [rows, features] tensor, got %v", t.Shape())
	}
	rows, cols := t.Dim(0), t.Dim(1)
	d := t.Contiguous().Data()
	mean = make([]float64, cols)
	std = make([]float64, cols)
	for i, v := range d {
		mean[i%cols] += v
	}
	for j := range mean {
		mean[j] /= float64(rows)
	}
	for i, v := range d {
		dv := v - mean[i%cols]
		std[i%cols] += dv * dv
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / float64(rows))
		if std[j] == 0 {
			std[j] = 1
		}
	}
	return mean, std, nil
}

// buildMLP assembles hidden layers with ReLU activations and optional
// dropout before the output layer.
func buildMLP(hidden []int, dropout float64, inF, outF int, seed int64) *nn.Network {
	net := nn.NewNetwork(seed)
	prev := inF
	for _, hSize := range hidden {
		net.Add(net.NewDense(prev, hSize), nn.NewActivation(nn.ActReLU))
		prev = hSize
	}
	if dropout > 0 {
		net.Add(net.NewDropout(dropout))
	}
	net.Add(net.NewDense(prev, outF))
	return net
}
