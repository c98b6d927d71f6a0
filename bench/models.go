package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	hpacml "repro"

	"repro/internal/benchmarks/binomial"
	"repro/internal/h5"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// The two fixed models. small is the binomial-options surrogate
// 3 -> 64 -> 32 -> 1, collected and trained in setup; wide is a
// seeded-init 64 -> 512 -> 512 -> 16, the Table IV width ceiling.
const (
	smallIn, smallOut = 3, 1
	wideIn, wideOut   = 64, 16
	wideHidden        = 512
	quantFitRows      = 4096
	binomialRegion    = "binomial"

	// modelSeed fixes both models' weights, and small's training data,
	// across runs: -seed varies the inputs a workload is timed on, never
	// the model. The GEMM kernels skip zero activations, so a different
	// model is a different amount of work.
	modelSeed = 11
)

func mlp(seed int64, in int, hidden []int, out int) *nn.Network {
	net := nn.NewNetwork(seed)
	prev := in
	for _, h := range hidden {
		net.Add(net.NewDense(prev, h), nn.NewActivation(nn.ActReLU))
		prev = h
	}
	net.Add(net.NewDense(prev, out))
	return net
}

func newPortfolio(cfg config, seed int64) (*binomial.Instance, error) {
	bc := binomial.DefaultConfig()
	bc.NumOptions, bc.Seed = cfg.options, seed
	return binomial.New(bc)
}

// binomialRegionFor wraps the portfolio's arrays in the benchmark's
// 4-directive annotation. useModel selects inference (true) or
// collection (false) through the predicate, as an application would.
func binomialRegionFor(in *binomial.Instance, model, db string, useModel bool, extra ...hpacml.Option) (*hpacml.Region, error) {
	n := in.Cfg.NumOptions
	opts := append([]hpacml.Option{
		hpacml.Directives(binomial.Directives(model, db)),
		hpacml.BindInt("NOPT", n),
		hpacml.BindArray("S", in.S, n),
		hpacml.BindArray("X", in.X, n),
		hpacml.BindArray("T", in.T, n),
		hpacml.BindArray("prices", in.Prices, n),
		hpacml.BindPredicate("useModel", func() bool { return useModel }),
	}, extra...)
	return hpacml.NewRegion(binomialRegion, opts...)
}

// modelFile is a saved model plus what building it cost.
type modelFile struct {
	net      *nn.Network
	path     string
	in, out  int
	collectS float64 // data collection through the region
	trainS   float64 // nn.Fit
}

// buildSmall is the paper's workflow end to end: run the annotated
// region once in collection mode (one accurate sweep of the portfolio
// into a .gh5 database), train the surrogate from the database, save
// it.
func buildSmall(cfg config, dir string) (*modelFile, error) {
	in, err := newPortfolio(cfg, modelSeed)
	if err != nil {
		return nil, err
	}
	db := filepath.Join(dir, "train.gh5")
	start := time.Now()
	region, err := binomialRegionFor(in, "", db, false)
	if err != nil {
		return nil, err
	}
	err = region.Execute(func() error { in.ComputePrices(); return nil })
	if cerr := region.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("collect: %w", err)
	}
	collectS := time.Since(start).Seconds()

	f, err := h5.OpenShards(db)
	if err != nil {
		return nil, err
	}
	x, err := f.Read(binomialRegion, "inputs")
	if err != nil {
		return nil, err
	}
	y, err := f.Read(binomialRegion, "outputs")
	if err != nil {
		return nil, err
	}
	ds, err := nn.NewDataset(x, y)
	if err != nil {
		return nil, err
	}
	net := mlp(modelSeed, smallIn, []int{64, 32}, smallOut)
	start = time.Now()
	if _, err := net.Fit(ds, nil, nn.TrainConfig{Epochs: cfg.epochs, BatchSize: 64, LR: 1e-3, Seed: modelSeed}); err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	trainS := time.Since(start).Seconds()
	path := filepath.Join(dir, "small.gmod")
	if err := net.Save(path); err != nil {
		return nil, err
	}
	return &modelFile{net: net, path: path, in: smallIn, out: smallOut, collectS: collectS, trainS: trainS}, nil
}

func buildWide(_ config, dir string) (*modelFile, error) {
	net := mlp(modelSeed, wideIn, []int{wideHidden, wideHidden}, wideOut)
	path := filepath.Join(dir, "wide.gmod")
	if err := net.Save(path); err != nil {
		return nil, err
	}
	return &modelFile{net: net, path: path, in: wideIn, out: wideOut}, nil
}

// fitQuant fits the int8 calibration sidecar beside the model file on
// generated rows, exactly what hpacml-quant does from a capture
// database. The sidecar is part of the fixed model, so its rows come
// from modelSeed too.
func fitQuant(m *modelFile) (seconds float64, err error) {
	x := tensor.New(quantFitRows, m.in)
	fillInputs(x.Data(), m.in, rand.New(rand.NewSource(modelSeed)))
	start := time.Now()
	calib, err := hpacml.FitQuant(m.net, x, hpacml.QuantFitConfig{})
	if err != nil {
		return 0, err
	}
	if err := calib.SaveQuant(nn.QuantPath(m.path)); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// fillInputs draws model-input rows: option parameters in the binomial
// benchmark's ranges for the 3-feature model, uniform [-1, 1) features
// otherwise.
func fillInputs(dst []float64, cols int, rng *rand.Rand) {
	if cols == smallIn {
		for i := 0; i < len(dst); i += smallIn {
			dst[i] = 5 + 25*rng.Float64()
			dst[i+1] = 1 + 99*rng.Float64()
			dst[i+2] = 0.25 + 9.75*rng.Float64()
		}
		return
	}
	for i := range dst {
		dst[i] = 2*rng.Float64() - 1
	}
}

// forward is the f64 reference: Network.ForwardInto on a [rows, in]
// slab.
func forward(net *nn.Network, x []float64, rows, in, out int) ([]float64, error) {
	xt, err := tensor.Wrap(x, rows, in)
	if err != nil {
		return nil, err
	}
	yt := tensor.New(rows, out)
	if err := net.ForwardInto(yt, xt); err != nil {
		return nil, err
	}
	return yt.Data(), nil
}
