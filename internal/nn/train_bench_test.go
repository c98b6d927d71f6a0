package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// benchBinomialDataset builds a binomial-shaped regression set: five
// option-pricing-style features mapping to one price, the shape of the
// paper's Binomial benchmark surrogate.
func benchBinomialDataset(n int) *Dataset {
	rng := rand.New(rand.NewSource(42))
	x := tensor.New(n, 5)
	y := tensor.New(n, 1)
	for i := 0; i < n; i++ {
		s := rng.Float64()*40 + 80  // spot
		k := rng.Float64()*40 + 80  // strike
		tm := rng.Float64()*2 + 0.1 // maturity
		v := rng.Float64()*0.4 + 0.1
		r := rng.Float64() * 0.05
		x.Set(s, i, 0)
		x.Set(k, i, 1)
		x.Set(tm, i, 2)
		x.Set(v, i, 3)
		x.Set(r, i, 4)
		y.Set(math.Max(s-k, 0)+v*math.Sqrt(tm)*s*0.4, i, 0)
	}
	ds, err := NewDataset(x, y)
	if err != nil {
		panic(err)
	}
	return ds
}

// BenchmarkTrainEpoch measures one full Fit epoch (shuffle, minibatch
// gather, forward, backward, optimizer) of an MLP on the binomial-shaped
// dataset, at the surrogate sizes the repo's searches actually train
// (quickstart's 16-hidden net up to examples/binomial's 128x64). ns/op
// is epoch wall time; B/op exposes the trainer's allocation behavior.
// Run it against the pre-arena trainer to see the zero-allocation
// engine's win: the Table V regime — hundreds of small models — is
// where per-step gather and per-layer allocation dominated.
func BenchmarkTrainEpoch(b *testing.B) {
	train := benchBinomialDataset(512)
	val := benchBinomialDataset(64)
	shapes := []struct {
		name   string
		hidden []int
	}{
		{"h16", []int{16}},
		{"h64x32", []int{64, 32}},
		{"h128x64", []int{128, 64}},
	}
	for _, shape := range shapes {
		for _, opt := range []string{"adam", "sgd"} {
			b.Run(shape.name+"/"+opt, func(b *testing.B) {
				net := NewNetwork(11)
				prev := 5
				for _, h := range shape.hidden {
					net.Add(net.NewDense(prev, h), NewActivation(ActTanh))
					prev = h
				}
				net.Add(net.NewDense(prev, 1))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := net.Fit(train, val, TrainConfig{
						Epochs: 1, BatchSize: 32, LR: 1e-3,
						Optimizer: opt, Momentum: 0.9, Seed: int64(i),
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkConvIm2col measures one conv training step (forward +
// backward) through the shared im2col convolution: a Conv1D over a
// 32-sample, 4-channel, 128-long batch; the ParticleFilter example's
// Conv2D (1->4 channels, 4x4 kernel, stride 2) over 32 32x32 frames; and
// the largest layers of the full-scale MiniWeather family (Table IV) at
// its training batch of 64 on the 64x32 grid: conv1 (4->8 channels, 8x8
// kernel) and conv2 (8->8 channels, 6x6 kernel). allocs/op is per
// training step.
func BenchmarkConvIm2col(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	net := NewNetwork(13)
	for _, tc := range []struct {
		name  string
		layer Layer
		x, g  *tensor.Tensor
	}{
		{"conv1d", net.NewConv1D(4, 16, 5, 1), randTensor(rng, 32, 4, 128), randTensor(rng, 32, 16, 124)},
		{"conv2d-particlefilter", net.NewConv2D(1, 4, 4, 4, 2), randTensor(rng, 32, 1, 32, 32), randTensor(rng, 32, 4, 15, 15)},
		{"conv2d-miniweather-k8", net.NewConv2D(4, 8, 8, 8, 1), randTensor(rng, 64, 4, 32, 64), randTensor(rng, 64, 8, 25, 57)},
		{"conv2d-miniweather-k6", net.NewConv2D(8, 8, 6, 6, 1), randTensor(rng, 64, 8, 25, 57), randTensor(rng, 64, 8, 20, 52)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := tc.layer.Forward(tc.x, true); err != nil {
					b.Fatal(err)
				}
				if _, err := tc.layer.Backward(tc.g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOptimizerStep measures one optimizer step over a realistic
// parameter set (a 512x512 MLP's weights): per-param state slots and the
// parallel element loop vs the old map-keyed serial update.
func BenchmarkOptimizerStep(b *testing.B) {
	net := NewNetwork(17)
	net.Add(
		net.NewDense(512, 512), NewActivation(ActTanh),
		net.NewDense(512, 512), NewActivation(ActTanh),
		net.NewDense(512, 1),
	)
	params := net.Params()
	rng := rand.New(rand.NewSource(19))
	for _, p := range params {
		g := p.Grad.Data()
		for i := range g {
			g[i] = rng.NormFloat64()
		}
	}
	for _, tc := range []struct {
		name string
		opt  Optimizer
	}{
		{"adam", NewAdam(1e-3, 1e-4)},
		{"sgd-momentum", NewSGD(1e-3, 0.9, 1e-4)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			if err := tc.opt.Step(params); err != nil { // bind state
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tc.opt.Step(params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
