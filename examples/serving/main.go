// Serving: the concurrent-caller deployment mode. A small surrogate is
// trained offline for a synthetic pricing function, then hosted by the
// micro-batching server (internal/serve); 32 concurrent clients each
// submit single invocations over the HTTP JSON API and the coalescer
// turns them into batched Region executions. The printed stats show the
// batch-size histogram (batches > 1 forming from independent callers),
// latency quantiles, and a checksum-based hot reload swapping in
// retrained weights without dropping traffic.
//
// Run with:
//
//	go run ./examples/serving
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/serveclient"
	"repro/internal/tensor"
)

const (
	inDim   = 3
	outDim  = 1
	samples = 2048
)

// truth is the function the surrogate learns: a smooth pseudo-pricing
// surface over three normalized parameters.
func truth(s, x, t float64) float64 {
	return math.Max(s-x, 0) + 0.3*x*math.Exp(-t)*math.Sin(2*s+t)
}

// train fits an MLP to the truth function and saves it as a .gmod.
func train(path string, seed int64, epochs int) error {
	rng := rand.New(rand.NewSource(seed))
	xs := tensor.New(samples, inDim)
	ys := tensor.New(samples, outDim)
	for i := 0; i < samples; i++ {
		s, x, t := rng.Float64(), rng.Float64(), rng.Float64()
		xs.Data()[i*inDim+0] = s
		xs.Data()[i*inDim+1] = x
		xs.Data()[i*inDim+2] = t
		ys.Data()[i] = truth(s, x, t)
	}
	ds, err := nn.NewDataset(xs, ys)
	if err != nil {
		return err
	}
	net := nn.NewNetwork(seed)
	net.Add(net.NewDense(inDim, 24), nn.NewActivation(nn.ActTanh), net.NewDense(24, outDim))
	if _, err := net.Fit(ds, nil, nn.TrainConfig{Epochs: epochs, BatchSize: 64, LR: 0.01, Seed: seed}); err != nil {
		return err
	}
	return net.Save(path)
}

func main() {
	dir, err := os.MkdirTemp("", "hpacml-serving-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	modelPath := filepath.Join(dir, "pricer.gmod")

	fmt.Println("phase 1: training the surrogate offline")
	if err := train(modelPath, 7, 40); err != nil {
		log.Fatal(err)
	}

	fmt.Println("phase 2: serving it behind the micro-batching coalescer")
	srv, err := serve.NewServer(serve.Config{
		MaxBatch: 16,
		MaxDelay: 2 * time.Millisecond,
		Workers:  2,
	}, serve.ModelSpec{Name: "pricer", Path: modelPath})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(serve.NewHandler(srv))
	defer ts.Close()

	// Each client goes through the typed serve client (the same one the
	// runtime's remote engine and remote capture sink use), so nobody
	// hand-rolls request marshalling.
	api := serveclient.New(ts.URL)
	const clients, perClient = 32, 25
	var wg sync.WaitGroup
	var mu sync.Mutex
	var worst float64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			for j := 0; j < perClient; j++ {
				in := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
				out, err := api.Infer(context.Background(), "pricer", in)
				if err != nil {
					log.Fatal(err)
				}
				err2 := math.Abs(out[0] - truth(in[0], in[1], in[2]))
				mu.Lock()
				if err2 > worst {
					worst = err2
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	snap := srv.Snapshot()[0]
	fmt.Printf("  served %d requests from %d concurrent clients in %d batches (mean batch %.1f)\n",
		snap.Completed, clients, snap.Batches, snap.MeanBatch)
	fmt.Printf("  batch-size histogram: %v\n", snap.BatchHist)
	fmt.Printf("  latency p50/p95/p99: %.2f / %.2f / %.2f ms\n",
		snap.LatencyP50Ms, snap.LatencyP95Ms, snap.LatencyP99Ms)
	fmt.Printf("  worst surrogate error vs truth: %.3g\n", worst)

	fmt.Println("phase 3: retraining in place; the checksum poll hot-swaps the weights")
	if err := train(modelPath, 8, 120); err != nil {
		log.Fatal(err)
	}
	if err := srv.CheckReload(); err != nil {
		log.Fatal(err)
	}
	in := []float64{0.4, 0.5, 0.6}
	out, err := srv.Infer("pricer", in)
	if err != nil {
		log.Fatal(err)
	}
	snap = srv.Snapshot()[0]
	fmt.Printf("  generation %d after reload; pricer(%v) = %.4f (truth %.4f)\n",
		snap.Generation, in, out[0], truth(in[0], in[1], in[2]))
}
