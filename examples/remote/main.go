// Remote backend: the annotation stays fixed while the runtime decides
// where the surrogate executes. A Region whose model() clause carries
// an http(s):// URI runs its inference against a hpacml-serve instance
// through the runtime's remote engine — same directives, same bridge,
// different backend. The URI is also the fallback policy: the region
// runs the accurate code path whenever the engine cannot answer (server
// down, context deadline expired), which is the paper's predicated
// conditional execution extended to distributed deployments.
//
// Self-contained demo (trains a toy model and serves it in-process):
//
//	go run ./examples/remote
//
// Or point it at a running hpacml-serve (the CI smoke job's
// remote-backend leg does exactly this):
//
//	go run ./examples/remote -target http://127.0.0.1:8080 -model binomial
//
// The program exits non-zero unless remote execution round-trips AND
// both fallback paths (dead server, expired deadline) run the accurate
// code, so it doubles as an end-to-end acceptance check.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	hpacml "repro"

	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/serveclient"
	"repro/internal/tensor"
)

// trainToy fits a tiny MLP to a smooth 3->1 function and saves it.
func trainToy(path string, seed int64) error {
	const inDim, outDim, samples = 3, 1, 1024
	rng := rand.New(rand.NewSource(seed))
	xs := tensor.New(samples, inDim)
	ys := tensor.New(samples, outDim)
	for i := 0; i < samples; i++ {
		a, b, c := rng.Float64(), rng.Float64(), rng.Float64()
		xs.Data()[i*inDim+0] = a
		xs.Data()[i*inDim+1] = b
		xs.Data()[i*inDim+2] = c
		ys.Data()[i] = math.Sin(a+b) + 0.5*c
	}
	ds, err := nn.NewDataset(xs, ys)
	if err != nil {
		return err
	}
	net := nn.NewNetwork(seed)
	net.Add(net.NewDense(inDim, 16), nn.NewActivation(nn.ActTanh), net.NewDense(16, outDim))
	if _, err := net.Fit(ds, nil, nn.TrainConfig{Epochs: 30, BatchSize: 64, LR: 0.01, Seed: seed}); err != nil {
		return err
	}
	return net.Save(path)
}

// vectorRegion builds the generic flat [1, in] -> [1, out] region used
// throughout: x is gathered as the model input, the answer scattered
// into y. modelRef is a path or a model URI — the one line that picks
// the backend.
func vectorRegion(name, modelRef string, x, y []float64) (*hpacml.Region, error) {
	return hpacml.NewRegion(name,
		hpacml.Directives(fmt.Sprintf(`
tensor functor(vin: [i, 0:FIN] = ([0:FIN]))
tensor functor(vout: [i, 0:FOUT] = ([0:FOUT]))
tensor map(to: vin(x[0:1]))
tensor map(from: vout(y[0:1]))
ml(infer) in(x) out(y) model(%q)
`, modelRef)),
		hpacml.BindInt("FIN", len(x)),
		hpacml.BindInt("FOUT", len(y)),
		hpacml.BindArray("x", x, len(x)),
		hpacml.BindArray("y", y, len(y)),
	)
}

func main() {
	target := flag.String("target", "", "base URL of a running hpacml-serve; empty self-hosts a demo server")
	model := flag.String("model", "", "served model name (default: the server's first)")
	invocations := flag.Int("n", 32, "region invocations to run remotely")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("remote: ")

	if *target == "" {
		fmt.Println("phase 0: no -target; training a toy surrogate and self-hosting it")
		dir, err := os.MkdirTemp("", "hpacml-remote-")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		modelPath := filepath.Join(dir, "toy.gmod")
		if err := trainToy(modelPath, 11); err != nil {
			log.Fatal(err)
		}
		srv, err := serve.NewServer(serve.Config{MaxBatch: 16, Workers: 2},
			serve.ModelSpec{Name: "toy", Path: modelPath})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		ts := httptest.NewServer(serve.NewHandler(srv))
		defer ts.Close()
		*target = ts.URL
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	client := serveclient.New(*target)
	info, err := client.Model(ctx, *model)
	if err != nil {
		log.Fatal(err)
	}
	modelURI := fmt.Sprintf("%s/%s", client.Base(), info.Name)
	fmt.Printf("phase 1: region annotated with model(%q) — remote engine, %d -> %d features\n",
		modelURI, info.InDim, info.OutDim)

	x := make([]float64, info.InDim)
	y := make([]float64, info.OutDim)
	region, err := vectorRegion("remote-demo", modelURI, x, y)
	if err != nil {
		log.Fatal(err)
	}
	defer region.Close()

	// The accurate path just marks that it ran; a real application
	// would run the original computation here.
	accurateRan := 0
	accurate := func() error {
		accurateRan++
		for i := range y {
			y[i] = -1
		}
		return nil
	}

	rng := rand.New(rand.NewSource(3))
	for i := 0; i < *invocations; i++ {
		for j := range x {
			x[j] = rng.Float64()
		}
		if err := region.ExecuteContext(ctx, accurate); err != nil {
			log.Fatalf("invocation %d: %v", i, err)
		}
	}
	st := region.Stats()
	fmt.Printf("  %d invocations: remote=%d fallbacks=%d (last answer %.4f)\n",
		st.Invocations, st.RemoteInference, st.Fallbacks, y[0])
	if st.RemoteInference != *invocations || st.Fallbacks != 0 || accurateRan != 0 {
		log.Fatalf("expected all %d invocations to execute remotely, got remote=%d fallbacks=%d accurate=%d",
			*invocations, st.RemoteInference, st.Fallbacks, accurateRan)
	}

	fmt.Println("phase 2: dead server — the fallback policy runs the accurate path")
	deadRegion, err := vectorRegion("remote-dead", "http://127.0.0.1:1/nowhere", x, y)
	if err != nil {
		log.Fatal(err)
	}
	defer deadRegion.Close()
	if err := deadRegion.ExecuteContext(ctx, accurate); err != nil {
		log.Fatalf("fallback should swallow the dead-server error, got: %v", err)
	}
	dst := deadRegion.Stats()
	fmt.Printf("  fallbacks=%d accurate_runs=%d\n", dst.Fallbacks, dst.AccurateRuns)
	if dst.Fallbacks != 1 || accurateRan != 1 {
		log.Fatalf("expected exactly one fallback through the accurate path, got fallbacks=%d accurate=%d",
			dst.Fallbacks, accurateRan)
	}

	fmt.Println("phase 3: expired deadline — cancellation reaches the wire, accurate path runs")
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	if err := region.ExecuteContext(expired, accurate); err != nil {
		log.Fatalf("fallback should swallow the deadline error, got: %v", err)
	}
	st = region.Stats()
	fmt.Printf("  fallbacks=%d accurate_runs=%d\n", st.Fallbacks, st.AccurateRuns)
	if st.Fallbacks != 1 || accurateRan != 2 {
		log.Fatalf("expected a deadline fallback, got fallbacks=%d accurate=%d", st.Fallbacks, accurateRan)
	}
	fmt.Println("remote backend round-trip and both fallback paths verified")
}
