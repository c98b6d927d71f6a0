// Batched inference: pricing an option portfolio through ExecuteBatch.
//
// A binomial-options region (three varying parameters in, one price out)
// is first trained from collected data, then deployed two ways over the
// same stream of portfolio chunks: once with a sequential Execute call
// per chunk, and once with a single ExecuteBatch call that gathers every
// chunk into one staging tensor and runs the surrogate once. The program
// verifies the two paths produce bit-identical prices and reports the
// per-phase timing split from the region's Stats.
//
// Run with:
//
//	go run ./examples/batched
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	hpacml "repro"

	"repro/internal/benchmarks/binomial"
	"repro/internal/h5"
	"repro/internal/nn"
)

const (
	chunk   = 1   // options per region invocation (fine-grained regime)
	nChunks = 128 // invocations per deployment sweep
	steps   = 64  // lattice depth of the accurate path
)

func main() {
	dir, err := os.MkdirTemp("", "hpacml-batched-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	dbPath := filepath.Join(dir, "options.gh5")
	modelPath := filepath.Join(dir, "options.gmod")

	s := make([]float64, chunk)
	x := make([]float64, chunk)
	t := make([]float64, chunk)
	prices := make([]float64, chunk)
	// One lattice scratch, reused by every option the accurate path prices.
	scratch := make([]float64, binomial.ScratchLen(steps))

	useModel := false
	region, err := hpacml.NewRegion("options",
		hpacml.Directives(fmt.Sprintf(`
tensor functor(opt_in: [i, 0:3] = ([i]))
tensor functor(price_out: [i, 0:1] = ([i]))
tensor map(to: opt_in(S[0:NOPT], X[0:NOPT], T[0:NOPT]))
ml(predicated:useModel) in(S, X, T) out(price_out(prices[0:NOPT])) model(%q) db(%q)
`, modelPath, dbPath)),
		hpacml.BindInt("NOPT", chunk),
		hpacml.BindArray("S", s, chunk),
		hpacml.BindArray("X", x, chunk),
		hpacml.BindArray("T", t, chunk),
		hpacml.BindArray("prices", prices, chunk),
		hpacml.BindPredicate("useModel", func() bool { return useModel }),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer region.Close()

	// stage loads chunk i's option parameters into the bound arrays.
	stage := func(i int) error {
		for j := 0; j < chunk; j++ {
			s[j] = 5 + float64((i*31+j*7)%25)
			x[j] = 1 + float64((i*13+j*3)%99)
			t[j] = 0.25 + float64((i+j)%39)*0.25
		}
		return nil
	}
	accurate := func() error {
		for j := 0; j < chunk; j++ {
			prices[j] = binomial.PriceAmericanCall(s[j], x[j], t[j], 0.02, 0.30, steps, scratch)
		}
		return nil
	}

	// --- Phase 1: collect training data from the accurate lattice.
	fmt.Println("phase 1: collecting", nChunks, "chunks from the accurate path")
	for i := 0; i < nChunks; i++ {
		if err := stage(i); err != nil {
			log.Fatal(err)
		}
		if err := region.Execute(accurate); err != nil {
			log.Fatal(err)
		}
	}
	if err := region.Flush(); err != nil {
		log.Fatal(err)
	}

	// --- Phase 2: offline training.
	f, err := h5.Open(dbPath)
	if err != nil {
		log.Fatal(err)
	}
	xs, err := f.Read("options", "inputs")
	if err != nil {
		log.Fatal(err)
	}
	ys, err := f.Read("options", "outputs")
	if err != nil {
		log.Fatal(err)
	}
	ds, err := nn.NewDataset(xs, ys)
	if err != nil {
		log.Fatal(err)
	}
	net := nn.NewNetwork(13)
	net.Add(net.NewDense(3, 64), nn.NewActivation(nn.ActReLU),
		net.NewDense(64, 64), nn.NewActivation(nn.ActReLU),
		net.NewDense(64, 1))
	hist, err := net.Fit(ds, nil, nn.TrainConfig{Epochs: 30, BatchSize: 128, LR: 3e-3, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 2: trained %s, best validation loss %.3g\n", net.Summary(), hist.BestVal)
	if err := net.Save(modelPath); err != nil {
		log.Fatal(err)
	}

	// --- Phase 3: deploy sequentially, then batched.
	useModel = true
	region.ResetStats()

	// Each path runs twice: the first sweep warms its staging caches, the
	// second is the steady state that a long-running solver would see.
	sequential := make([][]float64, nChunks)
	var seqTime time.Duration
	for pass := 0; pass < 2; pass++ {
		t0 := time.Now()
		for i := 0; i < nChunks; i++ {
			if err := stage(i); err != nil {
				log.Fatal(err)
			}
			if err := region.Execute(nil); err != nil {
				log.Fatal(err)
			}
			sequential[i] = append(sequential[i][:0], prices...)
		}
		seqTime = time.Since(t0)
	}

	batched := make([][]float64, nChunks)
	var batchTime time.Duration
	for pass := 0; pass < 2; pass++ {
		t0 := time.Now()
		err = region.ExecuteBatch(nChunks, stage, func(i int) error {
			batched[i] = append(batched[i][:0], prices...)
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		batchTime = time.Since(t0)
	}

	for i := range sequential {
		for j := range sequential[i] {
			if sequential[i][j] != batched[i][j] {
				log.Fatalf("batched price differs at chunk %d option %d", i, j)
			}
		}
	}
	st := region.Stats()
	fmt.Printf("phase 3: %d chunks sequential %v, batched %v (bit-identical prices)\n",
		nChunks, seqTime, batchTime)
	fmt.Printf("  stats: %d invocations, %d batched in %d batch\n",
		st.Invocations, st.BatchedInvocations, st.Batches)
	fmt.Printf("  phase split: to-tensor %v, inference %v+%v batched, from-tensor %v (bridge overhead %.1f%%)\n",
		st.ToTensor, st.Inference, st.BatchInference, st.FromTensor, st.BridgeOverhead()*100)
}
