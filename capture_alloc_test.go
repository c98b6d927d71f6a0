package hpacml_test

import (
	"path/filepath"
	"runtime"
	"testing"

	hpacml "repro"
)

// TestWarmCollectAllocatesNothing pins the pooled capture path: once a
// collection-mode region has filled its record pool, an Execute against
// a LocalSink — gathers, enqueue, and the writer goroutine's append and
// release — allocates nothing.
func TestWarmCollectAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc assertions run in the non-race job")
	}
	const n, m, queue = 34, 34, 4
	grid := make([]float64, n*m)
	gridNew := make([]float64, n*m)
	for i := range grid {
		grid[i] = float64(i % 17)
	}
	db := filepath.Join(t.TempDir(), "warm.gh5")
	sink, err := hpacml.NewLocalSink(db, hpacml.CaptureConfig{QueueCap: queue, FlushEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	r, err := hpacml.NewRegion("stencil",
		hpacml.Directives(`
#pragma approx tensor functor(ifn: [i, j, 0:5] = (([i-1, j], [i+1, j], [i, j-1:j+2])))
#pragma approx tensor functor(ofn: [i, j, 0:1] = ([i, j]))
#pragma approx tensor map(to: ifn(t[1:N-1, 1:M-1]))
#pragma approx tensor map(from: ofn(tnew[1:N-1, 1:M-1]))
#pragma approx ml(collect) in(t) out(tnew)
`),
		hpacml.BindInt("N", n), hpacml.BindInt("M", m),
		hpacml.BindArray("t", grid, n, m),
		hpacml.BindArray("tnew", gridNew, n, m),
		hpacml.WithSink(sink),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	accurate := func() error {
		for i := 1; i < n-1; i++ {
			for j := 1; j < m-1; j++ {
				gridNew[i*m+j] = grid[(i-1)*m+j] + grid[i*m+j+1]
			}
		}
		return nil
	}
	// AllocsPerRun runs on one P; warming on one P too keeps the
	// per-P record pool from being rebuilt between the two, and fills
	// it with as many slots as the queue can hold in flight.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for range 8 * queue {
		if err := r.Execute(accurate); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if err := r.Execute(accurate); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm collection Execute allocates %.2f objects/call, want 0", allocs)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if st, _ := r.CaptureStats(); st.Failed() || st.Captured != 8*queue+501 {
		t.Fatalf("capture stats after the warm runs: %+v", st)
	}
}
