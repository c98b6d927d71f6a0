package bo

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func parTestSpace() *Space {
	return &Space{Params: []Param{
		FloatParam{Key: "x", Min: -2, Max: 2},
		FloatParam{Key: "y", Min: -2, Max: 2},
	}}
}

// TestMinimizeParallelWarmupMatchesSerial: Workers must change neither
// the points evaluated nor the trial order nor the result — the warmup
// points come from the same RNG stream either way.
func TestMinimizeParallelWarmupMatchesSerial(t *testing.T) {
	obj := func(assign map[string]Value) (float64, error) {
		x, y := assign["x"].Float, assign["y"].Float
		if x < -1.8 {
			return 0, fmt.Errorf("synthetic failure region")
		}
		return (x-0.5)*(x-0.5) + (y+0.25)*(y+0.25), nil
	}
	base := Config{Iterations: 18, InitRandom: 10, Patience: 3, Seed: 99}
	serial, err := Minimize(parTestSpace(), obj, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		cfg := base
		cfg.Workers = workers
		par, err := Minimize(parTestSpace(), obj, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(par.Trials) != len(serial.Trials) {
			t.Fatalf("workers=%d: %d trials, serial had %d", workers, len(par.Trials), len(serial.Trials))
		}
		for i, tr := range par.Trials {
			st := serial.Trials[i]
			if tr.Failed != st.Failed || tr.Value != st.Value {
				t.Fatalf("workers=%d trial %d: (%v, %g) vs serial (%v, %g)",
					workers, i, tr.Failed, tr.Value, st.Failed, st.Value)
			}
			for d := range tr.U {
				if tr.U[d] != st.U[d] {
					t.Fatalf("workers=%d trial %d: point differs in dim %d", workers, i, d)
				}
			}
		}
		if par.Best.Value != serial.Best.Value {
			t.Fatalf("workers=%d: best %g, serial %g", workers, par.Best.Value, serial.Best.Value)
		}
	}
}

// TestMinimizeMultiParallelWarmupMatchesSerial mirrors the check for the
// ParEGO outer loop.
func TestMinimizeMultiParallelWarmupMatchesSerial(t *testing.T) {
	obj := func(assign map[string]Value) ([]float64, error) {
		x, y := assign["x"].Float, assign["y"].Float
		return []float64{x * x, (y - 1) * (y - 1)}, nil
	}
	base := Config{Iterations: 14, InitRandom: 8, Seed: 7}
	serial, err := MinimizeMulti(parTestSpace(), obj, 2, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Workers = 4
	par, err := MinimizeMulti(parTestSpace(), obj, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Trials) != len(serial.Trials) || len(par.Pareto) != len(serial.Pareto) {
		t.Fatalf("parallel: %d trials / %d pareto, serial: %d / %d",
			len(par.Trials), len(par.Pareto), len(serial.Trials), len(serial.Pareto))
	}
	for i, tr := range par.Trials {
		st := serial.Trials[i]
		for k := range tr.Objs {
			if tr.Objs[k] != st.Objs[k] {
				t.Fatalf("trial %d objective %d: %g vs %g", i, k, tr.Objs[k], st.Objs[k])
			}
		}
	}
	for k := range par.Best.Objs {
		if par.Best.Objs[k] != serial.Best.Objs[k] {
			t.Fatal("knee point differs between parallel and serial warmup")
		}
	}
}

// TestMinimizeParallelWarmupConcurrency verifies the warmup actually
// fans out: every objective call blocks until a second call is in
// flight, so the search can only finish if evaluations overlap.
func TestMinimizeParallelWarmupConcurrency(t *testing.T) {
	var calls atomic.Int64
	var timedOut atomic.Bool
	rendezvous := make(chan struct{})
	obj := func(assign map[string]Value) (float64, error) {
		if calls.Add(1) == 2 {
			close(rendezvous)
		}
		select {
		case <-rendezvous:
		case <-time.After(10 * time.Second):
			timedOut.Store(true)
			return 0, fmt.Errorf("no concurrent sibling arrived")
		}
		return assign["x"].Float, nil
	}
	if _, err := Minimize(parTestSpace(), obj, Config{
		Iterations: 8, InitRandom: 8, Seed: 3, Workers: 4,
	}); err != nil {
		t.Fatal(err)
	}
	if timedOut.Load() {
		t.Fatal("warmup evaluations never overlapped with Workers=4")
	}
}

// goroutineID returns the current goroutine's number from its stack
// header ("goroutine N [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// TestSerialSearchCallsInTrialOrder: with Workers <= 1 both searches
// call the objective in trial order on the caller's goroutine, warmup
// and guided phase alike; NestedCampaign numbers its model files by
// call order.
func TestSerialSearchCallsInTrialOrder(t *testing.T) {
	caller := goroutineID()
	for _, workers := range []int{0, 1} {
		var calls []float64
		onCall := func(a map[string]Value) error {
			if id := goroutineID(); id != caller {
				return fmt.Errorf("objective ran on goroutine %s, caller is %s", id, caller)
			}
			calls = append(calls, a["x"].Float)
			return nil
		}
		check := func(name string, res *Result, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if len(calls) != len(res.Trials) {
				t.Fatalf("%s workers=%d: %d calls for %d trials", name, workers, len(calls), len(res.Trials))
			}
			for i, tr := range res.Trials {
				if tr.Failed || calls[i] != tr.Assign["x"].Float {
					t.Fatalf("%s workers=%d: call %d was not trial %d", name, workers, i, i)
				}
			}
		}
		cfg := Config{Iterations: 10, InitRandom: 5, Seed: 4, Workers: workers}
		res, err := Minimize(parTestSpace(), func(a map[string]Value) (float64, error) {
			return a["x"].Float * a["y"].Float, onCall(a)
		}, cfg)
		check("Minimize", res, err)
		calls = nil
		res, err = MinimizeMulti(parTestSpace(), func(a map[string]Value) ([]float64, error) {
			return []float64{a["x"].Float, a["y"].Float}, onCall(a)
		}, 2, cfg)
		check("MinimizeMulti", res, err)
	}
}

// TestNestedSearchInnerWorkers runs the nested search with parallel
// inner warmup and checks it matches the serial run.
func TestNestedSearchInnerWorkers(t *testing.T) {
	arch := &Space{Params: []Param{ChoiceParam{Key: "hidden", Choices: []int{8, 16, 32}}}}
	hyper := &Space{Params: []Param{FloatParam{Key: "lr", Min: 1e-4, Max: 1e-1, Log: true}}}
	eval := func(a, h map[string]Value) (float64, float64, error) {
		hid := float64(a["hidden"].Int)
		lr := h["lr"].Float
		return hid * 1e-6, math.Abs(math.Log10(lr)+2) + 1/hid, nil
	}
	base := NestedConfig{OuterIters: 4, InnerIters: 5, Seed: 11}
	serial, err := NestedSearch(arch, hyper, eval, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.InnerWorkers = 3
	par, err := NestedSearch(arch, hyper, eval, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if par.ModelsEvaluated != serial.ModelsEvaluated {
		t.Fatalf("models evaluated %d vs serial %d", par.ModelsEvaluated, serial.ModelsEvaluated)
	}
	if par.Best.ValError != serial.Best.ValError || par.Best.LatencySec != serial.Best.LatencySec {
		t.Fatalf("best (%g, %g) vs serial (%g, %g)",
			par.Best.LatencySec, par.Best.ValError, serial.Best.LatencySec, serial.Best.ValError)
	}
}
