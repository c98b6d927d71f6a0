package bo

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestParamDecoding(t *testing.T) {
	f := FloatParam{Key: "lr", Min: 1e-4, Max: 1e-2, Log: true}
	lo := f.Decode(0)
	hi := f.Decode(1)
	if math.Abs(lo.Float-1e-4) > 1e-9 {
		t.Fatalf("log decode at 0 = %g", lo.Float)
	}
	if hi.Float > 1e-2+1e-9 || hi.Float < 0.9e-2 {
		t.Fatalf("log decode at 1 = %g", hi.Float)
	}
	mid := f.Decode(0.5)
	if math.Abs(mid.Float-1e-3) > 1e-4 {
		t.Fatalf("log decode at 0.5 = %g, want ~1e-3", mid.Float)
	}

	lin := FloatParam{Key: "drop", Min: 0, Max: 0.8}
	if v := lin.Decode(0.5).Float; math.Abs(v-0.4) > 1e-9 {
		t.Fatalf("linear decode = %g", v)
	}

	ip := IntParam{Key: "layers", Min: 2, Max: 12}
	if v := ip.Decode(0).Int; v != 2 {
		t.Fatalf("int decode at 0 = %d", v)
	}
	if v := ip.Decode(0.9999).Int; v != 12 {
		t.Fatalf("int decode at 1 = %d", v)
	}

	cp := ChoiceParam{Key: "hidden", Choices: []int{64, 128, 256}}
	if v := cp.Decode(0).Int; v != 64 {
		t.Fatalf("choice decode at 0 = %d", v)
	}
	if v := cp.Decode(0.99).Int; v != 256 {
		t.Fatalf("choice decode at 1 = %d", v)
	}
	// Out-of-range u is clamped, not panicking.
	if v := cp.Decode(1.5).Int; v != 256 {
		t.Fatalf("clamped decode = %d", v)
	}
	if v := cp.Decode(-1).Int; v != 64 {
		t.Fatalf("clamped decode = %d", v)
	}
}

func TestSpaceDecode(t *testing.T) {
	s := &Space{Params: []Param{
		IntParam{Key: "a", Min: 0, Max: 10},
		FloatParam{Key: "b", Min: 0, Max: 1},
	}}
	if s.Dim() != 2 {
		t.Fatal("dim")
	}
	m, err := s.Decode([]float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !m["a"].IsInt || m["b"].IsInt {
		t.Fatal("kind flags wrong")
	}
	if _, err := s.Decode([]float64{0.5}); err == nil {
		t.Fatal("want dimension mismatch error")
	}
}

func TestMinimizeQuadratic(t *testing.T) {
	space := &Space{Params: []Param{
		FloatParam{Key: "x", Min: -2, Max: 2},
		FloatParam{Key: "y", Min: -2, Max: 2},
	}}
	res, err := Minimize(space, func(a map[string]Value) (float64, error) {
		x, y := a["x"].Float, a["y"].Float
		return (x-0.7)*(x-0.7) + (y+0.3)*(y+0.3), nil
	}, Config{Iterations: 40, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Value > 0.05 {
		t.Fatalf("BO failed to localize minimum: best %g at %v", res.Best.Value, res.Best.Assign)
	}
}

func TestMinimizeBeatsWorstRandom(t *testing.T) {
	// Sanity: BO's best is at least as good as its first (random) trial.
	space := &Space{Params: []Param{FloatParam{Key: "x", Min: 0, Max: 1}}}
	res, err := Minimize(space, func(a map[string]Value) (float64, error) {
		x := a["x"].Float
		return math.Abs(x - 0.123), nil
	}, Config{Iterations: 25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Value > res.Trials[0].Value {
		t.Fatal("best trial worse than first random trial")
	}
	if res.Best.Value > 0.05 {
		t.Fatalf("1-D minimize too far off: %g", res.Best.Value)
	}
}

func TestMinimizeHandlesFailures(t *testing.T) {
	space := &Space{Params: []Param{FloatParam{Key: "x", Min: 0, Max: 1}}}
	calls := 0
	res, err := Minimize(space, func(a map[string]Value) (float64, error) {
		calls++
		if calls%2 == 0 {
			return 0, fmt.Errorf("simulated training failure")
		}
		return a["x"].Float, nil
	}, Config{Iterations: 12, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, tr := range res.Trials {
		if tr.Failed {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("expected some failed trials")
	}
	if res.Best == nil || res.Best.Failed {
		t.Fatal("best must be a successful trial")
	}
}

func TestMinimizeAllFail(t *testing.T) {
	space := &Space{Params: []Param{FloatParam{Key: "x", Min: 0, Max: 1}}}
	_, err := Minimize(space, func(map[string]Value) (float64, error) {
		return 0, fmt.Errorf("always fails")
	}, Config{Iterations: 5, Seed: 1})
	if err == nil {
		t.Fatal("want error when every trial fails")
	}
}

func TestMinimizeValidation(t *testing.T) {
	space := &Space{Params: []Param{FloatParam{Key: "x", Min: 0, Max: 1}}}
	if _, err := Minimize(space, nil, Config{Iterations: 0}); err == nil {
		t.Fatal("want error for zero iterations")
	}
	if _, err := Minimize(&Space{}, nil, Config{Iterations: 5}); err == nil {
		t.Fatal("want error for empty space")
	}
}

func TestPatienceStopsEarly(t *testing.T) {
	space := &Space{Params: []Param{FloatParam{Key: "x", Min: 0, Max: 1}}}
	res, err := Minimize(space, func(map[string]Value) (float64, error) {
		return 1, nil // flat objective: nothing ever improves after trial 1
	}, Config{Iterations: 100, Patience: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) >= 100 {
		t.Fatalf("patience did not stop the search: %d trials", len(res.Trials))
	}
}

func TestMinimizeMultiParetoFront(t *testing.T) {
	// Two conflicting objectives: f1 = x, f2 = 1-x. Every point is
	// Pareto-optimal; the front should span the range and the knee sit
	// near the middle.
	space := &Space{Params: []Param{FloatParam{Key: "x", Min: 0, Max: 1}}}
	res, err := MinimizeMulti(space, func(a map[string]Value) ([]float64, error) {
		x := a["x"].Float
		return []float64{x, 1 - x}, nil
	}, 2, Config{Iterations: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pareto) < 5 {
		t.Fatalf("expected a rich Pareto front, got %d", len(res.Pareto))
	}
	for i := 1; i < len(res.Pareto); i++ {
		if res.Pareto[i].Objs[0] < res.Pareto[i-1].Objs[0] {
			t.Fatal("Pareto front not sorted by first objective")
		}
		if res.Pareto[i].Objs[1] > res.Pareto[i-1].Objs[1] {
			t.Fatal("Pareto front member dominated")
		}
	}
}

func TestMinimizeMultiDominanceFiltering(t *testing.T) {
	// f1 = (x-0.5)^2, f2 = (x-0.5)^2: non-conflicting — the front should
	// collapse toward the single optimum.
	space := &Space{Params: []Param{FloatParam{Key: "x", Min: 0, Max: 1}}}
	res, err := MinimizeMulti(space, func(a map[string]Value) ([]float64, error) {
		x := a["x"].Float
		v := (x - 0.5) * (x - 0.5)
		return []float64{v, v}, nil
	}, 2, Config{Iterations: 30, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pareto) != 1 {
		t.Fatalf("aligned objectives must yield a single Pareto point, got %d", len(res.Pareto))
	}
	if res.Best.Objs[0] > 0.01 {
		t.Fatalf("knee point too far from optimum: %v", res.Best.Objs)
	}
}

func TestMinimizeMultiValidation(t *testing.T) {
	space := &Space{Params: []Param{FloatParam{Key: "x", Min: 0, Max: 1}}}
	if _, err := MinimizeMulti(space, nil, 1, Config{Iterations: 5}); err == nil {
		t.Fatal("want error for single objective")
	}
	if _, err := MinimizeMulti(space, func(map[string]Value) ([]float64, error) {
		return nil, fmt.Errorf("fail")
	}, 2, Config{Iterations: 3, Seed: 1}); err == nil {
		t.Fatal("want error when all trials fail")
	}
	if _, err := MinimizeMulti(space, nil, 2, Config{Iterations: 0}); err == nil {
		t.Fatal("want error for zero iterations")
	}
	calls := 0
	_, err := MinimizeMulti(&Space{}, func(map[string]Value) ([]float64, error) {
		calls++
		return []float64{0, 0}, nil
	}, 2, Config{Iterations: 5})
	if err == nil || calls != 0 {
		t.Fatalf("empty space: err = %v after %d objective calls, want an error and none", err, calls)
	}
}

func TestDominates(t *testing.T) {
	if !dominates([]float64{1, 1}, []float64{2, 2}) {
		t.Fatal("strict dominance")
	}
	if !dominates([]float64{1, 2}, []float64{2, 2}) {
		t.Fatal("weak dominance with one strict")
	}
	if dominates([]float64{2, 2}, []float64{2, 2}) {
		t.Fatal("equal points do not dominate")
	}
	if dominates([]float64{1, 3}, []float64{2, 2}) {
		t.Fatal("incomparable points do not dominate")
	}
}

func TestNestedSearchFindsTradeoff(t *testing.T) {
	// Architecture: "size" controls latency (size) and achievable error
	// (1/size); hyperparameter "lr" adds error when away from 0.5 so the
	// inner loop has something to tune.
	archSpace := &Space{Params: []Param{IntParam{Key: "size", Min: 1, Max: 16}}}
	hyperSpace := &Space{Params: []Param{FloatParam{Key: "lr", Min: 0, Max: 1}}}
	evals := 0
	res, err := NestedSearch(archSpace, hyperSpace,
		func(arch, hyper map[string]Value) (float64, float64, error) {
			evals++
			size := float64(arch["size"].Int)
			lr := hyper["lr"].Float
			latency := size
			valErr := 1/size + 5*(lr-0.5)*(lr-0.5)
			return latency, valErr, nil
		},
		NestedConfig{OuterIters: 10, InnerIters: 8, OuterPatience: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.ModelsEvaluated != evals {
		t.Fatalf("accounting mismatch: %d vs %d", res.ModelsEvaluated, evals)
	}
	if len(res.Pareto) == 0 || res.Best == nil {
		t.Fatal("empty nested result")
	}
	// The inner loop must have tuned lr near 0.5 for the best trial.
	if lr := res.Best.BestHyper["lr"].Float; math.Abs(lr-0.5) > 0.25 {
		t.Fatalf("inner loop failed to tune lr: %g", lr)
	}
	// The Pareto front must not contain a dominated pair.
	for _, a := range res.Pareto {
		for _, b := range res.Pareto {
			if a != b && b.LatencySec <= a.LatencySec && b.ValError < a.ValError {
				t.Fatal("dominated point in nested Pareto front")
			}
		}
	}
}

func TestNestedSearchValidation(t *testing.T) {
	s := &Space{Params: []Param{IntParam{Key: "a", Min: 0, Max: 1}}}
	if _, err := NestedSearch(s, s, nil, NestedConfig{}); err == nil {
		t.Fatal("want error for zero iterations")
	}
	eval := func(arch, hyper map[string]Value) (float64, float64, error) { return 1, 1, nil }
	cfg := NestedConfig{OuterIters: 2, InnerIters: 2}
	for _, c := range []struct {
		name        string
		arch, hyper *Space
	}{{"empty architecture space", &Space{}, s}, {"empty hyperparameter space", s, &Space{}}} {
		if _, err := NestedSearch(c.arch, c.hyper, eval, cfg); err == nil || !strings.Contains(err.Error(), "empty search space") {
			t.Fatalf("%s: err = %v, want an empty-space error", c.name, err)
		}
	}
}
