package bo

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"testing"
)

// The golden tests pin whole searches bit for bit at fixed seeds: every
// trial's point, objective values and failure flag, the trial count (so
// where patience stopped) and which trial is Best. Workers only changes
// how the warmup is evaluated, never what is evaluated, so one pin holds
// for every worker count.

var inf = math.Inf(1)

// trialPin is one trial's timing-free outcome.
type trialPin struct {
	u      []float64
	value  float64   // Minimize
	objs   []float64 // MinimizeMulti
	failed bool
}

func checkTrials(t *testing.T, res *Result, want []trialPin, wantBest int) {
	t.Helper()
	if len(res.Trials) != len(want) {
		t.Fatalf("%d trials, want %d", len(res.Trials), len(want))
	}
	for i, tr := range res.Trials {
		w := want[i]
		if !equalBits(tr.U, w.u) || tr.Value != w.value || !equalBits(tr.Objs, w.objs) || tr.Failed != w.failed {
			t.Errorf("trial %d: u=%v value=%v objs=%v failed=%v, want u=%v value=%v objs=%v failed=%v",
				i, tr.U, tr.Value, tr.Objs, tr.Failed, w.u, w.value, w.objs, w.failed)
		}
	}
	if res.Best != res.Trials[wantBest] {
		t.Errorf("Best is not trial %d", wantBest)
	}
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func goldenSpace() *Space {
	return &Space{Params: []Param{
		FloatParam{Key: "x", Min: -2, Max: 2},
		FloatParam{Key: "y", Min: -2, Max: 2},
	}}
}

// TestMinimizeGolden: a search with a failure region that stops on
// patience before its iteration budget.
func TestMinimizeGolden(t *testing.T) {
	obj := func(a map[string]Value) (float64, error) {
		x, y := a["x"].Float, a["y"].Float
		if x < -1 {
			return 0, fmt.Errorf("synthetic failure region")
		}
		return (x-0.4)*(x-0.4) + 2*(y+0.6)*(y+0.6) + 0.3*math.Sin(5*x), nil
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			res, err := Minimize(goldenSpace(), obj, Config{
				Iterations: 40, InitRandom: 8, Patience: 4, Seed: 21, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			checkTrials(t, res, minimizeGolden, minimizeGoldenBest)
		})
	}
}

// TestMinimizeMultiGolden: a ParEGO search with a failure region and
// the default warmup size.
func TestMinimizeMultiGolden(t *testing.T) {
	obj := func(a map[string]Value) ([]float64, error) {
		x, y := a["x"].Float, a["y"].Float
		if y > 1.5 {
			return nil, fmt.Errorf("synthetic failure region")
		}
		return []float64{(x + 1) * (x + 1), (x-1)*(x-1) + y*y}, nil
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			res, err := MinimizeMulti(goldenSpace(), obj, 2, Config{
				Iterations: 16, Patience: 6, Seed: 8, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			checkTrials(t, res, multiGolden, multiGoldenBest)
		})
	}
}

// nestedPin is a NestedTrial's timing-free outcome.
type nestedPin struct {
	arch, hyper string
	lat, err    float64
	runs        int
}

func pinNested(nt *NestedTrial) nestedPin {
	return nestedPin{
		arch: renderAssign(nt.Arch), hyper: renderAssign(nt.BestHyper),
		lat: nt.LatencySec, err: nt.ValError, runs: nt.InnerRuns,
	}
}

func renderAssign(m map[string]Value) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf("%s=%v ", k, m[k].AsFloat())
	}
	return s
}

// TestNestedSearchGolden: a deterministic nested search in which some
// inner trials fail and one architecture fails outright. The Pareto
// front is compared as a set.
func TestNestedSearchGolden(t *testing.T) {
	arch := &Space{Params: []Param{
		ChoiceParam{Key: "hidden", Choices: []int{8, 16, 32, 64}},
		IntParam{Key: "layers", Min: 1, Max: 4},
	}}
	hyper := &Space{Params: []Param{FloatParam{Key: "lr", Min: 1e-4, Max: 1e-1, Log: true}}}
	eval := func(a, h map[string]Value) (float64, float64, error) {
		hid, layers := float64(a["hidden"].Int), a["layers"].Int
		lr := h["lr"].Float
		if hid*float64(layers) == 32 {
			return 0, 0, fmt.Errorf("architecture too small")
		}
		if lr > 0.05 {
			return 0, 0, fmt.Errorf("diverged")
		}
		lat := hid * float64(layers) * 1e-6
		return lat, math.Abs(math.Log10(lr)+2.5) + 4/(hid*float64(layers)), nil
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			res, err := NestedSearch(arch, hyper, eval, NestedConfig{
				OuterIters: 12, InnerIters: 5, OuterPatience: 3, Seed: 13, InnerWorkers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.ModelsEvaluated != nestedGoldenModels || len(res.Trials) != nestedGoldenTrials {
				t.Errorf("%d models, %d trials, want %d, %d",
					res.ModelsEvaluated, len(res.Trials), nestedGoldenModels, nestedGoldenTrials)
			}
			if got := pinNested(res.Best); got != nestedGoldenBest {
				t.Errorf("best %+v, want %+v", got, nestedGoldenBest)
			}
			got := map[nestedPin]int{}
			for _, nt := range res.Pareto {
				got[pinNested(nt)]++
			}
			want := map[nestedPin]int{}
			for _, p := range nestedGoldenPareto {
				want[p]++
			}
			if !maps.Equal(got, want) {
				t.Errorf("Pareto set %v, want %v", got, want)
			}
		})
	}
}

// The pins below were recorded from the searches above.

var minimizeGolden = []trialPin{
	{u: []float64{0.728185195825944, 0.8375676569149538}, value: 7.573324135690503},
	{u: []float64{0.9330108553419066, 0.21896582362805264}, value: 2.5314442903588468},
	{u: []float64{0.7704460373605728, 0.4755644783763324}, value: 0.7392340858010052},
	{u: []float64{0.5666363846272018, 0.8004781127828515}, value: 6.803125632471292},
	{u: []float64{0.07385602265299811, 0.31147145390557124}, value: inf, failed: true},
	{u: []float64{0.8184934870657129, 0.41960653186288466}, value: 0.9448454534415973},
	{u: []float64{0.985562464721057, 0.8860682321890686}, value: 11.489576674539922},
	{u: []float64{0.28851841600685935, 0.7194152287316051}, value: 6.185011480268046},
	{u: []float64{0.6141719393370142, 0.31624719287907066}, value: 0.26666060117616897},
	{u: []float64{0.1966929211937516, 0.011248792131505777}, value: inf, failed: true},
	{u: []float64{0.29534802555538836, 0.0023571219270146727}, value: 5.596660345948815},
	{u: []float64{0.6439103700508537, 0.36959908361668686}, value: 0.12124706410617384},
	{u: []float64{0.6944478691032464, 0.35521585930642535}, value: -0.060315493286531935},
	{u: []float64{0.6971745027133491, 0.009817595582698445}, value: 3.6386533092653077},
	{u: []float64{0.706645568903378, 0.33701806117924843}, value: -0.06365922525549023},
	{u: []float64{0.0008617522431090559, 0.27637150834441665}, value: inf, failed: true},
	{u: []float64{0.004932315204280396, 0.3601800032939445}, value: inf, failed: true},
	{u: []float64{0.0647911735859816, 0.35215118259927897}, value: inf, failed: true},
	{u: []float64{0.04520782135111324, 0.3913251838748395}, value: inf, failed: true},
}

const minimizeGoldenBest = 14

var multiGolden = []trialPin{
	{u: []float64{0.878379852306961, 0.0911574234852467}, objs: []float64{6.31777982056509, 2.9381382215932645}},
	{u: []float64{0.2720102489212539, 0.3924980489438248}, objs: []float64{0.007751216921208947, 3.840493945875295}},
	{u: []float64{0.1910752215398737, 0.5548824988292741}, objs: []float64{0.0555540722651995, 5.046543946471146}},
	{u: []float64{0.4183133772355457, 0.6838476470240035}, objs: []float64{0.4532702873029617, 2.301055568594432}},
	{u: []float64{0.4404035771188783, 0.697460307664183}, objs: []float64{0.5800563548746341, 2.157448290617922}},
	{u: []float64{0.4690563382759985, 0.5718680601401588}, objs: []float64{0.7677708694222191, 1.3455097460991945}},
	{u: []float64{0.1608057252142922, 0.9982591507186654}, objs: []float64{inf, inf}, failed: true},
	{u: []float64{0.6695667899222422, 0.9858804265619384}, objs: []float64{inf, inf}, failed: true},
	{u: []float64{0.5743618486899563, 0.5638756356253256}, objs: []float64{1.6833697421690579, 0.5588617123543866}},
	{u: []float64{0.016419236757335757, 0.028921194232901317}, objs: []float64{0.8729595673124091, 12.160895639082334}},
	{u: []float64{0.5165713495370406, 0.9130325390059247}, objs: []float64{inf, inf}, failed: true},
	{u: []float64{0.03986991341439449, 0.9952987637049802}, objs: []float64{inf, inf}, failed: true},
	{u: []float64{0.08948523140854714, 0.9975324503961156}, objs: []float64{inf, inf}, failed: true},
	{u: []float64{0.9159273983124444, 0.9888893885108939}, objs: []float64{inf, inf}, failed: true},
	{u: []float64{0.5977686048575739, 0.9335787055011814}, objs: []float64{inf, inf}, failed: true},
}

const multiGoldenBest = 5

const nestedGoldenModels, nestedGoldenTrials = 45, 6

var nestedGoldenBest = nestedPin{arch: "hidden=64 layers=1 ", hyper: "lr=0.003065024308384925 ", lat: 6.4e-05, err: 0.07606607678811939, runs: 5}

var nestedGoldenPareto = []nestedPin{
	{arch: "hidden=8 layers=2 ", hyper: "lr=0.005290238166139213 ", lat: 1.6e-05, err: 0.47347522438144285, runs: 5},
	{arch: "hidden=64 layers=4 ", hyper: "lr=0.002849342054061732 ", lat: 0.000256, err: 0.0608804120190114, runs: 5},
	{arch: "hidden=64 layers=1 ", hyper: "lr=0.003065024308384925 ", lat: 6.4e-05, err: 0.07606607678811939, runs: 5},
	{arch: "hidden=8 layers=1 ", hyper: "lr=0.0027382620688753724 ", lat: 8e-06, err: 0.5625249895037561, runs: 5},
}
