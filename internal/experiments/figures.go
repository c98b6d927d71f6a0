package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	hpacml "repro"

	"repro/internal/benchmarks/common"
	"repro/internal/bo"
)

// ArchSweep produces n architecture assignments spanning a harness's
// search space: a diagonal walk from small to large with seeded jitter,
// giving the model-size spread the Figure 7/8 scatters need.
func ArchSweep(h *Harness, n int, seed int64) []map[string]bo.Value {
	space := h.ArchSpace()
	rng := rand.New(rand.NewSource(seed))
	out := make([]map[string]bo.Value, 0, n)
	for i := 0; i < n; i++ {
		t := 0.0
		if n > 1 {
			t = float64(i) / float64(n-1)
		}
		u := make([]float64, space.Dim())
		for d := range u {
			u[d] = t + (rng.Float64()-0.5)*0.25
			if u[d] < 0 {
				u[d] = 0
			}
			if u[d] > 0.999 {
				u[d] = 0.999
			}
		}
		assign, err := space.Decode(u)
		if err != nil {
			continue
		}
		out = append(out, assign)
	}
	return out
}

// Campaign collects once, then trains (under nn.Recipe) and evaluates
// every architecture in archs, returning the successful results (failed
// architectures are skipped, as in the BO campaign).
func Campaign(h *Harness, dir string, opt Options, archs []map[string]bo.Value) ([]EvalResult, error) {
	name := h.Info().Name
	dbPath := filepath.Join(dir, name+".gh5")
	if _, err := h.Collect(dbPath, opt); err != nil {
		return nil, fmt.Errorf("campaign %s: collect: %w", name, err)
	}
	var out []EvalResult
	for i, arch := range archs {
		modelPath := filepath.Join(dir, fmt.Sprintf("%s-%d.gmod", name, i))
		if _, err := h.Train(dbPath, modelPath, arch, nil, opt); err != nil {
			continue // invalid geometry or failed training: skipped trial
		}
		res, err := h.Evaluate(modelPath, opt)
		if err != nil {
			continue
		}
		out = append(out, res)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("campaign %s: every architecture failed", name)
	}
	return out, nil
}

// Figure5Row is one bar pair of Figure 5.
type Figure5Row struct {
	Benchmark string
	Speedup   float64
	Error     float64
}

// Figure5 deploys the lowest-error swept model per benchmark and reports
// end-to-end speedup and QoI error (paper Figure 5).
func Figure5(dir string, scale Scale, opt Options, sweep int) ([]Figure5Row, []EvalResult, error) {
	var rows []Figure5Row
	var best []EvalResult
	for _, h := range Registry(scale) {
		results, err := Campaign(h, dir, opt, ArchSweep(h, sweep, opt.Seed))
		if err != nil {
			return nil, nil, err
		}
		b := results[0]
		for _, r := range results[1:] {
			if r.Error < b.Error {
				b = r
			}
		}
		rows = append(rows, Figure5Row{Benchmark: h.Info().Name, Speedup: b.Speedup, Error: b.Error})
		best = append(best, b)
	}
	return rows, best, nil
}

// WriteFigure5 renders the Figure 5 series.
func WriteFigure5(w io.Writer, rows []Figure5Row) {
	fmt.Fprintln(w, "Figure 5: End-to-end application speedup and error of HPAC-ML enhanced applications.")
	tw := newTextTable("Benchmark", "Speedup", "Error")
	var speedups []float64
	for _, r := range rows {
		tw.row(r.Benchmark, fmt.Sprintf("%.2fx", r.Speedup), fmt.Sprintf("%.4g", r.Error))
		speedups = append(speedups, r.Speedup)
	}
	tw.flush(w)
	if gm, err := common.GeoMean(speedups); err == nil {
		fmt.Fprintf(w, "  geometric-mean speedup: %.2fx\n", gm)
	}
}

// Figure6Row is one stacked bar of Figure 6: the proportion of HPAC-ML
// runtime spent in each phase.
type Figure6Row struct {
	Benchmark  string
	ToTensor   float64
	Inference  float64
	FromTensor float64
}

// Figure6 derives phase proportions from evaluation results.
func Figure6(results []EvalResult) []Figure6Row {
	var out []Figure6Row
	for _, r := range results {
		total := r.ToTensorSec + r.InferenceSec + r.FromTensorSec
		if total <= 0 {
			continue
		}
		out = append(out, Figure6Row{
			Benchmark:  r.Benchmark,
			ToTensor:   r.ToTensorSec / total,
			Inference:  r.InferenceSec / total,
			FromTensor: r.FromTensorSec / total,
		})
	}
	return out
}

// WriteFigure6 renders the Figure 6 proportions.
func WriteFigure6(w io.Writer, rows []Figure6Row) {
	fmt.Fprintln(w, "Figure 6: Proportion of time for each primary HPAC-ML inference-mode operation.")
	tw := newTextTable("Benchmark", "To Tensor", "Inference Engine", "From Tensor", "Bridge Overhead")
	for _, r := range rows {
		overhead := (r.ToTensor + r.FromTensor) / r.Inference
		tw.row(r.Benchmark,
			fmt.Sprintf("%.4f", r.ToTensor),
			fmt.Sprintf("%.4f", r.Inference),
			fmt.Sprintf("%.4f", r.FromTensor),
			fmt.Sprintf("%.2f%%", overhead*100))
	}
	tw.flush(w)
}

// ScatterPoint is one model of a Figure 7/8 scatter.
type ScatterPoint struct {
	Error   float64
	Speedup float64
	RelSize float64 // parameters relative to the smallest model
}

// Scatter converts evaluation results into scatter points with relative
// model sizes.
func Scatter(results []EvalResult) []ScatterPoint {
	minParams := 0
	for i, r := range results {
		if i == 0 || r.Params < minParams {
			minParams = r.Params
		}
	}
	if minParams < 1 {
		minParams = 1
	}
	pts := make([]ScatterPoint, len(results))
	for i, r := range results {
		pts[i] = ScatterPoint{
			Error:   r.Error,
			Speedup: r.Speedup,
			RelSize: float64(r.Params) / float64(minParams),
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Error < pts[j].Error })
	return pts
}

// Figure7 sweeps ParticleFilter CNNs: the scatter of RMSE vs speedup with
// the original algorithmic approximation's RMSE as the reference line.
func Figure7(dir string, scale Scale, opt Options, sweep int) (points []ScatterPoint, baselineRMSE float64, err error) {
	h := NewParticleFilter(scale)
	results, err := Campaign(h, dir, opt, ArchSweep(h, sweep, opt.Seed))
	if err != nil {
		return nil, 0, err
	}
	for _, r := range results {
		if r.BaselineError > 0 {
			baselineRMSE = r.BaselineError
		}
	}
	return Scatter(results), baselineRMSE, nil
}

// WriteFigure7 renders the Figure 7 scatter.
func WriteFigure7(w io.Writer, pts []ScatterPoint, baseline float64) {
	fmt.Fprintln(w, "Figure 7: ParticleFilter speedup vs RMSE (original filter RMSE marked).")
	fmt.Fprintf(w, "  original algorithmic approximation RMSE: %.4f\n", baseline)
	writeScatter(w, pts)
}

// Figure8 sweeps one tabular benchmark ("minibude", "binomial", or
// "bonds") for the speedup-vs-accuracy scatters of Figure 8.
func Figure8(dir string, scale Scale, opt Options, benchmark string, sweep int) ([]ScatterPoint, error) {
	if !slices.Contains([]string{"minibude", "binomial", "bonds"}, benchmark) {
		return nil, fmt.Errorf("figure 8 has no panel for %q", benchmark)
	}
	h, err := Lookup(benchmark, scale)
	if err != nil {
		return nil, err
	}
	results, err := Campaign(h, dir, opt, ArchSweep(h, sweep, opt.Seed))
	if err != nil {
		return nil, err
	}
	return Scatter(results), nil
}

// WriteFigure8 renders one Figure 8 panel.
func WriteFigure8(w io.Writer, benchmark string, pts []ScatterPoint) {
	fmt.Fprintf(w, "Figure 8 (%s): Speedup vs accuracy; color = relative model size.\n", benchmark)
	writeScatter(w, pts)
}

func writeScatter(w io.Writer, pts []ScatterPoint) {
	tw := newTextTable("Error", "Speedup", "Relative Model Size")
	for _, p := range pts {
		tw.row(fmt.Sprintf("%.4g", p.Error), fmt.Sprintf("%.2fx", p.Speedup), fmt.Sprintf("%.1f", p.RelSize))
	}
	tw.flush(w)
}

// Figure9Config is one Original:Surrogate interleaving ratio.
type Figure9Config struct {
	Original  int
	Surrogate int
}

// String renders the ratio as in the paper's legend.
func (c Figure9Config) String() string { return fmt.Sprintf("%d:%d", c.Original, c.Surrogate) }

// Figure9Result aggregates the MiniWeather interleaving study: panels
// (d) RMSE vs speedup per config, (e) per-timestep RMSE series, and (f)
// the relative-error CDFs after 1 and 10 surrogate steps.
type Figure9Result struct {
	Configs []Figure9Config
	// FinalRMSE and Speedup are panel (d): one entry per config.
	FinalRMSE []float64
	Speedup   []float64
	// SeriesRMSE is panel (e): per-config, per-timestep RMSE.
	SeriesRMSE [][]float64
	// CDF1 and CDF10 are panel (f): relative-error quantiles after 1 and
	// 10 consecutive surrogate steps.
	CDF1, CDF10 *common.CDF
	RMSEStep1   float64
}

// Figure9 trains one MiniWeather surrogate and measures the interleaving
// configurations of the paper: 0:1 (all surrogate), 1:1, 2:1, 3:3.
func Figure9(dir string, scale Scale, opt Options, spinup, window int) (*Figure9Result, error) {
	h, w := newMiniWeather(scale)
	dbPath := filepath.Join(dir, "miniweather-fig9.gh5")
	if _, err := h.Collect(dbPath, opt); err != nil {
		return nil, err
	}
	modelPath := filepath.Join(dir, "miniweather-fig9.gmod")
	arch := map[string]bo.Value{
		"conv1_kernel":   {Name: "conv1_kernel", Int: 3, IsInt: true},
		"conv1_channels": {Name: "conv1_channels", Int: 6, IsInt: true},
		"conv2_kernel":   {Name: "conv2_kernel", Int: 0, IsInt: true},
	}
	if _, err := h.Train(dbPath, modelPath, arch, nil, opt); err != nil {
		return nil, err
	}

	sim := w.in
	// Spin up with the accurate solver (the paper runs the original
	// solution until timestep 1000 and applies surrogates afterwards).
	sim.InitThermalBubble()
	for s := 0; s < spinup; s++ {
		sim.Step()
	}
	start := sim.Interior(nil)

	// Reference trajectory: accurate continuation.
	refStates := make([][]float64, window+1)
	refStates[0] = append([]float64(nil), start...)
	accurateTime, err := timeIt(1, func() error {
		sim.SetInterior(start)
		for s := 1; s <= window; s++ {
			sim.Step()
			refStates[s] = sim.Interior(nil)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	region, err := h.region(modelPath, "")
	if err != nil {
		return nil, err
	}
	defer region.Close()
	hpacml.ClearModelCache()

	res := &Figure9Result{
		Configs: []Figure9Config{{0, 1}, {1, 1}, {2, 1}, {3, 3}},
	}
	for _, cfg := range res.Configs {
		series := make([]float64, 0, window)
		elapsed, err := timeIt(1, func() error {
			sim.SetInterior(start)
			phase := 0
			for s := 1; s <= window; s++ {
				useSurrogate := false
				if cfg.Original == 0 {
					useSurrogate = true
				} else {
					cycle := cfg.Original + cfg.Surrogate
					useSurrogate = phase%cycle >= cfg.Original
				}
				phase++
				w.gate = useSurrogate
				if err := region.Execute(w.step); err != nil {
					return err
				}
				rmse, err := common.RMSE(sim.Interior(nil), refStates[s])
				if err != nil {
					return err
				}
				series = append(series, rmse)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		res.SeriesRMSE = append(res.SeriesRMSE, series)
		res.FinalRMSE = append(res.FinalRMSE, series[len(series)-1])
		res.Speedup = append(res.Speedup, accurateTime.Seconds()/elapsed.Seconds())
	}

	// Panel (f): relative-error CDFs after 1 and 10 consecutive
	// surrogate steps from the spun-up state. The denominator floor is
	// scale-aware: a few percent of the reference state's RMS, so
	// quiescent near-zero cells do not dominate the distribution.
	floor := 0.05 * rms(refStates[1])
	sim.SetInterior(start)
	w.gate = true
	if err := region.Execute(w.step); err != nil {
		return nil, err
	}
	rel1, err := common.RelativeErrors(sim.Interior(nil), refStates[1], floor)
	if err != nil {
		return nil, err
	}
	res.RMSEStep1, err = common.RMSE(sim.Interior(nil), refStates[1])
	if err != nil {
		return nil, err
	}
	res.CDF1, err = common.NewCDF(rel1)
	if err != nil {
		return nil, err
	}
	steps10 := window
	if steps10 > 10 {
		steps10 = 10
	}
	sim.SetInterior(start)
	for s := 0; s < steps10; s++ {
		if err := region.Execute(w.step); err != nil {
			return nil, err
		}
	}
	rel10, err := common.RelativeErrors(sim.Interior(nil), refStates[steps10], floor)
	if err != nil {
		return nil, err
	}
	res.CDF10, err = common.NewCDF(rel10)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// rms returns the root-mean-square of a series.
func rms(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	if len(v) == 0 {
		return 0
	}
	return mathSqrtPos(s / float64(len(v)))
}

func mathSqrtPos(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}

// WriteFigure9 renders the Figure 9 panels.
func WriteFigure9(w io.Writer, r *Figure9Result) {
	fmt.Fprintln(w, "Figure 9(d): RMSE vs speedup per Original:Surrogate configuration.")
	tw := newTextTable("Original:Surrogate", "Final RMSE", "Speedup")
	for i, cfg := range r.Configs {
		tw.row(cfg.String(), fmt.Sprintf("%.4g", r.FinalRMSE[i]), fmt.Sprintf("%.2fx", r.Speedup[i]))
	}
	tw.flush(w)

	fmt.Fprintln(w, "Figure 9(e): Per-timestep RMSE per configuration.")
	header := []string{"Step"}
	for _, cfg := range r.Configs {
		header = append(header, cfg.String())
	}
	tw = newTextTable(header...)
	for s := 0; s < len(r.SeriesRMSE[0]); s++ {
		row := []string{fmt.Sprintf("%d", s+1)}
		for c := range r.Configs {
			row = append(row, fmt.Sprintf("%.4g", r.SeriesRMSE[c][s]))
		}
		tw.row(row...)
	}
	tw.flush(w)

	fmt.Fprintln(w, "Figure 9(f): CDF of relative error after 1 vs 10 surrogate steps.")
	fmt.Fprintf(w, "  RMSE after first surrogate step: %.4g\n", r.RMSEStep1)
	tw = newTextTable("Percentile", "After 1 step", "After 10 steps")
	for _, p := range []float64{0.5, 0.8, 0.9, 0.99} {
		tw.row(fmt.Sprintf("%.0f%%", p*100),
			fmt.Sprintf("%.4g", r.CDF1.Quantile(p)),
			fmt.Sprintf("%.4g", r.CDF10.Quantile(p)))
	}
	tw.flush(w)
}

// NestedCampaign runs the full paper-style nested BO search for one
// benchmark: outer architecture search, inner hyperparameter tuning,
// objectives (inference latency, validation error). Expensive: used by
// cmd/hpacml-search.
func NestedCampaign(h *Harness, dir string, opt Options, cfg bo.NestedConfig) (*bo.NestedResult, error) {
	name := h.Info().Name
	dbPath := filepath.Join(dir, name+"-search.gh5")
	if _, err := h.Collect(dbPath, opt); err != nil {
		return nil, err
	}
	// The callback must be safe for concurrent calls when
	// cfg.InnerWorkers > 1: the trial counter (and the model path
	// derived from it) is mutex-guarded, and Evaluate is serialized —
	// the harness app is shared mutable state, and latency is a
	// wall-clock measurement. Training, the expensive phase, still runs
	// concurrently; see NestedConfig.InnerWorkers for the measurement
	// noise concurrent training adds.
	var mu, evalMu sync.Mutex
	trial := 0
	return bo.NestedSearch(h.ArchSpace(), HyperSpace(),
		func(arch, hyper map[string]bo.Value) (float64, float64, error) {
			mu.Lock()
			trial++
			modelPath := filepath.Join(dir, fmt.Sprintf("%s-search-%d.gmod", name, trial))
			mu.Unlock()
			valErr, err := h.Train(dbPath, modelPath, arch, hyper, opt)
			if err != nil {
				return 0, 0, err
			}
			evalMu.Lock()
			res, err := h.Evaluate(modelPath, opt)
			evalMu.Unlock()
			if err != nil {
				return 0, 0, err
			}
			return res.InferenceSec, valErr, nil
		}, cfg)
}
