// Benchmarks regenerating the paper's tables and figures (one Benchmark*
// per table/figure, named after it; the harnesses are in
// internal/experiments) plus ablation benches for the runtime's design
// choices (docs/ARCHITECTURE.md).
package hpacml_test

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	hpacml "repro"

	"repro/internal/bo"
	"repro/internal/bridge"
	"repro/internal/directive"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/tensor"
)

var benchNames = []string{"minibude", "binomial", "bonds", "miniweather", "particlefilter"}

func benchOptions() experiments.Options {
	opt := experiments.QuickOptions()
	opt.CollectRuns = 4
	opt.TrainEpochs = 12
	opt.EvalRuns = 1
	return opt
}

func harnessFor(b *testing.B, name string) *experiments.Harness {
	b.Helper()
	h, err := experiments.Lookup(name, experiments.ScaleTest)
	if err != nil {
		b.Fatal(err)
	}
	return h
}

// trainedModel collects data and trains one mid-space surrogate for the
// named benchmark, returning the harness and model path. Setup cost is
// excluded from the measured loop by the callers' b.ResetTimer.
func trainedModel(b *testing.B, name string) (*experiments.Harness, string) {
	b.Helper()
	h := harnessFor(b, name)
	dir := b.TempDir()
	opt := benchOptions()
	dbPath := filepath.Join(dir, name+".gh5")
	if _, err := h.Collect(dbPath, opt); err != nil {
		b.Fatal(err)
	}
	space := h.ArchSpace()
	mid := make([]float64, space.Dim())
	for i := range mid {
		mid[i] = 0.5
	}
	arch, err := space.Decode(mid)
	if err != nil {
		b.Fatal(err)
	}
	hyper := map[string]bo.Value{
		"lr":    {Name: "lr", Float: 3e-3},
		"batch": {Name: "batch", Int: 64, IsInt: true},
	}
	modelPath := filepath.Join(dir, name+".gmod")
	if _, err := h.Train(dbPath, modelPath, arch, hyper, opt); err != nil {
		b.Fatal(err)
	}
	return h, modelPath
}

// BenchmarkTable1Registry measures building the benchmark registry with
// its Table I metadata (including the embedded-source LoC counts).
func BenchmarkTable1Registry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		infos := experiments.Table1(experiments.ScaleTest)
		if len(infos) != 5 {
			b.Fatal("registry incomplete")
		}
	}
}

// BenchmarkTable2Directives measures the full annotation cost: parsing
// each benchmark's directives and the region semantic analysis, via the
// Figure 2 stencil region.
func BenchmarkTable2Directives(b *testing.B) {
	const N, M = 16, 16
	grid := make([]float64, N*M)
	gridNew := make([]float64, N*M)
	src := `
tensor functor(ifn: [i, j, 0:5] = (([i-1, j], [i+1, j], [i, j-1:j+2])))
tensor functor(ofn: [i, j, 0:1] = ([i, j]))
tensor map(to: ifn(t[1:N-1, 1:M-1]))
tensor map(from: ofn(tnew[1:N-1, 1:M-1]))
ml(collect) in(t) out(tnew) db("unused.gh5")
`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := hpacml.NewRegion("bench",
			hpacml.Directives(src),
			hpacml.BindInt("N", N), hpacml.BindInt("M", M),
			hpacml.BindArray("t", grid, N, M),
			hpacml.BindArray("tnew", gridNew, N, M),
		)
		if err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
}

// BenchmarkTable3Collection measures one collection-mode region
// invocation per benchmark against the plain accurate run.
func BenchmarkTable3Collection(b *testing.B) {
	for _, name := range benchNames {
		b.Run(name, func(b *testing.B) {
			h := harnessFor(b, name)
			opt := benchOptions()
			opt.EvalRuns = b.N
			b.ResetTimer()
			cs, err := h.CollectOverhead(b.TempDir(), opt)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(cs.OverheadX, "overhead-x")
			b.ReportMetric(cs.DataSizeMB, "db-MB")
		})
	}
}

// BenchmarkFig5Speedup regenerates the Figure 5 measurement: end-to-end
// accurate vs surrogate execution per benchmark, reporting the speedup.
func BenchmarkFig5Speedup(b *testing.B) {
	for _, name := range benchNames {
		b.Run(name, func(b *testing.B) {
			h, modelPath := trainedModel(b, name)
			opt := benchOptions()
			b.ResetTimer()
			var last experiments.EvalResult
			for i := 0; i < b.N; i++ {
				res, err := h.Evaluate(modelPath, opt)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.Speedup, "speedup-x")
			b.ReportMetric(last.Error, "qoi-error")
		})
	}
}

// BenchmarkFig6Breakdown measures the three HPAC-ML inference phases
// (to-tensor, inference engine, from-tensor) on the binomial region.
func BenchmarkFig6Breakdown(b *testing.B) {
	h, modelPath := trainedModel(b, "binomial")
	opt := benchOptions()
	b.ResetTimer()
	var last experiments.EvalResult
	for i := 0; i < b.N; i++ {
		res, err := h.Evaluate(modelPath, opt)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	total := last.ToTensorSec + last.InferenceSec + last.FromTensorSec
	if total > 0 {
		b.ReportMetric(last.ToTensorSec/total, "to-tensor-frac")
		b.ReportMetric(last.InferenceSec/total, "inference-frac")
		b.ReportMetric(last.FromTensorSec/total, "from-tensor-frac")
	}
}

// BenchmarkFig7ParticleFilter regenerates the Figure 7 measurement: the
// CNN surrogate against the original algorithmic approximation.
func BenchmarkFig7ParticleFilter(b *testing.B) {
	h, modelPath := trainedModel(b, "particlefilter")
	opt := benchOptions()
	b.ResetTimer()
	var last experiments.EvalResult
	for i := 0; i < b.N; i++ {
		res, err := h.Evaluate(modelPath, opt)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Speedup, "speedup-x")
	b.ReportMetric(last.Error, "nn-rmse")
	b.ReportMetric(last.BaselineError, "filter-rmse")
}

// BenchmarkFig8 regenerates the Figure 8 panels: the tabular benchmarks'
// surrogate speedup/accuracy points.
func BenchmarkFig8(b *testing.B) {
	for _, panel := range []struct{ id, name string }{
		{"a", "minibude"}, {"b", "binomial"}, {"c", "bonds"},
	} {
		b.Run(panel.id+"_"+panel.name, func(b *testing.B) {
			h, modelPath := trainedModel(b, panel.name)
			opt := benchOptions()
			b.ResetTimer()
			var last experiments.EvalResult
			for i := 0; i < b.N; i++ {
				res, err := h.Evaluate(modelPath, opt)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.Speedup, "speedup-x")
			b.ReportMetric(last.Error, "qoi-error")
		})
	}
}

// BenchmarkFig9MiniWeather regenerates the Figure 9 measurement: the
// auto-regressive surrogate rollout against the accurate solver.
func BenchmarkFig9MiniWeather(b *testing.B) {
	h, modelPath := trainedModel(b, "miniweather")
	opt := benchOptions()
	b.ResetTimer()
	var last experiments.EvalResult
	for i := 0; i < b.N; i++ {
		res, err := h.Evaluate(modelPath, opt)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Speedup, "speedup-x")
	b.ReportMetric(last.Error, "rollout-rmse")
}

// --- Ablations ---

func stencilPlan(b *testing.B, n, m int) (*bridge.Plan, []float64) {
	b.Helper()
	fd, err := directive.Parse("tensor functor(s: [i, j, 0:5] = (([i-1, j], [i+1, j], [i, j-1:j+2])))")
	if err != nil {
		b.Fatal(err)
	}
	md, err := directive.Parse("tensor map(to: s(t[1:N-1, 1:M-1]))")
	if err != nil {
		b.Fatal(err)
	}
	grid := make([]float64, n*m)
	for i := range grid {
		grid[i] = float64(i)
	}
	arr, err := bridge.NewArray("t", grid, n, m)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := bridge.Build(fd.(*directive.FunctorDecl), md.(*directive.MapDecl),
		map[string]*bridge.Array{"t": arr}, directive.Env{"N": n, "M": m})
	if err != nil {
		b.Fatal(err)
	}
	return plan, grid
}

// stagedGather composes plan into a fresh tensor through a Stager bound
// for this one call — the work a capture record does.
func stagedGather(b *testing.B, plan *bridge.Plan) *tensor.Tensor {
	out := tensor.New(plan.TensorShape()...)
	st, err := plan.NewStager(out)
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Gather(); err != nil {
		b.Fatal(err)
	}
	return out
}

// BenchmarkAblationWrapVsCopy compares the bridge's zero-copy wrapped
// gather against a naive per-element gather loop.
func BenchmarkAblationWrapVsCopy(b *testing.B) {
	const N, M = 256, 256
	plan, grid := stencilPlan(b, N, M)
	b.Run("bridge-wrapped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stagedGather(b, plan)
		}
	})
	b.Run("naive-copy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := make([]float64, (N-2)*(M-2)*5)
			at := 0
			for y := 1; y < N-1; y++ {
				for x := 1; x < M-1; x++ {
					out[at] = grid[(y-1)*M+x]
					out[at+1] = grid[(y+1)*M+x]
					out[at+2] = grid[y*M+x-1]
					out[at+3] = grid[y*M+x]
					out[at+4] = grid[y*M+x+1]
					at += 5
				}
			}
		}
	})
}

// BenchmarkAblationBatchedGather compares the composed batched gather
// against applying the functor entry by entry.
func BenchmarkAblationBatchedGather(b *testing.B) {
	const N, M = 128, 128
	plan, _ := stencilPlan(b, N, M)
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stagedGather(b, plan)
		}
	})
	b.Run("per-entry", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := stagedGather(b, plan)
			// Per-entry traversal through the tensor API models the
			// cost of entrywise functor application.
			var sink float64
			for y := 0; y < N-2; y++ {
				for x := 0; x < M-2; x++ {
					for f := 0; f < 5; f++ {
						sink += g.At(y, x, f)
					}
				}
			}
			_ = sink
		}
	})
}

// copyEngine stands in for a model in bridge benchmarks: it copies as
// much of the input as fits into an output of a fixed shape, so only the
// Region's gathers and scatters cost anything.
type copyEngine struct{ out []int }

func (e copyEngine) Infer(ctx context.Context, in, out *tensor.Tensor) error {
	copy(out.Data(), in.Data())
	return nil
}
func (e copyEngine) OutputShape([]int) ([]int, error)    { return e.out, nil }
func (e copyEngine) Warmup(context.Context, []int) error { return nil }

// BenchmarkRegionLayouts times one Region.Execute per layout in infer
// mode (gather, a copying engine, scatter) and in collect mode (gather
// both directions into a fresh record, handed to a discarding sink):
// a flat three-array region, a 64x64 Image2D region with two features in
// and out, and a four-channel 64x64 Channels region.
func BenchmarkRegionLayouts(b *testing.B) {
	const N, H, W, C = 4096, 64, 64, 4
	cases := []struct {
		name       string
		directives string
		arrays     map[string][]int
		layout     hpacml.Layout
		out        []int
	}{
		{"flat", `
tensor functor(ifn: [i, 0:3] = ([i]))
tensor functor(ofn: [i, 0:1] = ([i]))
tensor map(to: ifn(S[0:N], X[0:N], T[0:N]))
tensor map(from: ofn(P[0:N]))
ml(predicated:infer) in(S, X, T) out(P)`,
			map[string][]int{"S": {N}, "X": {N}, "T": {N}, "P": {N}}, hpacml.LayoutFlat, []int{N, 1}},
		{"image2d", `
tensor functor(f2: [i, j, 0:2] = ([i, j]))
tensor map(to: f2(g[0:H, 0:W], h[0:H, 0:W]))
tensor map(from: f2(a[0:H, 0:W], c[0:H, 0:W]))
ml(predicated:infer) in(g, h) out(a, c)`,
			map[string][]int{"g": {H, W}, "h": {H, W}, "a": {H, W}, "c": {H, W}}, hpacml.LayoutImage2D, []int{1, 2 * H * W}},
		{"channels", `
tensor functor(cell: [k, i, j, 0:1] = ([k, i, j]))
tensor map(to: cell(s[0:C, 0:H, 0:W]))
tensor map(from: cell(u[0:C, 0:H, 0:W]))
ml(predicated:infer) in(s) out(u)`,
			map[string][]int{"s": {C, H, W}, "u": {C, H, W}}, hpacml.LayoutChannels, []int{1, C, H, W}},
	}
	for _, tc := range cases {
		for _, infer := range []bool{true, false} {
			mode := "collect"
			if infer {
				mode = "infer"
			}
			b.Run(tc.name+"/"+mode, func(b *testing.B) {
				opts := []hpacml.Option{
					hpacml.Directives(tc.directives),
					hpacml.BindInt("N", N), hpacml.BindInt("H", H), hpacml.BindInt("W", W), hpacml.BindInt("C", C),
					hpacml.InputLayout(tc.layout), hpacml.OutputLayout(tc.layout),
					hpacml.BindPredicate("infer", func() bool { return infer }),
					hpacml.WithEngine(copyEngine{tc.out}), hpacml.WithSink(&countSink{}),
				}
				for name, shape := range tc.arrays {
					data := make([]float64, tensor.NumElements(shape))
					for i := range data {
						data[i] = float64(i)
					}
					opts = append(opts, hpacml.BindArray(name, data, shape...))
				}
				r, err := hpacml.NewRegion(tc.name, opts...)
				if err != nil {
					b.Fatal(err)
				}
				defer r.Close()
				accurate := func() error { return nil }
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := r.Execute(accurate); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationParallelInference compares batch inference with the
// full worker pool against GOMAXPROCS=1.
func BenchmarkAblationParallelInference(b *testing.B) {
	net := nn.NewNetwork(3)
	net.Add(net.NewDense(64, 256), nn.NewActivation(nn.ActReLU), net.NewDense(256, 8))
	x := tensor.New(2048, 64)
	for i := range x.Data() {
		x.Data()[i] = float64(i%17) * 0.1
	}
	run := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := net.Forward(x); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run(fmt.Sprintf("parallel-%d", runtime.GOMAXPROCS(0)), run)
	b.Run("serial", func(b *testing.B) {
		prev := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(prev)
		run(b)
	})
}

// BenchmarkAblationModelCache compares inference with the model cache
// against reloading the model file on every region instance.
func BenchmarkAblationModelCache(b *testing.B) {
	dir := b.TempDir()
	modelPath := filepath.Join(dir, "m.gmod")
	net := nn.NewNetwork(7)
	net.Add(net.NewDense(1, 64), nn.NewActivation(nn.ActTanh), net.NewDense(64, 1))
	if err := net.Save(modelPath); err != nil {
		b.Fatal(err)
	}
	const n = 64
	buf := make([]float64, n)
	mk := func() *hpacml.Region {
		r, err := hpacml.NewRegion("cachebench",
			hpacml.Directives(fmt.Sprintf(`
tensor functor(f: [i, 0:1] = ([i]))
tensor map(to: f(x[0:N]))
tensor map(from: f(x[0:N]))
ml(infer) inout(x) model(%q)
`, modelPath)),
			hpacml.BindInt("N", n),
			hpacml.BindArray("x", buf, n),
		)
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	b.Run("cached", func(b *testing.B) {
		r := mk()
		defer r.Close()
		for i := 0; i < b.N; i++ {
			if err := r.Execute(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reload-every-instance", func(b *testing.B) {
		r := mk()
		defer r.Close()
		for i := 0; i < b.N; i++ {
			r.InvalidateModel()
			if err := r.Execute(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Batched inference engine ---

// naiveMatMul is the seed's single-threaded triple loop, kept as the
// ablation baseline for the blocked, parallel kernel.
func naiveMatMul(a, b *tensor.Tensor) *tensor.Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	ad, bd := a.Contiguous().Data(), b.Contiguous().Data()
	out := tensor.New(m, n)
	od := out.Data()
	for i := 0; i < m; i++ {
		arow := ad[i*k : (i+1)*k]
		orow := od[i*n : (i+1)*n]
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			brow := bd[kk*n : (kk+1)*n]
			for j := range orow {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

// BenchmarkMatMulBlockedVsNaive measures the tensor engine's packed,
// parallel MatMulInto against the seed's serial triple loop.
func BenchmarkMatMulBlockedVsNaive(b *testing.B) {
	for _, size := range []int{128, 512} {
		a := tensor.New(size, size)
		w := tensor.New(size, size)
		ad, wd := a.Data(), w.Data()
		for i := range ad {
			ad[i] = float64(i%13) * 0.37
			wd[i] = float64(i%7) * 0.11
		}
		b.Run(fmt.Sprintf("naive-%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				naiveMatMul(a, w)
			}
		})
		b.Run(fmt.Sprintf("blocked-%d", size), func(b *testing.B) {
			dst := tensor.New(size, size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := tensor.MatMulInto(dst, a, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// optionBenchRegion builds the binomial MLP inference region used by the
// batching benchmarks: chunk options of 3 features each, one surrogate
// price out, with a mid-space MLP like the paper's binomial search space.
func optionBenchRegion(b *testing.B, chunk int) (*hpacml.Region, []float64, []float64, []float64, []float64) {
	b.Helper()
	hpacml.ClearModelCache()
	dir := b.TempDir()
	modelPath := filepath.Join(dir, "options.gmod")
	net := nn.NewNetwork(13)
	net.Add(net.NewDense(3, 64), nn.NewActivation(nn.ActReLU),
		net.NewDense(64, 64), nn.NewActivation(nn.ActReLU),
		net.NewDense(64, 1))
	if err := net.Save(modelPath); err != nil {
		b.Fatal(err)
	}
	s := make([]float64, chunk)
	x := make([]float64, chunk)
	t := make([]float64, chunk)
	prices := make([]float64, chunk)
	r, err := hpacml.NewRegion("options-bench",
		hpacml.Directives(fmt.Sprintf(`
tensor functor(opt_in: [i, 0:3] = ([i]))
tensor functor(price_out: [i, 0:1] = ([i]))
tensor map(to: opt_in(S[0:NOPT], X[0:NOPT], T[0:NOPT]))
ml(infer) in(S, X, T) out(price_out(prices[0:NOPT])) model(%q)
`, modelPath)),
		hpacml.BindInt("NOPT", chunk),
		hpacml.BindArray("S", s, chunk),
		hpacml.BindArray("X", x, chunk),
		hpacml.BindArray("T", t, chunk),
		hpacml.BindArray("prices", prices, chunk),
	)
	if err != nil {
		b.Fatal(err)
	}
	return r, s, x, t, prices
}

// BenchmarkExecuteSingleVsBatch is the headline measurement of the
// batched inference engine: serving `batch` region invocations by
// sequential Execute calls versus one ExecuteBatch call. One op is one
// full sweep of `batch` invocations, so ns/op is directly comparable
// between the two paths. chunk is the options priced per invocation:
// chunk=1 is the fine-grained regime where per-invocation overhead
// dominates and batching pays off most; chunk=32 is closer to
// compute-bound, where batching approaches a wash on a single core and
// wins through parallel utilization on larger machines.
func BenchmarkExecuteSingleVsBatch(b *testing.B) {
	for _, chunk := range []int{1, 32} {
		for _, batch := range []int{4, 64} {
			stage := func(s, x, t []float64) func(i int) error {
				return func(i int) error {
					for j := range s {
						s[j] = 5 + float64((i*31+j*7)%25)
						x[j] = 1 + float64((i*13+j*3)%99)
						t[j] = 0.25 + float64((i+j)%39)*0.25
					}
					return nil
				}
			}
			b.Run(fmt.Sprintf("single-chunk%d-batch%d", chunk, batch), func(b *testing.B) {
				r, s, x, t, _ := optionBenchRegion(b, chunk)
				defer r.Close()
				st := stage(s, x, t)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for k := 0; k < batch; k++ {
						if err := st(k); err != nil {
							b.Fatal(err)
						}
						if err := r.Execute(nil); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
			b.Run(fmt.Sprintf("batched-chunk%d-batch%d", chunk, batch), func(b *testing.B) {
				r, s, x, t, _ := optionBenchRegion(b, chunk)
				defer r.Close()
				st := stage(s, x, t)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := r.ExecuteBatch(batch, st, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
