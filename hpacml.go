// Package hpacml is a Go implementation of the HPAC-ML programming model
// (Fink et al., SC 2024): a directive-based way to embed machine-learning
// surrogates in scientific applications. An application annotates a code
// region with tensor functor, tensor map, and ml directives; the runtime
// then either collects the region's inputs/outputs into a database for
// offline surrogate training, or replaces the region entirely with model
// inference, bridging the application and tensor memory layouts in both
// directions.
//
// Go has no pragma mechanism, so the directives are the same grammar the
// paper's Clang extension parses (Figure 3), provided as strings when the
// region is constructed — the one-time "annotation" a developer writes.
// The wrapped structured block becomes the closure passed to Execute, which
// is exactly the outlined function the HPAC compiler would have produced:
//
//	region, err := hpacml.NewRegion("stencil",
//	    hpacml.Directives(`
//	        #pragma approx tensor functor(ifn: [i, j, 0:5] = (([i-1, j], [i+1, j], [i, j-1:j+2])))
//	        #pragma approx tensor functor(ofn: [i, j, 0:1] = ([i, j]))
//	        #pragma approx tensor map(to: ifn(t[1:N-1, 1:M-1]))
//	        #pragma approx tensor map(from: ofn(tnew[1:N-1, 1:M-1]))
//	        #pragma approx ml(predicated:useModel) in(t) out(tnew) model("m.gmod") db("d.gh5")
//	    `),
//	    hpacml.BindInt("N", n), hpacml.BindInt("M", m),
//	    hpacml.BindArray("t", t, n, m),
//	    hpacml.BindArray("tnew", tnew, n, m),
//	    hpacml.BindPredicate("useModel", func() bool { return infer }),
//	)
//	...
//	err = region.Execute(func() error { doTimestep(t, tnew); return nil })
package hpacml

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/bridge"
	"repro/internal/directive"
	"repro/internal/tensor"
)

// Layout controls how the bridge's LHS tensors are presented to the model.
type Layout int

// Supported model I/O layouts.
const (
	// LayoutFlat flattens the sweep dims into a batch: [entries, features].
	// This is the layout of the paper's MLP benchmarks.
	LayoutFlat Layout = iota
	// LayoutImage2D presents a 2-D sweep as a single image sample:
	// [S0, S1, F] becomes [1, F, S0, S1] (channels from features), the
	// layout of the paper's CNN benchmarks (ParticleFilter).
	LayoutImage2D
	// LayoutChannels presents a 3-D sweep whose leading dim is a channel
	// index: [C, S0, S1, 1] becomes [1, C, S0, S1] (MiniWeather's state
	// variables).
	LayoutChannels
)

// Stats aggregates runtime accounting for one region — the quantities
// behind the paper's Figure 6 (to-tensor / inference / from-tensor split)
// and Table III (collection overhead), extended with the batched-execution
// counters that quantify how much amortization ExecuteBatch achieves.
type Stats struct {
	Invocations  int
	Inferences   int
	Collections  int
	AccurateRuns int

	// Batches counts ExecuteBatch calls that reached the model;
	// BatchedInvocations counts the region invocations those calls
	// served. Batched invocations are also included in Invocations and
	// Inferences, so (Inferences - BatchedInvocations) is the
	// single-invocation count.
	Batches            int
	BatchedInvocations int

	// Fallbacks counts surrogate attempts that ran the accurate region
	// instead because the engine failed or the caller's context
	// deadline expired (the FallbackEngine policy, which every region
	// with a trust(...) clause also follows). Those invocations are
	// also counted in AccurateRuns, never in Inferences.
	Fallbacks int
	// RemoteInference counts invocations whose inference executed on a
	// remote engine (an http(s):// model URI) rather than in-process.
	// Remote invocations are also included in Inferences.
	RemoteInference int

	// Trust-routing counters, per model-layout input row (one entry of
	// one invocation). TrustedRows counts rows whose surrogate
	// prediction was kept; UncertainRows counts rows rejected by the
	// predictive-variance gate (trust(var:V)); OutOfDomainRows counts
	// rows rejected by the input-domain guardrail (trust(domain:on) —
	// the domain verdict wins when a row trips both gates). With an
	// accurate path available (Execute with a closure, or
	// ExecuteBatchRouted) rejected rows are recomputed accurately and
	// recaptured through the sink; without one the gate is advisory and
	// the surrogate's output is kept, but the counters still record the
	// low-trust rows. Ungated regions count every surrogate-served row
	// in TrustedRows.
	TrustedRows     int
	UncertainRows   int
	OutOfDomainRows int

	// Capture-pipeline counters, folded in from the region's sink:
	// CaptureDrops counts records lost to backpressure or failed remote
	// batches, CaptureFlushes counts completed sink flushes, and
	// RemoteCaptures counts records acknowledged by a remote ingest
	// endpoint (an http(s):// db URI). All zero for regions that never
	// collect.
	CaptureDrops   int
	CaptureFlushes int
	RemoteCaptures int

	ToTensor   time.Duration
	Inference  time.Duration
	FromTensor time.Duration
	Accurate   time.Duration
	DBWrite    time.Duration

	// BatchInference is model-engine time spent inside batched calls;
	// Inference counts only single-invocation Execute model time. The
	// two never overlap, so their sum is total surrogate engine time.
	BatchInference time.Duration
}

// Accumulate adds o's counters and phase timings into s — the bridge
// aggregators use to fold a replica pool's per-Region accounting into
// one view (the serving /v1/stats snapshot and the /metrics region
// series both sum replicas through it). Field-for-field, so a new
// Stats counter only needs wiring here to reach every aggregate.
func (s *Stats) Accumulate(o Stats) {
	s.Invocations += o.Invocations
	s.Inferences += o.Inferences
	s.Collections += o.Collections
	s.AccurateRuns += o.AccurateRuns
	s.Batches += o.Batches
	s.BatchedInvocations += o.BatchedInvocations
	s.Fallbacks += o.Fallbacks
	s.RemoteInference += o.RemoteInference
	s.TrustedRows += o.TrustedRows
	s.UncertainRows += o.UncertainRows
	s.OutOfDomainRows += o.OutOfDomainRows
	s.CaptureDrops += o.CaptureDrops
	s.CaptureFlushes += o.CaptureFlushes
	s.RemoteCaptures += o.RemoteCaptures
	s.ToTensor += o.ToTensor
	s.Inference += o.Inference
	s.FromTensor += o.FromTensor
	s.Accurate += o.Accurate
	s.DBWrite += o.DBWrite
	s.BatchInference += o.BatchInference
}

// BridgeOverhead returns (to-tensor + from-tensor) time as a fraction of
// total inference-engine time (single and batched).
func (s Stats) BridgeOverhead() float64 {
	engine := s.Inference + s.BatchInference
	if engine == 0 {
		return 0
	}
	return float64(s.ToTensor+s.FromTensor) / float64(engine)
}

// Region is one annotated code region: its directives, bound application
// memory, bridge plans, and execution-control state.
//
// A Region is NOT safe for concurrent use. Execute and ExecuteBatch flip
// execution-control state, write through the bound application arrays,
// reuse cached staging tensors, and bump the unsynchronized stats
// counters; two goroutines calling into the same Region race on all of
// them. Concurrent callers should instead give each worker goroutine its
// own replica Region (same directives, its own bound arrays) and feed the
// replicas from a shared queue. (internal/serve applies the same
// replica-pool idiom one level down, to Engines: its requests already
// arrive as tensors and have no application memory to bridge.)
type Region struct {
	name string

	functors map[string]*directive.FunctorDecl
	maps     []*directive.MapDecl
	ml       *directive.MLDecl

	env        directive.Env
	arrays     map[string]*bridge.Array
	predicates map[string]func() bool

	inPlans  []*bridge.Plan
	outPlans []*bridge.Plan

	inLayout  Layout
	outLayout Layout

	// engine is the pluggable surrogate-execution backend. It is built
	// lazily from the model() reference on first inference (LocalEngine
	// for file paths, a fallback-wrapped RemoteEngine for http(s) URIs)
	// unless the caller injected one with WithEngine. engineOwned says
	// whether Close should release it; engineRemote and engineFallback
	// cache the policy markers derived from the engine's type. warmed
	// flips after a successful Engine.Warmup and is cleared whenever the
	// model state is dropped.
	engine         Engine
	engineOwned    bool
	engineRemote   bool
	engineFallback bool
	warmed         bool

	// sink is the pluggable capture backend. It is built lazily from
	// the db() reference on the first collection (LocalSink for file
	// paths, RemoteSink for http(s) URIs, either wrapped in a
	// SamplingSink when a capture(...) policy applies) unless the
	// caller injected one with WithSink. sinkOwned says whether Close
	// should close it (injected sinks are only flushed); captureCfg is
	// the WithCapture tuning merged with the directive's capture
	// clause.
	sink       Sink
	sinkOwned  bool
	captureCfg CaptureConfig

	// guard and variance are the trust(...) clause's gates, resolved by
	// ensureTrust at the first inference (trustReady flips then);
	// verdicts is the per-row report judge reuses across inferences.
	guard      *Guardrail
	variance   VarianceReporter
	trustReady bool
	verdicts   trustReport

	stats Stats
	// sinkBase is the sink-counter snapshot taken at the last
	// ResetStats, so Stats reports only capture activity since then
	// while CaptureStats keeps the sink's lifetime totals.
	sinkBase SinkStats
	dirSrcs  []string // raw directive text, for Table II accounting
	closed   bool

	// Inference staging caches, reused across invocations so steady-state
	// Execute and ExecuteBatch calls stop allocating and re-planning per
	// call. batches holds one batchState per distinct batch size (Execute
	// is size 1), so an application loop that batches its invocations in
	// fixed chunks and ends on a shorter tail batch doesn't rebuild
	// staging on every size change. The batchState stagers are bridge
	// views bound once to the staging tensors by bindStagers. The output
	// buffers and their stagers are model-dependent and dropped by
	// InvalidateModel.
	batches map[int]*batchState

	// records is the region's pool of capture slots (*captureSlot).
	// Sinks release records from their own goroutines, so it is a
	// sync.Pool rather than a plain free list.
	records sync.Pool
}

// maxBatchStates caps how many distinct batch sizes keep cached staging
// at once: an application loop needs its chunk size plus a tail size or
// two, and a caller cycling through many sizes must not accumulate
// staging tensors forever.
const maxBatchStates = 64

// batchState is the cached staging for one ExecuteBatch size n: the
// batched input tensor with each invocation's gather stagers, and (once
// the first batch of this size has run) the batched output tensor with
// each invocation's scatter stagers.
type batchState struct {
	x     *tensor.Tensor
	inSt  [][]*bridge.Stager // per invocation, per in-plan
	y     *tensor.Tensor
	outSt [][]*bridge.Stager // per invocation, per out-plan
}

// Option configures a Region under construction.
type Option func(*Region) error

// Directives parses a block of directive text (one directive per line,
// backslash continuations allowed) into the region.
func Directives(src string) Option {
	return func(r *Region) error {
		ds, err := directive.ParseAll(src)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(strings.ReplaceAll(src, "\\\n", " "), "\n") {
			line = strings.TrimSpace(line)
			if line != "" && !strings.HasPrefix(line, "//") {
				r.dirSrcs = append(r.dirSrcs, line)
			}
		}
		return r.addDirectives(ds)
	}
}

// Directive adds a single pre-parsed directive.
func Directive(d directive.Directive) Option {
	return func(r *Region) error {
		r.dirSrcs = append(r.dirSrcs, d.String())
		return r.addDirectives([]directive.Directive{d})
	}
}

// BindArray binds application memory under a name referenced by the map
// targets and the ml in/out lists. The memory is aliased, never copied.
func BindArray(name string, data []float64, shape ...int) Option {
	return func(r *Region) error {
		a, err := bridge.NewArray(name, data, shape...)
		if err != nil {
			return err
		}
		if _, dup := r.arrays[name]; dup {
			return fmt.Errorf("hpacml: array %q bound twice", name)
		}
		r.arrays[name] = a
		return nil
	}
}

// BindInt binds an integer variable referenced by concrete slice
// expressions (e.g. N, M).
func BindInt(name string, v int) Option {
	return func(r *Region) error {
		if _, dup := r.env[name]; dup {
			return fmt.Errorf("hpacml: integer %q bound twice", name)
		}
		r.env[name] = v
		return nil
	}
}

// BindPredicate binds a boolean expression name used by predicated ml
// clauses and if clauses. The literals "true" and "false" are predefined.
func BindPredicate(name string, fn func() bool) Option {
	return func(r *Region) error {
		if fn == nil {
			return fmt.Errorf("hpacml: nil predicate %q", name)
		}
		r.predicates[name] = fn
		return nil
	}
}

// InputLayout selects how gathered inputs are presented to the model.
func InputLayout(l Layout) Option {
	return func(r *Region) error { r.inLayout = l; return nil }
}

// OutputLayout selects how model outputs map back to the bridge.
func OutputLayout(l Layout) Option {
	return func(r *Region) error { r.outLayout = l; return nil }
}

// NewRegion builds a region from directives and bindings, performing all
// semantic analysis and bridge-plan construction up front so Execute is
// cheap and cannot fail on layout grounds.
func NewRegion(name string, opts ...Option) (*Region, error) {
	r := &Region{
		name:       name,
		functors:   make(map[string]*directive.FunctorDecl),
		env:        make(directive.Env),
		arrays:     make(map[string]*bridge.Array),
		predicates: make(map[string]func() bool),
	}
	for _, opt := range opts {
		if err := opt(r); err != nil {
			return nil, fmt.Errorf("hpacml: region %q: %w", name, err)
		}
	}
	if err := r.finalize(); err != nil {
		return nil, fmt.Errorf("hpacml: region %q: %w", name, err)
	}
	return r, nil
}

func (r *Region) addDirectives(ds []directive.Directive) error {
	for _, d := range ds {
		switch v := d.(type) {
		case *directive.FunctorDecl:
			if _, dup := r.functors[v.Name]; dup {
				return fmt.Errorf("functor %q declared twice", v.Name)
			}
			r.functors[v.Name] = v
		case *directive.MapDecl:
			r.maps = append(r.maps, v)
		case *directive.MLDecl:
			if r.ml != nil {
				return fmt.Errorf("multiple ml directives in one region")
			}
			r.ml = v
		}
	}
	return nil
}

// finalize performs semantic analysis: resolving maps against functors and
// arrays, building bridge plans, and checking the ml clause's data flow.
func (r *Region) finalize() error {
	if r.ml == nil {
		return fmt.Errorf("missing ml directive")
	}
	// A hand-built decl passed to Directive bypasses the directive
	// parser, so re-run its grammar check here: plain paths pass, URIs
	// must be well-formed http(s)://host/model-name forms.
	if r.ml.Model != "" {
		if err := directive.ValidateModelRef(r.ml.Model); err != nil {
			return err
		}
	}
	if r.ml.DB != "" {
		if err := directive.ValidateDBRef(r.ml.DB); err != nil {
			return err
		}
	}
	// The directive's capture(...) sampling policy applies unless the
	// caller overrode sampling through WithCapture (runtime tuning wins
	// over the annotation).
	if r.ml.Capture != nil && r.captureCfg.Every == 0 && r.captureCfg.Frac == 0 {
		r.captureCfg.Every = r.ml.Capture.Every
		r.captureCfg.Frac = r.ml.Capture.Frac
	}

	// Inline functor applications in the ml clause (fa-exprs) create
	// implicit tensor maps: in() gathers, out() scatters, inout() both.
	maps := append([]*directive.MapDecl(nil), r.maps...)
	for _, app := range r.ml.InApps {
		maps = append(maps, &directive.MapDecl{Dir: directive.To, Functor: app.Functor, Targets: app.Targets})
	}
	for _, app := range r.ml.OutApps {
		maps = append(maps, &directive.MapDecl{Dir: directive.From, Functor: app.Functor, Targets: app.Targets})
	}
	for _, app := range r.ml.InOutApps {
		maps = append(maps,
			&directive.MapDecl{Dir: directive.To, Functor: app.Functor, Targets: app.Targets},
			&directive.MapDecl{Dir: directive.From, Functor: app.Functor, Targets: app.Targets})
	}
	// inout(name) arrays covered only in the to direction derive their
	// from-map from the same functor application (and vice versa) — this
	// is what lets MiniWeather annotate with three directives (Table II).
	for _, n := range r.ml.InOut {
		var to, from *directive.MapDecl
		for _, m := range maps {
			for _, t := range m.Targets {
				if t.Array != n {
					continue
				}
				if m.Dir == directive.To {
					to = m
				} else {
					from = m
				}
			}
		}
		switch {
		case to != nil && from == nil:
			maps = append(maps, &directive.MapDecl{Dir: directive.From, Functor: to.Functor, Targets: to.Targets})
		case from != nil && to == nil:
			maps = append(maps, &directive.MapDecl{Dir: directive.To, Functor: from.Functor, Targets: from.Targets})
		}
	}

	covered := map[string]directive.Direction{}
	for _, m := range maps {
		f, ok := r.functors[m.Functor]
		if !ok {
			return fmt.Errorf("map references undeclared functor %q", m.Functor)
		}
		plan, err := bridge.Build(f, m, r.arrays, r.env)
		if err != nil {
			return err
		}
		if m.Dir == directive.To {
			r.inPlans = append(r.inPlans, plan)
		} else {
			r.outPlans = append(r.outPlans, plan)
		}
		for _, t := range m.Targets {
			covered[t.Array+"/"+m.Dir.String()] = m.Dir
		}
	}

	check := func(names []string, dir string) error {
		for _, n := range names {
			if _, ok := r.arrays[n]; !ok {
				return fmt.Errorf("ml %s(%s): array not bound", dir, n)
			}
			if _, ok := covered[n+"/"+dir]; !ok {
				return fmt.Errorf("ml %s(%s): no tensor map covers this array", dir, n)
			}
		}
		return nil
	}
	if err := check(r.ml.In, "to"); err != nil {
		return err
	}
	if err := check(r.ml.Out, "from"); err != nil {
		return err
	}
	for _, n := range r.ml.InOut {
		if err := check([]string{n}, "to"); err != nil {
			return err
		}
		if err := check([]string{n}, "from"); err != nil {
			return err
		}
	}
	if len(r.inPlans) == 0 {
		return fmt.Errorf("no to-direction tensor map")
	}
	if len(r.outPlans) == 0 {
		return fmt.Errorf("no from-direction tensor map")
	}
	// All input plans must agree on entry count so their features can be
	// concatenated per entry.
	entries := r.inPlans[0].Entries()
	for _, p := range r.inPlans[1:] {
		if p.Entries() != entries {
			return fmt.Errorf("input maps disagree on entry count: %d vs %d", p.Entries(), entries)
		}
	}
	outEntries := r.outPlans[0].Entries()
	for _, p := range r.outPlans[1:] {
		if p.Entries() != outEntries {
			return fmt.Errorf("output maps disagree on entry count: %d vs %d", p.Entries(), outEntries)
		}
	}
	// Predicates referenced by the ml clause must be resolvable.
	if r.ml.Mode == directive.Predicated {
		if _, err := r.evalPredicate(r.ml.Cond); err != nil {
			return err
		}
	}
	if r.ml.If != "" {
		if _, err := r.evalPredicate(r.ml.If); err != nil {
			return err
		}
	}
	return nil
}

func (r *Region) evalPredicate(expr string) (func() bool, error) {
	expr = strings.TrimSpace(expr)
	switch expr {
	case "true", "1":
		return func() bool { return true }, nil
	case "false", "0":
		return func() bool { return false }, nil
	}
	if fn, ok := r.predicates[expr]; ok {
		return fn, nil
	}
	return nil, fmt.Errorf("unbound predicate %q (bind it with BindPredicate)", expr)
}

// Name returns the region name (its group in the collection database).
func (r *Region) Name() string { return r.name }

// NumDirectives returns how many directives annotate the region — the
// paper's Table II metric.
func (r *Region) NumDirectives() int { return len(r.dirSrcs) }

// DirectiveLines returns the raw annotation text, one directive per entry.
func (r *Region) DirectiveLines() []string {
	return append([]string(nil), r.dirSrcs...)
}

// InputShape returns the model input shape of one region invocation
// under the configured input layout — what the bridge will present to
// the model. Serving-layer replica pools use it to validate that a
// registered model's expected input matches the region's bridging before
// any traffic arrives.
func (r *Region) InputShape() ([]int, error) { return layoutShape(r.inPlans, r.inLayout) }

// Stats returns a snapshot of the region's runtime accounting, with
// the capture sink's counters folded in (relative to the last
// ResetStats, like every other field).
func (r *Region) Stats() Stats {
	s := r.stats
	if ss, ok := r.CaptureStats(); ok {
		s.CaptureDrops = int(ss.Dropped - r.sinkBase.Dropped)
		s.CaptureFlushes = int(ss.Flushes - r.sinkBase.Flushes)
		s.RemoteCaptures = int(ss.RemoteRecords - r.sinkBase.RemoteRecords)
	}
	return s
}

// CaptureStats snapshots the capture sink's own accounting (queue
// drops, flushes, shard count, remote ingest totals). ok is false when
// no sink has been resolved yet or the sink does not expose stats.
// The snapshot stays readable after Close — that is when the final
// flush counts are in.
func (r *Region) CaptureStats() (SinkStats, bool) {
	ss, ok := r.sink.(sinkStatser)
	if !ok {
		return SinkStats{}, false
	}
	return ss.SinkStats(), true
}

// ResetStats zeroes the accounting, capture counters included: the
// sink keeps its lifetime totals (readable via CaptureStats), but
// later Stats snapshots count only activity after the reset.
func (r *Region) ResetStats() {
	r.stats = Stats{}
	r.sinkBase = SinkStats{}
	if ss, ok := r.CaptureStats(); ok {
		r.sinkBase = ss
	}
}

// Execute runs the region once. Depending on the ml clause it either
// invokes the accurate path (optionally collecting data) or replaces it
// with surrogate inference. accurate is the outlined structured block.
func (r *Region) Execute(accurate func() error) error {
	return r.ExecuteContext(context.Background(), accurate)
}

// ExecuteContext is Execute with a caller-supplied context. The context
// flows through the region's engine down to the backend — a remote
// engine threads it into its HTTP requests, so cancelling the context
// cancels in-flight inference on the wire. When the engine carries the
// fallback policy (every http(s):// model URI does by default) or the
// region has a trust(...) clause, a context that expires before or during inference runs the accurate
// path instead of failing the invocation.
func (r *Region) ExecuteContext(ctx context.Context, accurate func() error) error {
	if r.closed {
		return fmt.Errorf("hpacml: region %q used after Close", r.name)
	}
	r.stats.Invocations++
	p, err := r.resolvePath()
	if err != nil {
		return err
	}
	switch p {
	case pathAccurate:
		return r.runAccurate(accurate)
	case pathCollect:
		return r.collect(accurate)
	}
	// One invocation is the n = 1 case of the batched loop.
	var acc func(int) error
	if accurate != nil {
		acc = func(int) error { return accurate() }
	}
	return r.executeBatch(ctx, 1, nil, acc, nil, false)
}

// regionPath is what one invocation of the region resolves to.
type regionPath int

const (
	pathInfer    regionPath = iota // surrogate inference
	pathCollect                    // accurate run, captured
	pathAccurate                   // accurate run only: the if() clause is false
)

// resolvePath evaluates the if() clause and the ml mode's predicate once.
// A false if() gates HPAC-ML out entirely (the paper's MiniWeather
// interleaving control); otherwise the mode, or for predicated regions
// the predicate, picks inference or collection.
func (r *Region) resolvePath() (regionPath, error) {
	if r.ml.If != "" {
		gate, err := r.evalPredicate(r.ml.If)
		if err != nil {
			return 0, err
		}
		if !gate() {
			return pathAccurate, nil
		}
	}
	switch r.ml.Mode {
	case directive.Infer:
		return pathInfer, nil
	case directive.Collect:
		return pathCollect, nil
	case directive.Predicated:
		if r.ml.Cond == "" {
			return pathInfer, nil
		}
		fn, err := r.evalPredicate(r.ml.Cond)
		if err != nil {
			return 0, err
		}
		if fn() {
			return pathInfer, nil
		}
		return pathCollect, nil
	}
	return 0, fmt.Errorf("hpacml: unknown ml mode %v", r.ml.Mode)
}

func (r *Region) runAccurate(accurate func() error) error {
	start := time.Now()
	err := accurate()
	r.stats.Accurate += time.Since(start)
	r.stats.AccurateRuns++
	return err
}

// collect is the one capture step behind ml(collect) and trust
// recapture: gather the inputs, run the accurate path, gather the
// outputs, and hand the pair to the capture sink as one atomic record
// along with the region runtime. Both gathers go through bindStagers
// with the layouts inference uses, so one region invocation is one
// training sample in the model's own layout: [entries, features] rows
// for flat regions, one [1, C, H, W] input image for image/channel
// regions, whose targets are recorded as the flat [1, N] sample their
// dense decoders emit (channel-first, the order inference scatters).
// With the default asynchronous sink the solver pays only the gathers
// and an enqueue here — serialization and I/O happen on the sink's
// writer goroutine (Stats.DBWrite measures the enqueue cost).
//
// The record comes from the region's pool of capture slots (captureSlot):
// tensors of its own, never views of the bound application arrays, so
// the sink may write them after the solver has already overwritten the
// application state. A sink that releases the record returns the slot,
// so the warm capture path allocates nothing. The slot is released here
// when the capture fails before the sink took it.
func (r *Region) collect(accurate func() error) error {
	start := time.Now()
	s, err := r.captureSlot()
	r.stats.ToTensor += time.Since(start)
	if err != nil {
		return err
	}
	if err := r.capture(s, accurate); err != nil {
		s.release()
		return err
	}
	return nil
}

// capture fills slot s — inputs, the accurate run, outputs — and hands
// its record to the sink.
func (r *Region) capture(s *captureSlot, accurate func() error) error {
	start := time.Now()
	err := runStagers(s.inSt, (*bridge.Stager).Gather)
	r.stats.ToTensor += time.Since(start)
	if err != nil {
		return err
	}

	runStart := time.Now()
	if err := accurate(); err != nil {
		return err
	}
	runtime := time.Since(runStart)
	r.stats.Accurate += runtime
	r.stats.AccurateRuns++

	start = time.Now()
	err = runStagers(s.outSt, (*bridge.Stager).Gather)
	r.stats.FromTensor += time.Since(start)
	if err != nil {
		return err
	}

	start = time.Now()
	defer func() { r.stats.DBWrite += time.Since(start) }()
	if err := r.ensureSink(); err != nil {
		return err
	}
	r.stats.Collections++
	s.rec.RuntimeNS = float64(runtime.Nanoseconds())
	return r.sink.Capture(&s.rec)
}

// captureSlot takes a capture slot from the region's pool, or makes one
// when the pool is empty, and resets its record's exported fields.
func (r *Region) captureSlot() (*captureSlot, error) {
	s, _ := r.records.Get().(*captureSlot)
	if s == nil {
		var err error
		if s, err = r.newCaptureSlot(); err != nil {
			return nil, err
		}
	}
	s.releases.Store(0)
	s.rec = CaptureRecord{Region: r.name, Inputs: s.in, Outputs: s.out, slot: s}
	return s, nil
}

// newCaptureSlot allocates one capture record's tensors in the model
// layout, image and channel targets as the flat [1, N] sample collect
// describes, and binds the gather stagers to them.
func (r *Region) newCaptureSlot() (*captureSlot, error) {
	inShape, err := layoutShape(r.inPlans, r.inLayout)
	if err != nil {
		return nil, err
	}
	outShape, err := layoutShape(r.outPlans, r.outLayout)
	if err != nil {
		return nil, err
	}
	if r.outLayout != LayoutFlat {
		outShape = []int{1, tensor.NumElements(outShape)}
	}
	s := &captureSlot{in: tensor.New(inShape...), out: tensor.New(outShape...), pool: &r.records}
	if s.inSt, err = bindStagers(r.inPlans, r.inLayout, s.in); err != nil {
		return nil, err
	}
	if s.outSt, err = bindStagers(r.outPlans, r.outLayout, s.out); err != nil {
		return nil, err
	}
	return s, nil
}

// ensureSink resolves the region's capture sink from its db()
// reference on first use: a plain path gets the asynchronous sharded
// LocalSink, an http(s):// URI the RemoteSink against a hpacml-serve
// ingest endpoint; a sampling policy (capture(...) clause or
// WithCapture) wraps either in a SamplingSink. Injected sinks
// (WithSink) short-circuit all of it.
func (r *Region) ensureSink() error {
	if r.sink != nil {
		return nil
	}
	if r.ml.DB == "" {
		return fmt.Errorf("hpacml: collection without db() clause in region %q", r.name)
	}
	s, err := NewSink(r.ml.DB, r.captureCfg)
	if err != nil {
		return fmt.Errorf("hpacml: region %q: %w", r.name, err)
	}
	r.sink = s
	r.sinkOwned = true
	return nil
}

// setEngine installs an engine and derives its policy markers.
func (r *Region) setEngine(e Engine, owned bool) {
	r.engine = e
	r.engineOwned = owned
	r.engineRemote = isRemote(e)
	r.engineFallback = wantsFallback(e)
	r.warmed = false
}

// ensureEngine resolves the region's engine from its model() reference
// on first use: a plain path gets the in-process LocalEngine, an
// http(s):// URI a RemoteEngine wrapped in the FallbackEngine policy
// (a distributed deployment should degrade to the accurate path, not
// fail the solve, when the server is unreachable). Injected engines
// (WithEngine) short-circuit all of it.
func (r *Region) ensureEngine() error {
	if r.engine != nil {
		return nil
	}
	if r.ml.Model == "" {
		return fmt.Errorf("hpacml: inference without model() clause in region %q", r.name)
	}
	if directive.IsRemoteModel(r.ml.Model) {
		// The default timeout keeps the fallback promise honest: a
		// server that accepts connections but never answers must still
		// degrade to the accurate path, not hang Execute forever. An
		// application wanting different limits injects its own engine
		// with WithEngine.
		remote, err := NewRemoteEngine(r.ml.Model, WithRequestTimeout(DefaultRemoteTimeout))
		if err != nil {
			return fmt.Errorf("hpacml: region %q: %w", r.name, err)
		}
		r.setEngine(NewFallbackEngine(remote), true)
		return nil
	}
	// The f32(on) and quant(int8) clauses are requests to the region's
	// own engine, which keeps the wider path for whatever it cannot
	// compile (LocalEngine.Precision reports the outcome and
	// PrecisionReason why).
	var opts []LocalOption
	if r.ml.F32 != nil && *r.ml.F32 {
		opts = append(opts, WithFloat32Inference())
	}
	if r.ml.Quant == "int8" {
		opts = append(opts, WithInt8Inference())
	}
	r.setEngine(NewLocalEngine(r.ml.Model, opts...), true)
	return nil
}

// warmEngine runs the engine's warmup hook once against the region's
// single-invocation input shape. Failure leaves warmed unset, so the
// next invocation retries — a remote server may come up later, and the
// local engine's load error repeats exactly as the old in-line model
// load did.
func (r *Region) warmEngine(ctx context.Context) error {
	if r.warmed {
		return nil
	}
	shape, err := r.InputShape()
	if err != nil {
		return err
	}
	if err := r.engine.Warmup(ctx, shape); err != nil {
		return err
	}
	r.warmed = true
	return nil
}

// layoutShape returns the model-layout shape of one invocation of plans
// and checks the layout's constraints: [entries, features] for
// LayoutFlat, [1, F, S0, S1] for LayoutImage2D (one map, a 2-D sweep),
// [1, C, S0, S1] for LayoutChannels (one map, a 3-D sweep, one feature).
// Plans of one direction agree on entries (finalize checks it).
func layoutShape(plans []*bridge.Plan, layout Layout) ([]int, error) {
	switch layout {
	case LayoutFlat:
		feat := 0
		for _, p := range plans {
			feat += p.Features()
		}
		return []int{plans[0].Entries(), feat}, nil
	case LayoutImage2D, LayoutChannels:
		if len(plans) != 1 {
			return nil, fmt.Errorf("hpacml: image/channels layout wants exactly one map per direction, got %d", len(plans))
		}
		p := plans[0]
		sweep := p.SweepShape()
		if layout == LayoutImage2D {
			if len(sweep) != 2 {
				return nil, fmt.Errorf("hpacml: image layout wants a 2-D sweep, got %v", sweep)
			}
			return []int{1, p.Features(), sweep[0], sweep[1]}, nil
		}
		if len(sweep) != 3 || p.Features() != 1 {
			return nil, fmt.Errorf("hpacml: channels layout wants a 3-D sweep with 1 feature, got %v/%d", sweep, p.Features())
		}
		return []int{1, sweep[0], sweep[1], sweep[2]}, nil
	}
	return nil, fmt.Errorf("hpacml: unknown layout %d", layout)
}

// bindStagers binds one invocation's model-layout tensor t to plans. It
// is the whole data bridge of a Region: the cached batch input blocks
// and output views, and the pooled capture slots, are all bound here
// once, so gathers and scatters share one layout by construction.
// t must be contiguous and hold layoutShape's element count in any shape
// (a model may emit an image as [1, N]). The layout view puts every
// plan's features on its last axis — [entries, ΣF] for flat and
// channels, the [S0, S1, F] transpose of a [1, F, S0, S1] image — and
// each plan binds its narrow of that axis.
func bindStagers(plans []*bridge.Plan, layout Layout, t *tensor.Tensor) ([]*bridge.Stager, error) {
	shape, err := layoutShape(plans, layout)
	if err != nil {
		return nil, err
	}
	if t.Len() != tensor.NumElements(shape) || !t.IsContiguous() {
		return nil, fmt.Errorf("hpacml: model tensor %v does not hold the layout's %v", t.Shape(), shape)
	}
	var view *tensor.Tensor
	if layout == LayoutImage2D {
		view, err = t.Reshape(shape[1:]...) // [F, S0, S1]
		if err == nil {
			view, err = view.Transpose(0, 2) // [S1, S0, F]
		}
		if err == nil {
			view, err = view.Transpose(0, 1) // [S0, S1, F]
		}
	} else {
		view, err = t.Reshape(plans[0].Entries(), -1)
	}
	if err != nil {
		return nil, err
	}
	sts := make([]*bridge.Stager, len(plans))
	fOff, last := 0, view.Rank()-1
	for i, p := range plans {
		part, err := view.Narrow(last, fOff, p.Features())
		if err != nil {
			return nil, err
		}
		if sts[i], err = p.NewStager(part); err != nil {
			return nil, err
		}
		fOff += p.Features()
	}
	return sts, nil
}

// runStagers runs one transfer (Stager.Gather or Stager.Scatter) over
// sts in plan order.
func runStagers(sts []*bridge.Stager, transfer func(*bridge.Stager) error) error {
	for _, st := range sts {
		if err := transfer(st); err != nil {
			return err
		}
	}
	return nil
}

// ExecuteBatch runs n independent invocations of the region through a
// single batched model call: stage(i) is called to set up invocation i's
// application inputs, which are immediately gathered into row block i of
// one staging tensor; the model then runs once over all n invocations;
// finally each invocation's outputs are scattered back in order, with
// finish(i) called after invocation i's outputs are in place. Either
// callback may be nil.
//
// This is the amortization that makes surrogates win on the paper's MLP
// benchmarks: bridge planning, kernel dispatch, and model-call overhead
// are paid once per batch instead of once per invocation. Outputs are
// bit-identical to the sequential loop
//
//	for i := range n { stage(i); r.Execute(nil); finish(i) }
//
// because every NN kernel accumulates per output row in a
// batch-size-independent order.
//
// Invocations must be independent: all inputs are gathered before any
// output is scattered, so stage(i) must not depend on the outputs of
// earlier invocations in the same batch (use sequential Execute for
// auto-regressive regions like MiniWeather). The region must resolve to
// the surrogate path: collection-mode regions, false predicates, and
// false if() clauses are rejected, since their accurate path cannot be
// batched.
func (r *Region) ExecuteBatch(n int, stage func(i int) error, finish func(i int) error) error {
	return r.ExecuteBatchContext(context.Background(), n, stage, finish)
}

// ExecuteBatchContext is ExecuteBatch with a caller-supplied context,
// which flows through the engine to the backend exactly as in
// ExecuteContext. Without an accurate callback a batched engine failure
// always propagates and a trust gate is advisory: every invocation
// keeps the surrogate's output while the counters record the gate's
// verdicts. ExecuteBatchRouted is the same loop with an accurate path
// to route rejected invocations and engine failures to.
func (r *Region) ExecuteBatchContext(ctx context.Context, n int, stage func(i int) error, finish func(i int) error) error {
	return r.executeBatch(ctx, n, stage, nil, finish, true)
}

// executeBatch is the one inference loop behind Execute and the
// ExecuteBatch entry points: stage and gather every invocation into one
// staging tensor, run the engine once, then scatter and finish
// invocation by invocation. accurate == nil is the advisory policy (keep
// every invocation, count each block's verdicts, propagate engine
// errors); with accurate, a block with a rejected row goes through
// routeInvocationAccurate, and a failure of a fallback-policy engine, or
// of any engine under a trust(...) clause, degrades the whole batch to
// the accurate path.
//
// batched is false only for Execute, which has already resolved the
// region's path and counted its invocation: its engine time then lands
// in Stats.Inference and the batch counters stay untouched.
func (r *Region) executeBatch(ctx context.Context, n int, stage, accurate, finish func(i int) error, batched bool) error {
	if r.closed {
		return fmt.Errorf("hpacml: region %q used after Close", r.name)
	}
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if batched {
		p, err := r.resolvePath()
		switch {
		case err != nil:
			return err
		case p == pathAccurate:
			return fmt.Errorf("hpacml: ExecuteBatch in region %q: if() clause is false; batching requires the surrogate path", r.name)
		case p == pathCollect && r.ml.Mode == directive.Predicated:
			return fmt.Errorf("hpacml: ExecuteBatch in region %q: predicate selects collection; batching requires inference", r.name)
		case p == pathCollect:
			return fmt.Errorf("hpacml: ExecuteBatch in region %q: region is in collection mode", r.name)
		}
	}
	if err := r.ensureEngine(); err != nil {
		return err
	}
	if err := r.ensureTrust(); err != nil {
		return err
	}
	// A trust-gated region falls back on engine failure like a
	// FallbackEngine does: its accurate path is already in hand.
	engineFailed := func(err error) error {
		if accurate != nil && (r.engineFallback || r.ml.Trust != nil) {
			return r.degradeBatch(n, stage, accurate, finish, batched)
		}
		return fmt.Errorf("hpacml: inference in region %q: %w", r.name, err)
	}
	engineTime := &r.stats.Inference
	if batched {
		engineTime = &r.stats.BatchInference
	}
	if err := r.warmEngine(ctx); err != nil {
		return engineFailed(err)
	}
	bs, err := r.batchStaging(n)
	if err != nil {
		return err
	}

	for i := 0; i < n; i++ {
		if stage != nil {
			if err := stage(i); err != nil {
				return fmt.Errorf("hpacml: batch stage %d in region %q: %w", i, r.name, err)
			}
		}
		start := time.Now()
		err = runStagers(bs.inSt[i], (*bridge.Stager).Gather)
		r.stats.ToTensor += time.Since(start)
		if err != nil {
			return err
		}
	}

	start := time.Now()
	if bs.y == nil {
		outShape, oerr := r.engine.OutputShape(bs.x.Shape())
		if oerr != nil {
			*engineTime += time.Since(start)
			return engineFailed(oerr)
		}
		if err := r.buildBatchOutput(bs, tensor.New(outShape...), n); err != nil {
			*engineTime += time.Since(start)
			return err
		}
	}
	err = r.engine.Infer(ctx, bs.x, bs.y)
	var rep *trustReport
	if err == nil {
		rep, err = r.judge(bs.x)
	}
	*engineTime += time.Since(start)
	if err != nil {
		bs.y, bs.outSt = nil, nil
		return engineFailed(err)
	}

	per := inputRows(bs.x) / n
	if batched {
		r.stats.Invocations += n
		r.stats.Batches++
	}
	for i := 0; i < n; i++ {
		lo, hi := i*per, (i+1)*per
		if rep != nil && accurate != nil && rep.anyUntrusted(lo, hi) {
			r.countTrust(rep, lo, hi, false)
			if err := r.routeInvocationAccurate(i, stage, accurate, finish); err != nil {
				return err
			}
			continue
		}
		start := time.Now()
		err = runStagers(bs.outSt[i], (*bridge.Stager).Scatter)
		r.stats.FromTensor += time.Since(start)
		if err != nil {
			return err
		}
		r.stats.Inferences++
		if batched {
			r.stats.BatchedInvocations++
		}
		if r.engineRemote {
			r.stats.RemoteInference++
		}
		if rep != nil {
			r.countTrust(rep, lo, hi, true)
		} else {
			r.stats.TrustedRows += per
		}
		if finish != nil {
			if err := finish(i); err != nil {
				return fmt.Errorf("hpacml: batch finish %d in region %q: %w", i, r.name, err)
			}
		}
	}
	return nil
}

// batchStaging returns the cached staging for batch size n, building it
// on first use: the batched input tensor and each invocation's gather
// stagers, bound to its row block. The cache keeps one batchState per
// size, so an application loop alternating between its chunk size and a
// tail size pays the build once per size, not once per size change.
// Past maxBatchStates sizes an arbitrary entry is evicted, costing at
// most one rebuild for that size later.
func (r *Region) batchStaging(n int) (*batchState, error) {
	if bs := r.batches[n]; bs != nil {
		return bs, nil
	}
	shape, err := r.InputShape()
	if err != nil {
		return nil, err
	}
	per := shape[0]
	x := tensor.New(append([]int{n * per}, shape[1:]...)...)
	bs := &batchState{x: x, inSt: make([][]*bridge.Stager, n)}
	for i := range bs.inSt {
		block, err := x.Narrow(0, i*per, per)
		if err != nil {
			return nil, err
		}
		if bs.inSt[i], err = bindStagers(r.inPlans, r.inLayout, block); err != nil {
			return nil, err
		}
	}
	if r.batches == nil {
		r.batches = make(map[int]*batchState)
	}
	if len(r.batches) >= maxBatchStates {
		for k := range r.batches {
			delete(r.batches, k)
			break
		}
	}
	r.batches[n] = bs
	return bs, nil
}

// buildBatchOutput caches the first batched model output of a batch size:
// it validates that y splits evenly into n per-invocation row blocks and
// binds each block's scatter stagers.
func (r *Region) buildBatchOutput(bs *batchState, y *tensor.Tensor, n int) error {
	if y.Rank() < 1 || y.Dim(0)%n != 0 {
		return fmt.Errorf("hpacml: batched model output %v in region %q does not split into %d invocations",
			y.Shape(), r.name, n)
	}
	outPer := y.Dim(0) / n
	outSt := make([][]*bridge.Stager, n)
	for i := range outSt {
		view, err := y.Narrow(0, i*outPer, outPer)
		if err != nil {
			return err
		}
		if outSt[i], err = bindStagers(r.outPlans, r.outLayout, view); err != nil {
			return fmt.Errorf("hpacml: model output in region %q: %w", r.name, err)
		}
	}
	bs.y, bs.outSt = y, outSt
	return nil
}

// Engine returns the region's surrogate-execution engine, or nil when
// none has been resolved yet (no inference has run and none was
// injected with WithEngine).
func (r *Region) Engine() Engine { return r.engine }

// InvalidateModel forces the next inference to re-resolve the model
// from its source of truth — for the default local engine, re-reading
// the .gmod from disk (e.g. after a new training round wrote the file).
// Cached output buffers are model-dependent and dropped with it.
func (r *Region) InvalidateModel() {
	r.warmed = false
	if rf, ok := r.engine.(refresher); ok {
		rf.Refresh()
	}
	for _, bs := range r.batches {
		bs.y, bs.outSt = nil, nil
	}
	if inv, ok := r.engine.(invalidator); ok {
		inv.Invalidate()
		return
	}
	// No engine resolved yet: evict the shared cache entry directly so
	// the eventual local engine re-reads disk, as before.
	if r.engine == nil && r.ml.Model != "" && !directive.IsRemoteModel(r.ml.Model) {
		modelCache.Delete(r.ml.Model)
	}
}

// Flush is a capture barrier: it returns once every record captured so
// far is durably with the backend (written and flushed for the local
// sink, acknowledged by the server for the remote one), reporting any
// asynchronous write failure. A no-op before the first collection.
func (r *Region) Flush() error {
	if r.sink != nil {
		return r.sink.Flush()
	}
	return nil
}

// Close drains, flushes, and releases the capture sink the region
// built for itself (an injected sink is flushed but stays open — it is
// the caller's, possibly shared across regions), and releases the
// engine the region built for itself (injected engines likewise stay
// the caller's). Running Close even on error paths is what guarantees
// a lazily-opened capture pipeline never silently truncates records:
// every captured record is either durable or reported here. The region
// must not be executed afterwards; Close is idempotent and
// CaptureStats stays readable after it.
func (r *Region) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	var firstErr error
	if r.sink != nil {
		var err error
		if r.sinkOwned {
			err = r.sink.Close()
		} else {
			err = r.sink.Flush()
		}
		if err != nil {
			firstErr = err
		}
	}
	if r.engineOwned {
		if c, ok := r.engine.(io.Closer); ok {
			if err := c.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}
