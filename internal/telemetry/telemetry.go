// Package telemetry is the repo's dependency-free metrics kernel: a
// registry of counters, gauges, and fixed-bucket histograms — plain
// and labeled — whose record path is a handful of atomic operations
// with zero steady-state allocations, plus Prometheus text-format
// exposition so any scraper can watch a long-running surrogate service
// from the outside.
//
// The design splits hot from cold deliberately:
//
//   - Recording (Counter.Inc, Gauge.Set, Histogram.Observe) touches
//     only pre-resolved atomics. Callers on a hot path resolve labeled
//     children once (Vec.With) and hold the handles; nothing on the
//     record path locks, formats, or allocates. A test pins the
//     zero-allocation property with testing.AllocsPerRun and the
//     benchmarks measure the per-op cost.
//   - Registration and label-child creation take the registry or vec
//     lock and may allocate; both happen at startup or on the first
//     sight of a label combination, never per event.
//   - Scraping (WritePrometheus / Handler) renders every family into a
//     caller-supplied buffer with strconv appends — pooled by Handler,
//     so steady scrape traffic reuses one buffer instead of rebuilding
//     the world each time.
//
// Values that already live elsewhere (queue lengths, accumulated
// runtime counters) bridge in through func-backed families
// (CounterFunc / GaugeFunc): the callback emits samples only when a
// scrape happens, so mirroring an existing subsystem costs nothing
// between scrapes.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's type as exposition reports it.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing value. The zero value is ready
// to use, but counters are normally created through a Registry so they
// appear in exposition.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Counters only go up; deltas are uint64 by construction.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down, stored as float64 bits in
// one atomic word.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add moves the gauge by delta (negative to decrease) with a CAS loop,
// so concurrent adders never lose an update.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Each bucket's
// upper bound is inclusive (Prometheus "le" semantics): an observation
// equal to a bound lands in that bound's bucket. Observations above
// the last bound land in the implicit +Inf bucket. The sum of
// observed values is kept alongside, so scrapers can derive rates and
// means without the raw samples.
type Histogram struct {
	bounds  []float64 // sorted, strictly increasing upper bounds
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value: a linear scan over the (small, fixed)
// bound slice, two atomic adds, and a CAS loop for the sum — no
// allocation, no lock.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n observations of the same value at the cost of
// one: count and bucket advance by n, the sum by n*v. A batch that
// serves n rows with one shared wait records it per row this way, so a
// per-row histogram keeps its meaning without a per-row loop.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if n == 0 {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(n)
	h.count.Add(n)
	add := v * float64(n)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+add)) {
			return
		}
	}
}

// Count returns how many values have been observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshotInto appends the cumulative bucket counts (ending with the
// +Inf bucket) to dst. Concurrent Observes may land between bucket
// reads — each bucket is exact, the view across them is eventually
// consistent, which is what a scrape needs.
func (h *Histogram) snapshotInto(dst []uint64) []uint64 {
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		dst = append(dst, cum)
	}
	return dst
}

// LinearBuckets returns n bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = start + float64(i)*width
	}
	return b
}

// ExpBuckets returns n bounds start, start*factor, start*factor², ...
func ExpBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// DefaultLatencyBuckets spans 100µs to ~100s in powers of ~3 — wide
// enough for both a coalesced micro-batch wait and a pathological
// stall, in seconds (the base unit every *_seconds metric uses).
var DefaultLatencyBuckets = []float64{
	1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1, 3, 10, 30, 100,
}

// Emit publishes one sample from a func-backed family during a scrape.
// labelValues must match the family's label names positionally.
type Emit func(value float64, labelValues ...string)

// family is one named metric with all its labeled children.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64 // histogram families only

	mu       sync.RWMutex
	children map[string]any // label-values key -> *Counter / *Gauge / *Histogram
	order    []string       // sorted keys, maintained on insert (cold path)
	keyVals  map[string][]string

	collect func(Emit) // func-backed families; children stay empty
}

// child returns (creating on first sight) the labeled child for vals.
func (f *family) child(vals []string) any {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d", f.name, len(f.labels), len(vals)))
	}
	key := strings.Join(vals, "\xff")
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	switch f.kind {
	case KindCounter:
		c = new(Counter)
	case KindGauge:
		c = new(Gauge)
	case KindHistogram:
		c = &Histogram{bounds: f.bounds, buckets: make([]atomic.Uint64, len(f.bounds)+1)}
	}
	f.children[key] = c
	i := sort.SearchStrings(f.order, key)
	f.order = append(f.order, "")
	copy(f.order[i+1:], f.order[i:])
	f.order[i] = key
	f.keyVals[key] = append([]string(nil), vals...)
	return c
}

// Registry holds metric families and renders them for scraping. The
// zero value is not usable; call NewRegistry. All methods are safe for
// concurrent use.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []string // sorted family names
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register installs a family, panicking on an invalid or duplicate
// name — both are wiring mistakes that must fail at startup, not be
// discovered as a silently missing series.
func (r *Registry) register(f *family) *family {
	if !validName(f.name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !validName(l) {
			panic(fmt.Sprintf("telemetry: metric %q: invalid label name %q", f.name, l))
		}
	}
	if f.kind == KindHistogram {
		for i := 1; i < len(f.bounds); i++ {
			if f.bounds[i] <= f.bounds[i-1] {
				panic(fmt.Sprintf("telemetry: metric %q: bucket bounds must increase strictly, got %v", f.name, f.bounds))
			}
		}
	}
	f.children = make(map[string]any)
	f.keyVals = make(map[string][]string)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic(fmt.Sprintf("telemetry: metric %q registered twice", f.name))
	}
	r.families[f.name] = f
	i := sort.SearchStrings(r.order, f.name)
	r.order = append(r.order, "")
	copy(r.order[i+1:], r.order[i:])
	r.order[i] = f.name
	return f
}

// validName checks the Prometheus identifier grammar
// [a-zA-Z_:][a-zA-Z0-9_:]* for metric and label names.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(&family{name: name, help: help, kind: KindCounter})
	return f.child(nil).(*Counter)
}

// Gauge registers and returns an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(&family{name: name, help: help, kind: KindGauge})
	return f.child(nil).(*Gauge)
}

// Histogram registers and returns an unlabeled histogram over the
// given inclusive upper bounds (strictly increasing; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.register(&family{name: name, help: help, kind: KindHistogram, bounds: bounds})
	return f.child(nil).(*Histogram)
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.register(&family{name: name, help: help, kind: KindCounter, labels: labelNames})}
}

// With resolves the child for the given label values, creating it on
// first sight. Hot paths should call this once and hold the result.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.child(labelValues).(*Counter)
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{r.register(&family{name: name, help: help, kind: KindGauge, labels: labelNames})}
}

// With resolves the child for the given label values (see CounterVec.With).
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.child(labelValues).(*Gauge)
}

// HistogramVec is a histogram family with labels; every child shares
// the family's bucket bounds.
type HistogramVec struct{ f *family }

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{r.register(&family{name: name, help: help, kind: KindHistogram, bounds: bounds, labels: labelNames})}
}

// With resolves the child for the given label values (see CounterVec.With).
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.child(labelValues).(*Histogram)
}

// CounterFunc registers a func-backed counter family: collect runs at
// every scrape and emits the family's current samples. Use it to
// mirror counters that already accumulate elsewhere (region runtime
// stats, ingest totals) without double bookkeeping. collect must not
// register metrics or scrape the same registry.
func (r *Registry) CounterFunc(name, help string, labelNames []string, collect func(Emit)) {
	r.register(&family{name: name, help: help, kind: KindCounter, labels: labelNames, collect: collect})
}

// GaugeFunc registers a func-backed gauge family (see CounterFunc);
// the natural fit for sampled values like queue depths.
func (r *Registry) GaugeFunc(name, help string, labelNames []string, collect func(Emit)) {
	r.register(&family{name: name, help: help, kind: KindGauge, labels: labelNames, collect: collect})
}
