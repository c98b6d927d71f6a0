package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serveapi"
)

// Span names. The benchmark records spans from outside the program, at
// the calls into each layer; spans inside the program are a later
// change.
const (
	spanInferMatrix = "serveclient.infer_matrix" // root: one Client.InferMatrix call
	spanHandler     = "serve.handler"            // child: the server's http.Handler
	spanExecute     = "hpacml.execute"           // root: one Region.Execute call
	spanAccurate    = "app.accurate"             // child: the accurate closure in collection mode
)

// span is one recorded interval. ID is its index+1 in the tracer, so 0
// means "no parent". Times are nanoseconds since the tracer started.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"`
	Workload  string `json:"workload"`
	Name      string `json:"name"`
	RequestID string `json:"request_id,omitempty"`
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark ends. One tracer
// serves one workload's traced round; begin and end are safe for
// concurrent callers.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
	roots map[string]int // request id -> root span id
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), roots: make(map[string]int)}
}

// begin opens a span. A root span (parent 0) with a request id
// registers itself so the server-side span of the same request can find
// it with parentOf.
func (t *tracer) begin(name string, parent int, rid string) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload, Name: name, RequestID: rid, Start: now})
	if parent == 0 && rid != "" {
		t.roots[rid] = id
	}
	return id
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *tracer) parentOf(rid string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.roots[rid]
}

// spanTotals is one span name's aggregate over a trace.
type spanTotals struct {
	count int
	total time.Duration   // sum of durations
	self  time.Duration   // sum of durations minus the part children cover
	durs  []time.Duration // per span, for percentiles
}

// aggregate folds spans by name. A span's self time is its duration
// minus its children's; children of one parent here never overlap each
// other (a request has one handler span, an execute one accurate span),
// so subtracting their durations is subtracting the interval they
// cover. By construction the self times of a tree sum to its root.
func aggregate(spans []span) map[string]*spanTotals {
	child := make(map[int]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	out := make(map[string]*spanTotals)
	for _, s := range spans {
		a := out[s.Name]
		if a == nil {
			a = &spanTotals{}
			out[s.Name] = a
		}
		d := time.Duration(s.End - s.Start)
		a.count++
		a.total += d
		a.self += d - child[s.ID]
		a.durs = append(a.durs, d)
	}
	return out
}

func (a *spanTotals) p50us() float64 {
	v := make([]float64, len(a.durs))
	for i, d := range a.durs {
		v[i] = float64(d) / 1e3
	}
	return median(v)
}

// traceSwitch routes the server-side middleware to the tracer of the
// round in flight; nil (every untraced round) makes it a pass-through.
type traceSwitch struct{ cur atomic.Pointer[tracer] }

// middleware wraps the serve handler in the benchmark's own
// serve.handler span, joined to the client's root span by X-Request-ID.
func (sw *traceSwitch) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := sw.cur.Load()
		if t == nil {
			next.ServeHTTP(w, r)
			return
		}
		rid := r.Header.Get(serveapi.HeaderRequestID)
		id := t.begin(spanHandler, t.parentOf(rid), rid)
		next.ServeHTTP(w, r)
		t.end(id)
	})
}

func writeTrace(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
