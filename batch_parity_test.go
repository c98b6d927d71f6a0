// Parity tests for the region's inference entry points. ExecuteBatch,
// ExecuteBatchRouted and Execute share one gather -> infer -> scatter
// loop and differ only in what a rejected block or a failed engine does:
// without an accurate callback the trust gate is advisory and engine
// errors propagate; with one, rejected blocks are recomputed and
// recaptured and a failed engine in a region whose model() is a URI
// degrades to the accurate path. Gated cases are annotated with
// trust(var:1, domain:on) over a .guard sidecar beside the model()
// path. Each case pins the outputs and every Stats counter.
package hpacml_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	hpacml "repro"

	"repro/internal/tensor"
)

// reportEngine maps each input row (a, b) to 10a + b and reports a
// preset per-row predictive variance.
type reportEngine struct{ rowVar []float64 }

func (e *reportEngine) Infer(ctx context.Context, in, out *tensor.Tensor) error {
	x, y := in.Data(), out.Data()
	for r := range y {
		y[r] = 10*x[2*r] + x[2*r+1]
	}
	return nil
}
func (e *reportEngine) OutputShape(in []int) ([]int, error)             { return []int{in[0], 1}, nil }
func (e *reportEngine) Warmup(ctx context.Context, inShape []int) error { return nil }
func (e *reportEngine) RowVariance() []float64                          { return e.rowVar }

// deadURI is the model() clause of the fallback cases: a URI makes the
// region fall back on engine failure. The injected engine serves it, so
// nothing listens there.
const deadURI = "http://127.0.0.1:1/parity"

// errEngineDown is the error every downEngine inference returns.
var errEngineDown = errors.New("engine down")

// downEngine warms up but fails every inference.
type downEngine struct{}

func (downEngine) Infer(ctx context.Context, in, out *tensor.Tensor) error {
	return errEngineDown
}
func (downEngine) OutputShape(in []int) ([]int, error)             { return []int{in[0], 1}, nil }
func (downEngine) Warmup(ctx context.Context, inShape []int) error { return nil }

// countSink accepts captures and counts them.
type countSink struct{ n int }

func (s *countSink) Capture(*hpacml.CaptureRecord) error { s.n++; return nil }
func (s *countSink) Flush() error                        { return nil }
func (s *countSink) Close() error                        { return nil }

// batchCounters is every Stats counter the batch loop touches.
type batchCounters struct {
	Invocations, Inferences, Batches, BatchedInvocations int
	TrustedRows, UncertainRows, OutOfDomainRows          int
	AccurateRuns, Fallbacks, Collections                 int
}

func countersOf(s hpacml.Stats) batchCounters {
	return batchCounters{
		Invocations: s.Invocations, Inferences: s.Inferences, Batches: s.Batches,
		BatchedInvocations: s.BatchedInvocations, TrustedRows: s.TrustedRows,
		UncertainRows: s.UncertainRows, OutOfDomainRows: s.OutOfDomainRows,
		AccurateRuns: s.AccurateRuns, Fallbacks: s.Fallbacks, Collections: s.Collections,
	}
}

// rowVariance returns rows variances of 0, with the listed rows at 9:
// above the parity regions' var:1 threshold.
func rowVariance(rows int, uncertain ...int) []float64 {
	v := make([]float64, rows)
	for _, r := range uncertain {
		v[r] = 9
	}
	return v
}

// box is the guardrail envelope a <= a' <= a2, b <= b' <= b2 over the
// (a, b) input rows.
func box(a, a2, b, b2 float64) *hpacml.Guardrail {
	return &hpacml.Guardrail{Lo: []float64{a, b}, Hi: []float64{a2, b2}}
}

// TestBatchEntryPointParity runs three invocations of two rows each
// (block i is rows 2i, 2i+1: (i, 1) and (i, 2)) through both entry
// points; gated cases carry a guardrail and the engine's variances. Surrogate
// outputs for invocation i are {10i+1, 10i+2}; the accurate path writes
// their negatives, so every finished invocation says which path served it.
func TestBatchEntryPointParity(t *testing.T) {
	const n = 3
	sur := func(i int) []float64 { return []float64{float64(10*i + 1), float64(10*i + 2)} }
	acc := func(i int) []float64 { return []float64{-float64(10*i + 1), -float64(10*i + 2)} }
	all := [][]float64{sur(0), sur(1), sur(2)}

	cases := []struct {
		name     string
		engine   func() hpacml.Engine
		guard    *hpacml.Guardrail // nil: ungated
		model    string            // model() of an ungated region; "" for none
		advisory batchCounters
		advErr   bool
		routed   batchCounters
		routedY  [][]float64
	}{
		{
			name:     "ungated",
			engine:   func() hpacml.Engine { return &reportEngine{} },
			advisory: batchCounters{Invocations: 3, Inferences: 3, Batches: 1, BatchedInvocations: 3, TrustedRows: 6},
			routed:   batchCounters{Invocations: 3, Inferences: 3, Batches: 1, BatchedInvocations: 3, TrustedRows: 6},
			routedY:  all,
		},
		{
			name:     "gated-clean",
			engine:   func() hpacml.Engine { return &reportEngine{rowVar: rowVariance(6)} },
			guard:    box(0, 2, 0, 2),
			advisory: batchCounters{Invocations: 3, Inferences: 3, Batches: 1, BatchedInvocations: 3, TrustedRows: 6},
			routed:   batchCounters{Invocations: 3, Inferences: 3, Batches: 1, BatchedInvocations: 3, TrustedRows: 6},
			routedY:  all,
		},
		{
			// Rows 0, 1, 4 and 5 (a = 0 and a = 2) fall outside the
			// envelope; row 4 trips both gates and counts once, as
			// out-of-domain.
			name:     "ood",
			engine:   func() hpacml.Engine { return &reportEngine{rowVar: rowVariance(6, 4)} },
			guard:    box(0.5, 1.5, 0, 2),
			advisory: batchCounters{Invocations: 3, Inferences: 3, Batches: 1, BatchedInvocations: 3, TrustedRows: 2, OutOfDomainRows: 4},
			routed: batchCounters{Invocations: 3, Inferences: 1, Batches: 1, BatchedInvocations: 1, TrustedRows: 2,
				OutOfDomainRows: 4, AccurateRuns: 2, Collections: 2},
			routedY: [][]float64{acc(0), sur(1), acc(2)},
		},
		{
			name:     "uncertain",
			engine:   func() hpacml.Engine { return &reportEngine{rowVar: rowVariance(6, 3)} },
			guard:    box(0, 2, 0, 2),
			advisory: batchCounters{Invocations: 3, Inferences: 3, Batches: 1, BatchedInvocations: 3, TrustedRows: 5, UncertainRows: 1},
			routed: batchCounters{Invocations: 3, Inferences: 2, Batches: 1, BatchedInvocations: 2, TrustedRows: 4,
				UncertainRows: 1, AccurateRuns: 1, Collections: 1},
			routedY: [][]float64{sur(0), acc(1), sur(2)},
		},
		{
			name:    "engine-fails",
			engine:  func() hpacml.Engine { return downEngine{} },
			model:   deadURI,
			advErr:  true,
			routed:  batchCounters{Invocations: 3, AccurateRuns: 3, Fallbacks: 3},
			routedY: [][]float64{acc(0), acc(1), acc(2)},
		},
	}

	for _, tc := range cases {
		for _, routed := range []bool{false, true} {
			name := tc.name + "/advisory"
			if routed {
				name = tc.name + "/routed"
			}
			t.Run(name, func(t *testing.T) {
				x := make([]float64, 4)
				y := make([]float64, 2)
				sink := &countSink{}
				r := parityRegion(t, x, y, tc.engine(), sink, tc.guard, tc.model)

				stage := func(i int) error {
					copy(x, []float64{float64(i), 1, float64(i), 2})
					copy(y, []float64{0, 0})
					return nil
				}
				accurate := func(i int) error { copy(y, acc(i)); return nil }
				var got [][]float64
				finish := func(i int) error { got = append(got, append([]float64(nil), y...)); return nil }

				want, wantY, wantErr := tc.advisory, all, tc.advErr
				var err error
				if routed {
					err = r.ExecuteBatchRouted(context.Background(), n, stage, accurate, finish)
					want, wantY, wantErr = tc.routed, tc.routedY, false
				} else {
					err = r.ExecuteBatch(n, stage, finish)
				}
				if wantErr {
					if err == nil {
						t.Fatal("engine failure must propagate without an accurate callback")
					}
					wantY = nil
				} else if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, wantY) {
					t.Errorf("outputs %v, want %v", got, wantY)
				}
				if c := countersOf(r.Stats()); c != want {
					t.Errorf("counters\n got %+v\nwant %+v", c, want)
				}
				if sink.n != want.Collections {
					t.Errorf("sink saw %d captures, want %d", sink.n, want.Collections)
				}
			})
		}
	}
	t.Run("execute", testExecuteParity)
}

// parityRegion builds the two-row region both parity tests drive: one
// invocation gathers x's two (a, b) pairs and scatters y's two entries.
// A non-nil guard gates the region with trust(var:1, domain:on), guard
// saved as the sidecar of its model() path; otherwise a non-empty model
// is the region's model() clause.
func parityRegion(t *testing.T, x, y []float64, e hpacml.Engine, sink hpacml.Sink, guard *hpacml.Guardrail, model string) *hpacml.Region {
	t.Helper()
	ml := "ml(infer) in(x) out(y)"
	switch {
	case guard != nil:
		ml += fmt.Sprintf(" model(%q) trust(var:1, domain:on)", guardedModel(t, guard))
	case model != "":
		ml += fmt.Sprintf(" model(%q)", model)
	}
	r, err := hpacml.NewRegion("parity",
		hpacml.Directives(`
tensor functor(vin: [i, 0:2] = ([i*2:i*2+2]))
tensor functor(vout: [i, 0:1] = ([i:i+1]))
tensor map(to: vin(x[0:2]))
tensor map(from: vout(y[0:2]))
`+ml),
		hpacml.BindArray("x", x, 4),
		hpacml.BindArray("y", y, 2),
		hpacml.WithEngine(e),
		hpacml.WithSink(sink),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// testExecuteParity pins the single-invocation entry point on the same
// region: Execute(nil) is advisory, Execute(accurate) routes a rejected
// invocation, and a failed engine under a URI model(), to the accurate
// path.
// Engine time lands in Stats.Inference, never BatchInference, and no
// batch counter moves.
func testExecuteParity(t *testing.T) {
	sur, acc := []float64{1, 2}, []float64{-1, -2}
	cases := []struct {
		name   string
		engine func() hpacml.Engine
		guard  *hpacml.Guardrail // nil: ungated
		model  string            // model() of an ungated region; "" for none
		// served says the engine answered, so engine time was recorded.
		served   bool
		advisory batchCounters
		advY     []float64
		advErr   bool
		routed   batchCounters
		routedY  []float64
		routeErr bool
	}{
		{
			name:     "ungated",
			engine:   func() hpacml.Engine { return &reportEngine{} },
			served:   true,
			advisory: batchCounters{Invocations: 1, Inferences: 1, TrustedRows: 2},
			advY:     sur,
			routed:   batchCounters{Invocations: 1, Inferences: 1, TrustedRows: 2},
			routedY:  sur,
		},
		{
			// Advisory keeps the surrogate's rows; routed recomputes the
			// invocation and recaptures it.
			name:     "reject",
			engine:   func() hpacml.Engine { return &reportEngine{rowVar: rowVariance(2)} },
			guard:    box(0, 2, 0, 1.5), // row (0, 2) is out of domain
			served:   true,
			advisory: batchCounters{Invocations: 1, Inferences: 1, TrustedRows: 1, OutOfDomainRows: 1},
			advY:     sur,
			routed:   batchCounters{Invocations: 1, OutOfDomainRows: 1, AccurateRuns: 1, Collections: 1},
			routedY:  acc,
		},
		{
			name:     "engine-down-fallback",
			engine:   func() hpacml.Engine { return downEngine{} },
			model:    deadURI,
			advisory: batchCounters{Invocations: 1},
			advY:     []float64{0, 0},
			advErr:   true,
			routed:   batchCounters{Invocations: 1, AccurateRuns: 1, Fallbacks: 1},
			routedY:  acc,
		},
		{
			name:     "engine-down",
			engine:   func() hpacml.Engine { return downEngine{} },
			advisory: batchCounters{Invocations: 1},
			advY:     []float64{0, 0},
			advErr:   true,
			routed:   batchCounters{Invocations: 1},
			routedY:  []float64{0, 0},
			routeErr: true,
		},
	}

	for _, tc := range cases {
		for _, routed := range []bool{false, true} {
			name := tc.name + "/nil"
			if routed {
				name = tc.name + "/accurate"
			}
			t.Run(name, func(t *testing.T) {
				x := []float64{0, 1, 0, 2}
				y := make([]float64, 2)
				sink := &countSink{}
				r := parityRegion(t, x, y, tc.engine(), sink, tc.guard, tc.model)

				want, wantY, wantErr := tc.advisory, tc.advY, tc.advErr
				var accurate func() error
				if routed {
					accurate = func() error { copy(y, acc); return nil }
					want, wantY, wantErr = tc.routed, tc.routedY, tc.routeErr
				}
				err := r.Execute(accurate)
				if wantErr {
					if !errors.Is(err, errEngineDown) {
						t.Fatalf("err = %v, want one wrapping %v", err, errEngineDown)
					}
				} else if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(y, wantY) {
					t.Errorf("outputs %v, want %v", y, wantY)
				}
				st := r.Stats()
				if c := countersOf(st); c != want {
					t.Errorf("counters\n got %+v\nwant %+v", c, want)
				}
				if sink.n != want.Collections {
					t.Errorf("sink saw %d captures, want %d", sink.n, want.Collections)
				}
				if st.BatchInference != 0 || (tc.served && st.Inference <= 0) {
					t.Errorf("engine time Inference=%v BatchInference=%v, want it all in Inference", st.Inference, st.BatchInference)
				}
			})
		}
	}
}
