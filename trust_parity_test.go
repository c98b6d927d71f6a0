// Clause-driven trust parity: a region annotated with
// trust(var:V, domain:on) gates every entry point the same way. The
// guardrail is the .guard sidecar beside the model() path and the
// variance comes from the injected engine, so nothing but the
// annotation configures the gates. Each case pins the outputs and
// every Stats counter.
package hpacml_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	hpacml "repro"

	"repro/internal/tensor"
)

// varianceStub maps each input row (a, b) to 10a + b and reports b as
// the row's predictive variance; down makes every inference fail.
type varianceStub struct {
	rowVar []float64
	down   bool
}

func (e *varianceStub) Infer(ctx context.Context, in, out *tensor.Tensor) error {
	if e.down {
		return errEngineDown
	}
	x, y := in.Data(), out.Data()
	e.rowVar = e.rowVar[:0]
	for r := range y {
		y[r] = 10*x[2*r] + x[2*r+1]
		e.rowVar = append(e.rowVar, x[2*r+1])
	}
	return nil
}
func (e *varianceStub) OutputShape(in []int) ([]int, error)             { return []int{in[0], 1}, nil }
func (e *varianceStub) Warmup(ctx context.Context, inShape []int) error { return nil }
func (e *varianceStub) RowVariance() []float64                          { return e.rowVar }

// gatedRegion builds a one-row region under trust(var:0.5, domain:on)
// whose model() path has a guardrail sidecar of the envelope
// [0,1] x [0,1] beside it. sink may be nil.
func gatedRegion(t *testing.T, x, y []float64, e hpacml.Engine, sink hpacml.Sink) *hpacml.Region {
	t.Helper()
	model := filepath.Join(t.TempDir(), "m.gmod")
	g := &hpacml.Guardrail{Lo: []float64{0, 0}, Hi: []float64{1, 1}}
	if err := g.Save(hpacml.GuardrailPath(model)); err != nil {
		t.Fatal(err)
	}
	opts := []hpacml.Option{
		hpacml.Directives(fmt.Sprintf(`
tensor functor(vin: [i, 0:2] = ([0:2]))
tensor functor(vout: [i, 0:1] = ([0:1]))
tensor map(to: vin(x[0:1]))
tensor map(from: vout(y[0:1]))
ml(infer) in(x) out(y) model(%q) trust(var:0.5, domain:on)
`, model)),
		hpacml.BindArray("x", x, 2),
		hpacml.BindArray("y", y, 1),
		hpacml.WithEngine(e),
	}
	if sink != nil {
		opts = append(opts, hpacml.WithSink(sink))
	}
	r, err := hpacml.NewRegion("gated", opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// countersOnly returns s with its timings zeroed, so whole Stats values
// compare on their counters alone.
func countersOnly(s hpacml.Stats) hpacml.Stats {
	s.ToTensor, s.Inference, s.FromTensor = 0, 0, 0
	s.Accurate, s.DBWrite, s.BatchInference = 0, 0, 0
	return s
}

// TestTrustClauseParity runs four one-row invocations, one per verdict
// pattern, through every entry point with and without a capture sink:
//
//	0: (0.5, 0.25) clean          surrogate 5.25
//	1: (3, 0.25)   out of domain  surrogate 30.25
//	2: (0.5, 0.75) uncertain      surrogate 5.75
//	3: (3, 0.75)   both; the domain verdict wins
//
// The accurate path writes -(i+1), so every finished invocation says
// which path served it.
func TestTrustClauseParity(t *testing.T) {
	inputs := [][]float64{{0.5, 0.25}, {3, 0.25}, {0.5, 0.75}, {3, 0.75}}
	surrogate := []float64{5.25, 30.25, 5.75, 30.75}
	routedY := []float64{5.25, -2, -3, -4}
	accurateY := []float64{-1, -2, -3, -4}
	n := len(inputs)

	// recaptured is how many invocations a routed entry point sends to
	// the accurate path and, with a sink, recaptures.
	const recaptured = 3
	verdicts := hpacml.Stats{TrustedRows: 1, OutOfDomainRows: 2, UncertainRows: 1}
	with := func(s hpacml.Stats, f func(*hpacml.Stats)) hpacml.Stats { f(&s); return s }

	cases := []struct {
		name  string
		down  bool
		entry string
		// want is the expected Stats without a sink; a sink adds
		// Collections = collected.
		want      hpacml.Stats
		collected int
		wantY     []float64
		wantErr   bool
	}{
		{
			name: "execute", entry: "execute",
			want: with(verdicts, func(s *hpacml.Stats) {
				s.Invocations, s.Inferences, s.AccurateRuns = n, 1, recaptured
			}),
			collected: recaptured,
			wantY:     routedY,
		},
		{
			name: "execute-nil", entry: "execute-nil",
			want:  with(verdicts, func(s *hpacml.Stats) { s.Invocations, s.Inferences = n, n }),
			wantY: surrogate,
		},
		{
			name: "batch", entry: "batch",
			want: with(verdicts, func(s *hpacml.Stats) {
				s.Invocations, s.Inferences, s.Batches, s.BatchedInvocations = n, n, 1, n
			}),
			wantY: surrogate,
		},
		{
			name: "routed", entry: "routed",
			want: with(verdicts, func(s *hpacml.Stats) {
				s.Invocations, s.Inferences, s.Batches, s.BatchedInvocations = n, 1, 1, 1
				s.AccurateRuns = recaptured
			}),
			collected: recaptured,
			wantY:     routedY,
		},
		{
			// A gated region keeps its accurate fallback on engine
			// failure; fallbacks are not recaptured.
			name: "down/execute", down: true, entry: "execute",
			want:  hpacml.Stats{Invocations: n, AccurateRuns: n, Fallbacks: n},
			wantY: accurateY,
		},
		{
			name: "down/execute-nil", down: true, entry: "execute-nil",
			want:    hpacml.Stats{Invocations: 1},
			wantErr: true,
		},
		{
			name: "down/batch", down: true, entry: "batch",
			wantErr: true,
		},
		{
			name: "down/routed", down: true, entry: "routed",
			want:  hpacml.Stats{Invocations: n, AccurateRuns: n, Fallbacks: n},
			wantY: accurateY,
		},
	}

	for _, tc := range cases {
		for _, withSink := range []bool{false, true} {
			name := tc.name + "/no-sink"
			if withSink {
				name = tc.name + "/sink"
			}
			t.Run(name, func(t *testing.T) {
				x := make([]float64, 2)
				y := make([]float64, 1)
				var sink *countSink
				var s hpacml.Sink
				if withSink {
					sink = &countSink{}
					s = sink
				}
				r := gatedRegion(t, x, y, &varianceStub{down: tc.down}, s)

				stage := func(i int) error { copy(x, inputs[i]); y[0] = 0; return nil }
				accurate := func(i int) error { y[0] = -float64(i + 1); return nil }
				var got []float64
				finish := func(i int) error { got = append(got, y[0]); return nil }

				var err error
				switch tc.entry {
				case "execute", "execute-nil":
					for i := 0; i < n && err == nil; i++ {
						stage(i)
						var acc func() error
						if tc.entry == "execute" {
							acc = func() error { return accurate(i) }
						}
						if err = r.Execute(acc); err == nil {
							finish(i)
						}
					}
				case "batch":
					err = r.ExecuteBatch(n, stage, finish)
				case "routed":
					err = r.ExecuteBatchRouted(context.Background(), n, stage, accurate, finish)
				}
				if tc.wantErr {
					if !errors.Is(err, errEngineDown) {
						t.Fatalf("err = %v, want one wrapping %v", err, errEngineDown)
					}
				} else if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, tc.wantY) {
					t.Errorf("outputs %v, want %v", got, tc.wantY)
				}
				want := tc.want
				if withSink {
					want.Collections = tc.collected
					if sink.n != tc.collected {
						t.Errorf("sink saw %d captures, want %d", sink.n, tc.collected)
					}
				}
				if c := countersOnly(r.Stats()); c != want {
					t.Errorf("counters\n got %+v\nwant %+v", c, want)
				}
			})
		}
	}
}
