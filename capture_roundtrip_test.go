package hpacml_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	hpacml "repro"

	"repro/internal/tensor"
)

// recordSink keeps every captured record plus a copy of its data taken
// at Capture time, so a test can tell whether the record aliases memory
// the application later overwrites.
type recordSink struct {
	recs        []*hpacml.CaptureRecord
	inAt, outAt [][]float64
}

func (s *recordSink) Capture(rec *hpacml.CaptureRecord) error {
	s.recs = append(s.recs, rec)
	s.inAt = append(s.inAt, rec.Inputs.Clone().Data())
	s.outAt = append(s.outAt, rec.Outputs.Clone().Data())
	return nil
}
func (s *recordSink) Flush() error { return nil }
func (s *recordSink) Close() error { return nil }

// echoEngine replays a collected record: it checks that the staged model
// input equals the record's inputs and emits the record's outputs.
type echoEngine struct{ rec *hpacml.CaptureRecord }

func (e *echoEngine) Infer(ctx context.Context, in, out *tensor.Tensor) error {
	if !sameBits(in.Data(), e.rec.Inputs.Clone().Data()) {
		return fmt.Errorf("staged input %v differs from the collected record %v", in, e.rec.Inputs)
	}
	return tensor.CopyFlat(out, e.rec.Outputs)
}
func (e *echoEngine) OutputShape(in []int) ([]int, error) { return e.rec.Outputs.Shape(), nil }
func (e *echoEngine) Warmup(context.Context, []int) error { return nil }

func sameBits(a, b []float64) bool {
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

// boundArray is one application array a round-trip case binds.
type boundArray struct {
	name  string
	shape []int
}

// TestCaptureRecordRoundTrip collects one invocation, then serves the
// collected record back as the model's answer: every layout must scatter
// it into exactly the application values it was gathered from, or a
// surrogate trained on such records writes scrambled cells.
func TestCaptureRecordRoundTrip(t *testing.T) {
	const N, H, W, C = 6, 3, 4, 2
	cases := []struct {
		name       string
		directives string
		ins, outs  []boundArray
		layout     hpacml.Layout
	}{
		{
			name: "flat-two-from-plans",
			directives: `
tensor functor(ifn: [i, 0:2] = ([i]))
tensor functor(ofn: [i, 0:1] = ([i]))
tensor map(to: ifn(x[0:N], y[0:N]))
tensor map(from: ofn(p[0:N]))
tensor map(from: ofn(q[0:N]))
ml(predicated:useModel) in(x, y) out(p, q)`,
			ins:    []boundArray{{"x", []int{N}}, {"y", []int{N}}},
			outs:   []boundArray{{"p", []int{N}}, {"q", []int{N}}},
			layout: hpacml.LayoutFlat,
		},
		{
			name: "image2d-two-features",
			directives: `
tensor functor(ifn: [i, j, 0:1] = ([i, j]))
tensor functor(ofn: [i, j, 0:2] = ([i, j]))
tensor map(to: ifn(g[0:H, 0:W]))
tensor map(from: ofn(a[0:H, 0:W], b[0:H, 0:W]))
ml(predicated:useModel) in(g) out(a, b)`,
			ins:    []boundArray{{"g", []int{H, W}}},
			outs:   []boundArray{{"a", []int{H, W}}, {"b", []int{H, W}}},
			layout: hpacml.LayoutImage2D,
		},
		{
			name: "channels",
			directives: `
tensor functor(cell: [c, i, j, 0:1] = ([c, i, j]))
tensor map(to: cell(s[0:C, 0:H, 0:W]))
tensor map(from: cell(u[0:C, 0:H, 0:W]))
ml(predicated:useModel) in(s) out(u)`,
			ins:    []boundArray{{"s", []int{C, H, W}}},
			outs:   []boundArray{{"u", []int{C, H, W}}},
			layout: hpacml.LayoutChannels,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			useModel := false
			sink, eng := &recordSink{}, &echoEngine{}
			opts := []hpacml.Option{
				hpacml.Directives(tc.directives),
				hpacml.BindInt("N", N), hpacml.BindInt("H", H), hpacml.BindInt("W", W), hpacml.BindInt("C", C),
				hpacml.InputLayout(tc.layout), hpacml.OutputLayout(tc.layout),
				hpacml.BindPredicate("useModel", func() bool { return useModel }),
				hpacml.WithSink(sink), hpacml.WithEngine(eng),
			}
			arrays := map[string][]float64{}
			for _, a := range append(append([]boundArray(nil), tc.ins...), tc.outs...) {
				arrays[a.name] = make([]float64, tensor.NumElements(a.shape))
				opts = append(opts, hpacml.BindArray(a.name, arrays[a.name], a.shape...))
			}
			// set writes v(a, k) into element k of the a-th listed array.
			set := func(list []boundArray, v func(a, k int) float64) {
				for ai, a := range list {
					for k := range arrays[a.name] {
						arrays[a.name][k] = v(ai, k)
					}
				}
			}
			// Inputs 1000.5, 1001.5, ... and outputs a = 0.., b = 100.., so
			// a misplaced cell is visible in the failure message.
			input := func(a, k int) float64 { return 1000.5 + float64(100*a+k) }
			output := func(a, k int) float64 { return float64(100*a + k) }

			r, err := hpacml.NewRegion(tc.name, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			set(tc.ins, input)
			if err := r.Execute(func() error { set(tc.outs, output); return nil }); err != nil {
				t.Fatal(err)
			}
			if len(sink.recs) != 1 {
				t.Fatalf("captured %d records, want 1", len(sink.recs))
			}
			rec := sink.recs[0]

			// Records must never alias application memory.
			set(tc.ins, func(int, int) float64 { return -1 })
			set(tc.outs, func(int, int) float64 { return -2 })
			if !sameBits(rec.Inputs.Clone().Data(), sink.inAt[0]) || !sameBits(rec.Outputs.Clone().Data(), sink.outAt[0]) {
				t.Fatal("record changed when the application overwrote its arrays")
			}

			// Restore the inputs, clear the outputs, and serve the record.
			set(tc.ins, input)
			set(tc.outs, func(int, int) float64 { return 0 })
			eng.rec, useModel = rec, true
			if err := r.Execute(nil); err != nil {
				t.Fatal(err)
			}
			for ai, a := range tc.outs {
				for k, got := range arrays[a.name] {
					if want := output(ai, k); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s after inference = %v, collected %v at cell %d", a.name, arrays[a.name], want, k)
					}
				}
			}
		})
	}
}
