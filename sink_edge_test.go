package hpacml

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/h5"
)

// recordCounter is a minimal terminal sink that counts what reaches it.
type recordCounter struct{ captured int }

func (c *recordCounter) Capture(*CaptureRecord) error { c.captured++; return nil }
func (c *recordCounter) Flush() error                 { return nil }
func (c *recordCounter) Close() error                 { return nil }

// TestCaptureFracZeroIsRejected pins the clause grammar's lower bound:
// capture(frac:0) would silently collect nothing, so it must be a
// region-construction error, not a quietly empty database.
func TestCaptureFracZeroIsRejected(t *testing.T) {
	for _, frac := range []string{"0", "0.0"} {
		src := fmt.Sprintf(`ml(collect) in(x) out(y) db("d.gh5") capture(frac:%s)`, frac)
		x := make([]float64, 2)
		y := make([]float64, 1)
		_, err := NewRegion("frac0",
			Directives(`
tensor functor(vin: [i, 0:2] = ([0:2]))
tensor functor(vout: [i, 0:1] = ([0:1]))
tensor map(to: vin(x[0:1]))
tensor map(from: vout(y[0:1]))
`+src),
			BindArray("x", x, 2),
			BindArray("y", y, 1),
		)
		if err == nil {
			t.Errorf("capture(frac:%s) must be rejected at region construction", frac)
		}
	}
}

// TestDegenerateSamplingPoliciesPassThrough pins the keep-everything
// edge of both policies: capture(frac:1) and capture(every:1) mean "no
// thinning", so every invocation reaches the sink with Sampled = 0,
// whether the region built the sink from its db() clause (the bare
// NewSink pipeline) or it was injected.
func TestDegenerateSamplingPoliciesPassThrough(t *testing.T) {
	dir := t.TempDir()
	const steps = 25
	for name, clause := range map[string]string{
		"frac:1":  "capture(frac:1)",
		"every:1": "capture(every:1)",
		"none":    "",
	} {
		t.Run("NewSink/"+name, func(t *testing.T) {
			db := filepath.Join(dir, "db-"+name[:4]+".gh5")
			r := sampledStencil(t, db, clause, steps)
			if _, bare := r.sink.(*LocalSink); !bare {
				t.Fatalf("%q built a %T; want the bare LocalSink", clause, r.sink)
			}
			ss, ok := r.CaptureStats()
			if !ok || ss.Captured != steps || ss.Sampled != 0 {
				t.Fatalf("%q stats = %+v (ok %v), want %d captured, 0 sampled", clause, ss, ok, steps)
			}
		})
		t.Run("WithSink/"+name, func(t *testing.T) {
			counter := &recordCounter{}
			r := sampledStencil(t, "", clause, steps, WithSink(counter))
			if counter.captured != steps {
				t.Fatalf("pass-through %q kept %d of %d", clause, counter.captured, steps)
			}
			if ss, _ := r.CaptureStats(); ss.Sampled != 0 {
				t.Fatalf("pass-through %q counted %d sampled", clause, ss.Sampled)
			}
		})
	}
}

// TestCaptureClauseAppliesToInjectedSink: the capture(...) clause thins
// the invocations an injected sink sees exactly as it thins a built
// one, and the region counts what it thinned out.
func TestCaptureClauseAppliesToInjectedSink(t *testing.T) {
	counter := &recordCounter{}
	const steps = 9
	r := sampledStencil(t, "", "capture(every:3)", steps, WithSink(counter))
	if counter.captured != 3 {
		t.Fatalf("injected sink saw %d of %d invocations under capture(every:3), want 3", counter.captured, steps)
	}
	ss, ok := r.CaptureStats()
	if !ok || ss.Sampled != 6 {
		t.Fatalf("capture stats %+v (ok %v), want 6 sampled", ss, ok)
	}
	if st := r.Stats(); st.AccurateRuns != steps || st.Collections != steps {
		t.Fatalf("stats %+v, want %d accurate runs and collections", st, steps)
	}
}

// TestCaptureEveryOneKeepsEverything drives capture(every:1) through a
// real region: every invocation must land in the database.
func TestCaptureEveryOneKeepsEverything(t *testing.T) {
	db := filepath.Join(t.TempDir(), "all.gh5")
	const steps = 9
	r := sampledStencil(t, db, "capture(every:1)", steps)
	ss, ok := r.CaptureStats()
	if !ok || ss.Captured != steps || ss.Sampled != 0 {
		t.Fatalf("every:1 stats = %+v (ok %v), want %d captured, 0 sampled", ss, ok, steps)
	}
	f, err := h5.OpenShards(db)
	if err != nil {
		t.Fatal(err)
	}
	if n := f.NumRecords("stencil", "inputs"); n != steps {
		t.Fatalf("database has %d records, want %d", n, steps)
	}
}
