package hpacml

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func saveF32TestModel(t *testing.T, path string) {
	t.Helper()
	net := nn.NewNetwork(7)
	net.Add(net.NewDense(5, 16), nn.NewActivation(nn.ActTanh), net.NewDense(16, 2))
	if err := net.Save(path); err != nil {
		t.Fatal(err)
	}
}

// TestLocalEngineFloat32 checks the engine-level f32 contract: opted-in
// engines compile the float32 program at load, batched inference stays
// within single-precision tolerance of the float64 engine, and
// Refresh/Invalidate drop the compiled program with the network.
func TestLocalEngineFloat32(t *testing.T) {
	ClearModelCache()
	path := filepath.Join(t.TempDir(), "m.gmod")
	saveF32TestModel(t, path)

	e32 := NewLocalEngine(path, WithFloat32Inference())
	e64 := NewLocalEngine(path)
	ctx := context.Background()
	for _, e := range []*LocalEngine{e32, e64} {
		if err := e.Warmup(ctx, []int{4, 5}); err != nil {
			t.Fatal(err)
		}
	}
	if e32.Precision() != "f32" || e64.Precision() != "f64" {
		t.Fatalf("Precision() after load = %s / %s, want f32 / f64", e32.Precision(), e64.Precision())
	}
	if r := e32.PrecisionReason() + e64.PrecisionReason(); r != "" {
		t.Fatalf("served engines must give no downgrade reason, got %q", r)
	}

	const rows = 9
	in := tensor.New(rows, 5)
	for i, d := 0, in.Data(); i < len(d); i++ {
		d[i] = float64((i*7)%13)/13 - 0.5
	}
	out32 := tensor.New(rows, 2)
	out64 := tensor.New(rows, 2)
	if err := e32.Infer(ctx, in, out32); err != nil {
		t.Fatal(err)
	}
	if err := e64.Infer(ctx, in, out64); err != nil {
		t.Fatal(err)
	}
	want := out64.Data()
	for i, got := range out32.Data() {
		if diff := math.Abs(got - want[i]); diff > 1e-5*math.Abs(want[i])+1e-6 {
			t.Fatalf("element %d: f32 %g vs f64 %g", i, got, want[i])
		}
	}

	// Refresh drops the compiled program alongside the network and the
	// next inference rebuilds both from the shared cache.
	e32.Refresh()
	if e32.prog != nil {
		t.Fatal("Refresh must drop the f32 program")
	}
	if err := e32.Infer(ctx, in, out32); err != nil {
		t.Fatal(err)
	}
	if e32.Precision() != "f32" {
		t.Fatal("inference after Refresh must recompile the f32 program")
	}
	e32.Invalidate()
	if e32.prog != nil {
		t.Fatal("Invalidate must drop the f32 program")
	}
}

// TestLocalEngineFloat32CNN: the f32 compiler serves vector models
// only, so a CNN under WithFloat32Inference reads f64 with a reason
// right after Warmup, and its outputs are bitwise those of a plain
// float64 engine.
func TestLocalEngineFloat32CNN(t *testing.T) {
	ClearModelCache()
	path := filepath.Join(t.TempDir(), "cnn.gmod")
	net := nn.NewNetwork(3)
	net.Add(net.NewConv1D(1, 2, 3, 1), nn.NewFlatten(), net.NewDense(12, 2))
	if err := net.Save(path); err != nil {
		t.Fatal(err)
	}
	e := NewLocalEngine(path, WithFloat32Inference())
	e64 := NewLocalEngine(path)
	ctx := context.Background()
	if err := e.Warmup(ctx, []int{2, 1, 8}); err != nil {
		t.Fatal(err)
	}
	if e.Precision() != "f64" || e.PrecisionReason() == "" {
		t.Fatalf("after Warmup: Precision() = %s, reason %q; want f64 with a reason", e.Precision(), e.PrecisionReason())
	}
	in := tensor.New(2, 1, 8)
	for i, d := 0, in.Data(); i < len(d); i++ {
		d[i] = float64((i*5)%11)/11 - 0.5
	}
	out := tensor.New(2, 2)
	out64 := tensor.New(2, 2)
	if err := e.Infer(ctx, in, out); err != nil {
		t.Fatal(err)
	}
	if err := e64.Infer(ctx, in, out64); err != nil {
		t.Fatal(err)
	}
	for i, got := range out.Data() {
		if math.Float64bits(got) != math.Float64bits(out64.Data()[i]) {
			t.Fatalf("element %d: %g, plain f64 engine %g", i, got, out64.Data()[i])
		}
	}
	if e.Precision() != "f64" {
		t.Fatalf("Precision() after a batch = %s, want f64", e.Precision())
	}
}

// TestLocalEngineFloat32Fallback: a model the f32 compiler does not
// support (a residual block) still serves through the float64 path;
// the compile failure is decided once at load, reported as the reason,
// and batches never recompile.
func TestLocalEngineFloat32Fallback(t *testing.T) {
	ClearModelCache()
	path := filepath.Join(t.TempDir(), "res.gmod")
	body := nn.NewNetwork(5)
	body.Add(nn.NewActivation(nn.ActTanh))
	net := nn.NewNetwork(3)
	net.Add(nn.NewResidual(body), nn.NewFlatten(), net.NewDense(12, 2))
	if err := net.Save(path); err != nil {
		t.Fatal(err)
	}
	e := NewLocalEngine(path, WithFloat32Inference())
	ctx := context.Background()
	if err := e.Warmup(ctx, []int{2, 2, 6}); err != nil {
		t.Fatal(err)
	}
	if e.prog != nil {
		t.Fatal("residual model must not compile to f32")
	}
	if r := e.PrecisionReason(); !strings.HasPrefix(r, "f32: ") {
		t.Fatalf("PrecisionReason() = %q, want the f32 compile failure", r)
	}
	in := tensor.New(2, 2, 6)
	out := tensor.New(2, 2)
	for i := 0; i < 2; i++ {
		if err := e.Infer(ctx, in, out); err != nil {
			t.Fatalf("float64 fallback inference: %v", err)
		}
		if e.prog != nil {
			t.Fatal("a batch must not compile a program")
		}
	}
	if e.Precision() != "f64" {
		t.Fatalf("Precision() = %s, want f64", e.Precision())
	}
}

// TestRegionF32Precedence: the f32(on|off) clause configures the
// region's own engine, and Precision reports the path it loads onto.
func TestRegionF32Precedence(t *testing.T) {
	ClearModelCache()
	path := filepath.Join(t.TempDir(), "m.gmod")
	saveF32TestModel(t, path)

	cases := []struct{ clause, want string }{
		{"", "f64"},
		{" f32(on)", "f32"},
		{" f32(off)", "f64"},
	}
	for _, tc := range cases {
		if got := regionPrecision(t, path, 5, 2, tc.clause); got != tc.want {
			t.Fatalf("clause %q: Precision() = %s, want %s", tc.clause, got, tc.want)
		}
	}
}

// regionPrecision builds an in-width, out-width flat region over the
// model at path with the given ml clause suffix, warms its own engine,
// and reports the precision it serves at.
func regionPrecision(t *testing.T, path string, in, out int, clause string) string {
	t.Helper()
	r, err := NewRegion("r",
		Directives(fmt.Sprintf(`
tensor functor(ifn: [i, 0:%[1]d] = ([i*%[1]d:i*%[1]d+%[1]d]))
tensor functor(ofn: [i, 0:%[2]d] = ([i*%[2]d:i*%[2]d+%[2]d]))
tensor map(to: ifn(x[0:1]))
tensor map(from: ofn(y[0:1]))
ml(infer) in(x) out(y) model("%[3]s")%[4]s`, in, out, path, clause)),
		BindArray("x", make([]float64, in), in),
		BindArray("y", make([]float64, out), out),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.ensureEngine(); err != nil {
		t.Fatal(err)
	}
	le, ok := r.Engine().(*LocalEngine)
	if !ok {
		t.Fatalf("engine %T", r.Engine())
	}
	if err := le.Warmup(context.Background(), []int{1, in}); err != nil {
		t.Fatal(err)
	}
	return le.Precision()
}
