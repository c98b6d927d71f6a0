package bridge

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/directive"
	"repro/internal/tensor"
)

func parseFunctor(t *testing.T, src string) *directive.FunctorDecl {
	t.Helper()
	d, err := directive.Parse(src)
	if err != nil {
		t.Fatalf("parse functor: %v", err)
	}
	return d.(*directive.FunctorDecl)
}

func parseMap(t *testing.T, src string) *directive.MapDecl {
	t.Helper()
	d, err := directive.Parse(src)
	if err != nil {
		t.Fatalf("parse map: %v", err)
	}
	return d.(*directive.MapDecl)
}

// gatherInto composes the plan into dst, which may be a strided view,
// through a Stager, the bridge's one transfer path.
func gatherInto(p *Plan, dst *tensor.Tensor) error {
	st, err := p.NewStager(dst)
	if err != nil {
		return err
	}
	return st.Gather()
}

// gather composes the plan into a fresh tensor of its LHS shape.
func gather(p *Plan) (*tensor.Tensor, error) {
	out := tensor.New(p.TensorShape()...)
	return out, gatherInto(p, out)
}

// scatter copies src back through the plan's views.
func scatter(p *Plan, src *tensor.Tensor) error {
	st, err := p.NewStager(src)
	if err != nil {
		return err
	}
	return st.Scatter()
}

// TestFigure4StencilGather reproduces the exact example of Figures 2 and 4:
// a 5-point stencil functor applied to a 2-D grid.
func TestFigure4StencilGather(t *testing.T) {
	const N, M = 5, 6
	f := parseFunctor(t, "tensor functor(ifnctr: [i, j, 0:5] = (([i-1, j], [i+1, j], [i, j-1:j+2])))")
	m := parseMap(t, "tensor map(to: ifnctr(t[1:N-1, 1:M-1]))")

	grid := make([]float64, N*M)
	for i := range grid {
		grid[i] = float64(i)
	}
	arr, err := NewArray("t", grid, N, M)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(f, m, map[string]*Array{"t": arr}, directive.Env{"N": N, "M": M})
	if err != nil {
		t.Fatal(err)
	}
	wantShape := []int{N - 2, M - 2, 5}
	if !tensor.ShapeEqual(plan.TensorShape(), wantShape) {
		t.Fatalf("tensor shape = %v, want %v", plan.TensorShape(), wantShape)
	}
	if plan.Entries() != (N-2)*(M-2) || plan.Features() != 5 {
		t.Fatalf("entries/features = %d/%d", plan.Entries(), plan.Features())
	}
	out, err := gather(plan)
	if err != nil {
		t.Fatal(err)
	}
	// Entry (si,sj) corresponds to grid point (i,j) = (si+1, sj+1) and must
	// contain [t[i-1,j], t[i+1,j], t[i,j-1], t[i,j], t[i,j+1]].
	at := func(i, j int) float64 { return grid[i*M+j] }
	for si := 0; si < N-2; si++ {
		for sj := 0; sj < M-2; sj++ {
			i, j := si+1, sj+1
			want := []float64{at(i-1, j), at(i+1, j), at(i, j-1), at(i, j), at(i, j+1)}
			for k, w := range want {
				if got := out.At(si, sj, k); got != w {
					t.Fatalf("entry(%d,%d)[%d] = %g, want %g", si, sj, k, got, w)
				}
			}
		}
	}
}

// TestFigure2Scatter checks the output direction of the Figure 2 program:
// ofnctr writes model results back into the interior of tnew.
func TestFigure2Scatter(t *testing.T) {
	const N, M = 4, 5
	f := parseFunctor(t, "tensor functor(ofnctr: [i, j, 0:1] = ([i, j]))")
	m := parseMap(t, "tensor map(from: ofnctr(tnew[1:N-1, 1:M-1]))")

	buf := make([]float64, N*M)
	for i := range buf {
		buf[i] = -1
	}
	arr, _ := NewArray("tnew", buf, N, M)
	plan, err := Build(f, m, map[string]*Array{"tnew": arr}, directive.Env{"N": N, "M": M})
	if err != nil {
		t.Fatal(err)
	}
	modelOut := tensor.New(N-2, M-2, 1)
	for i := 0; i < N-2; i++ {
		for j := 0; j < M-2; j++ {
			modelOut.Set(float64(100+10*i+j), i, j, 0)
		}
	}
	if err := scatter(plan, modelOut); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < N; i++ {
		for j := 0; j < M; j++ {
			got := buf[i*M+j]
			interior := i >= 1 && i < N-1 && j >= 1 && j < M-1
			if interior {
				want := float64(100 + 10*(i-1) + (j - 1))
				if got != want {
					t.Fatalf("tnew[%d][%d] = %g, want %g", i, j, got, want)
				}
			} else if got != -1 {
				t.Fatalf("boundary tnew[%d][%d] clobbered: %g", i, j, got)
			}
		}
	}
}

// TestScatterAcceptsFlattenedBatch checks the NN-runtime layout
// [entries, features] is accepted by a scatter stager.
func TestScatterAcceptsFlattenedBatch(t *testing.T) {
	const N = 6
	f := parseFunctor(t, "tensor functor(of: [i, 0:1] = ([i]))")
	m := parseMap(t, "tensor map(from: of(y[0:N]))")
	buf := make([]float64, N)
	arr, _ := NewArray("y", buf, N)
	plan, err := Build(f, m, map[string]*Array{"y": arr}, directive.Env{"N": N})
	if err != nil {
		t.Fatal(err)
	}
	flat := tensor.New(N, 1)
	for i := 0; i < N; i++ {
		flat.Set(float64(i)*2, i, 0)
	}
	if err := scatter(plan, flat); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < N; i++ {
		if buf[i] != float64(i)*2 {
			t.Fatalf("y[%d] = %g", i, buf[i])
		}
	}
}

// TestMultiTargetFeatureConcat maps one functor over several arrays,
// concatenating their features (used by the tabular benchmarks).
func TestMultiTargetFeatureConcat(t *testing.T) {
	const N = 4
	f := parseFunctor(t, "tensor functor(f3: [i, 0:3] = ([i]))")
	m := parseMap(t, "tensor map(to: f3(S[0:N], X[0:N], T[0:N]))")
	s := []float64{1, 2, 3, 4}
	x := []float64{10, 20, 30, 40}
	tt := []float64{100, 200, 300, 400}
	arrays := map[string]*Array{}
	for name, data := range map[string][]float64{"S": s, "X": x, "T": tt} {
		a, err := NewArray(name, data, N)
		if err != nil {
			t.Fatal(err)
		}
		arrays[name] = a
	}
	plan, err := Build(f, m, arrays, directive.Env{"N": N})
	if err != nil {
		t.Fatal(err)
	}
	out, err := gather(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.ShapeEqual(out.Shape(), []int{N, 3}) {
		t.Fatalf("shape = %v, want [%d 3]", out.Shape(), N)
	}
	for i := 0; i < N; i++ {
		if out.At(i, 0) != s[i] || out.At(i, 1) != x[i] || out.At(i, 2) != tt[i] {
			t.Fatalf("row %d = (%g,%g,%g)", i, out.At(i, 0), out.At(i, 1), out.At(i, 2))
		}
	}
}

// TestSteppedSweep uses a stride-2 sweep range.
func TestSteppedSweep(t *testing.T) {
	const N = 10
	f := parseFunctor(t, "tensor functor(f: [i, 0:1] = ([i]))")
	m := parseMap(t, "tensor map(to: f(x[0:N:2]))")
	data := make([]float64, N)
	for i := range data {
		data[i] = float64(i)
	}
	arr, _ := NewArray("x", data, N)
	plan, err := Build(f, m, map[string]*Array{"x": arr}, directive.Env{"N": N})
	if err != nil {
		t.Fatal(err)
	}
	out, err := gather(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.ShapeEqual(out.Shape(), []int{5, 1}) {
		t.Fatalf("shape = %v", out.Shape())
	}
	for k := 0; k < 5; k++ {
		if out.At(k, 0) != float64(2*k) {
			t.Fatalf("entry %d = %g, want %d", k, out.At(k, 0), 2*k)
		}
	}
}

// TestScaledIndexExpression exercises affine expressions with a
// multiplier: gathering pairs x[2i], x[2i+1].
func TestScaledIndexExpression(t *testing.T) {
	const N = 8
	f := parseFunctor(t, "tensor functor(pairs: [i, 0:2] = ([i*2], [i*2+1]))")
	m := parseMap(t, "tensor map(to: pairs(x[0:N/2]))")
	data := make([]float64, N)
	for i := range data {
		data[i] = float64(i)
	}
	arr, _ := NewArray("x", data, N)
	plan, err := Build(f, m, map[string]*Array{"x": arr}, directive.Env{"N": N})
	if err != nil {
		t.Fatal(err)
	}
	out, err := gather(plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < N/2; i++ {
		if out.At(i, 0) != float64(2*i) || out.At(i, 1) != float64(2*i+1) {
			t.Fatalf("pair %d = (%g,%g)", i, out.At(i, 0), out.At(i, 1))
		}
	}
}

// TestPointTargetDim fixes one array dim with a point index in the map.
func TestPointTargetDim(t *testing.T) {
	const R, C = 3, 4
	f := parseFunctor(t, "tensor functor(row: [j, 0:1] = ([1, j]))")
	// Hmm: RHS rank must match target rank (2); target fixes dim 0 at 1.
	m := parseMap(t, "tensor map(to: row(x[1, 0:C]))")
	data := make([]float64, R*C)
	for i := range data {
		data[i] = float64(i)
	}
	arr, _ := NewArray("x", data, R, C)
	plan, err := Build(f, m, map[string]*Array{"x": arr}, directive.Env{"C": C})
	if err != nil {
		t.Fatal(err)
	}
	out, err := gather(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.ShapeEqual(out.Shape(), []int{C, 1}) {
		t.Fatalf("shape = %v", out.Shape())
	}
	for j := 0; j < C; j++ {
		if out.At(j, 0) != float64(C+j) {
			t.Fatalf("row[%d] = %g, want %d", j, out.At(j, 0), C+j)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	const N = 4
	data := make([]float64, N*N)
	arr, _ := NewArray("x", data, N, N)
	arrays := map[string]*Array{"x": arr}
	env := directive.Env{"N": N}

	cases := []struct {
		name    string
		functor string
		mapSrc  string
	}{
		{"unknown array", "tensor functor(f: [i, 0:1] = ([i, 0]))", "tensor map(to: f(zz[0:N, 0:N]))"},
		{"rank mismatch", "tensor functor(f: [i, 0:1] = ([i]))", "tensor map(to: f(x[0:N, 0:N]))"},
		{"symbol count mismatch", "tensor functor(f: [i, j, 0:1] = ([i, j]))", "tensor map(to: f(x[0:N, 2]))"},
		{"sweep out of bounds", "tensor functor(f: [i, j, 0:1] = ([i, j]))", "tensor map(to: f(x[0:N+1, 0:N]))"},
		{"point out of bounds", "tensor functor(f: [j, 0:1] = ([0, j]))", "tensor map(to: f(x[9, 0:N]))"},
		{"feature count mismatch", "tensor functor(f: [i, j, 0:3] = ([i, j]))", "tensor map(to: f(x[0:N, 0:N]))"},
		{"functor name mismatch", "tensor functor(g: [i, j, 0:1] = ([i, j]))", "tensor map(to: f(x[0:N, 0:N]))"},
		{"stencil out of bounds", "tensor functor(f: [i, j, 0:1] = ([i-1, j]))", "tensor map(to: f(x[0:N, 0:N]))"},
		{"non-affine index", "tensor functor(f: [i, j, 0:1] = ([i*i, j]))", "tensor map(to: f(x[0:N, 0:N]))"},
		{"varying extent", "tensor functor(f: [i, j, 0:1] = ([i, 0:j]))", "tensor map(to: f(x[0:N, 1:N]))"},
		{"no symbolic dims", "tensor functor(f: [0:2, 0:1] = ([0, 0]))", "tensor map(to: f(x[0:N, 0:N]))"},
		{"symbol collides with env", "tensor functor(f: [N, j, 0:1] = ([N, j]))", "tensor map(to: f(x[0:N, 0:N]))"},
	}
	for _, c := range cases {
		fd, err := directive.Parse(c.functor)
		if err != nil {
			t.Fatalf("%s: functor parse: %v", c.name, err)
		}
		md, err := directive.Parse(c.mapSrc)
		if err != nil {
			t.Fatalf("%s: map parse: %v", c.name, err)
		}
		if _, err := Build(fd.(*directive.FunctorDecl), md.(*directive.MapDecl), arrays, env); err == nil {
			t.Errorf("%s: Build succeeded, want error", c.name)
		}
	}
}

func TestInteriorSymbolicDimOrderEnforced(t *testing.T) {
	// Feature dims must trail symbolic dims on the LHS.
	fd, err := directive.Parse("tensor functor(f: [i, 0:2, j] = ([i, j], [i, j]))")
	if err != nil {
		t.Fatal(err)
	}
	md, _ := directive.Parse("tensor map(to: f(x[0:2, 0:2]))")
	data := make([]float64, 4)
	arr, _ := NewArray("x", data, 2, 2)
	if _, err := Build(fd.(*directive.FunctorDecl), md.(*directive.MapDecl),
		map[string]*Array{"x": arr}, directive.Env{}); err == nil {
		t.Fatal("want error for interleaved symbolic/feature dims")
	}
}

func TestNewArrayValidates(t *testing.T) {
	if _, err := NewArray("x", make([]float64, 3), 2, 2); err == nil {
		t.Fatal("want error for short buffer")
	}
}

func TestGatherZeroCopyUntilCompose(t *testing.T) {
	// Mutating the application array between Build and Gather must be
	// visible: the plan wraps memory, it does not snapshot it.
	const N = 4
	f := parseFunctor(t, "tensor functor(f: [i, 0:1] = ([i]))")
	m := parseMap(t, "tensor map(to: f(x[0:N]))")
	data := make([]float64, N)
	arr, _ := NewArray("x", data, N)
	plan, err := Build(f, m, map[string]*Array{"x": arr}, directive.Env{"N": N})
	if err != nil {
		t.Fatal(err)
	}
	data[2] = 42
	out, err := gather(plan)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(2, 0) != 42 {
		t.Fatal("plan must alias application memory, not snapshot it")
	}
}

// Property: scatter(gather(x)) is the identity on the swept region when the
// output functor mirrors the input functor (round-trip through the bridge).
func TestPropGatherScatterRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(12)
		fd, err := directive.Parse("tensor functor(f: [i, 0:1] = ([i]))")
		if err != nil {
			return false
		}
		toD, _ := directive.Parse("tensor map(to: f(x[0:N]))")
		fromD, _ := directive.Parse("tensor map(from: f(x[0:N]))")
		data := make([]float64, n)
		for i := range data {
			data[i] = r.NormFloat64()
		}
		orig := append([]float64(nil), data...)
		arr, _ := NewArray("x", data, n)
		env := directive.Env{"N": n}
		arrays := map[string]*Array{"x": arr}
		toPlan, err := Build(fd.(*directive.FunctorDecl), toD.(*directive.MapDecl), arrays, env)
		if err != nil {
			return false
		}
		fromPlan, err := Build(fd.(*directive.FunctorDecl), fromD.(*directive.MapDecl), arrays, env)
		if err != nil {
			return false
		}
		gathered, err := gather(toPlan)
		if err != nil {
			return false
		}
		// Clobber then restore through scatter.
		for i := range data {
			data[i] = math.NaN()
		}
		if err := scatter(fromPlan, gathered); err != nil {
			return false
		}
		for i := range data {
			if data[i] != orig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: 2-D stencil gather matches a reference per-element gather for
// random grid sizes.
func TestPropStencilMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		N := 3 + r.Intn(8)
		M := 3 + r.Intn(8)
		fd, err := directive.Parse("tensor functor(s: [i, j, 0:5] = (([i-1, j], [i+1, j], [i, j-1:j+2])))")
		if err != nil {
			return false
		}
		md, _ := directive.Parse("tensor map(to: s(t[1:N-1, 1:M-1]))")
		grid := make([]float64, N*M)
		for i := range grid {
			grid[i] = r.NormFloat64()
		}
		arr, _ := NewArray("t", grid, N, M)
		plan, err := Build(fd.(*directive.FunctorDecl), md.(*directive.MapDecl),
			map[string]*Array{"t": arr}, directive.Env{"N": N, "M": M})
		if err != nil {
			return false
		}
		out, err := gather(plan)
		if err != nil {
			return false
		}
		at := func(i, j int) float64 { return grid[i*M+j] }
		for si := 0; si < N-2; si++ {
			for sj := 0; sj < M-2; sj++ {
				i, j := si+1, sj+1
				want := []float64{at(i-1, j), at(i+1, j), at(i, j-1), at(i, j), at(i, j+1)}
				for k, w := range want {
					if out.At(si, sj, k) != w {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestGatherIntoMatchesGather checks stagers bound to reused staging
// memory against a gather into a fresh tensor, including gathering into a
// strided row block of a larger batched staging tensor.
func TestGatherIntoMatchesGather(t *testing.T) {
	const N, M = 6, 7
	f := parseFunctor(t, "tensor functor(ifnctr: [i, j, 0:5] = (([i-1, j], [i+1, j], [i, j-1:j+2])))")
	m := parseMap(t, "tensor map(to: ifnctr(t[1:N-1, 1:M-1]))")
	grid := make([]float64, N*M)
	for i := range grid {
		grid[i] = math.Sin(float64(i))
	}
	arr, err := NewArray("t", grid, N, M)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(f, m, map[string]*Array{"t": arr}, directive.Env{"N": N, "M": M})
	if err != nil {
		t.Fatal(err)
	}
	want, err := gather(plan)
	if err != nil {
		t.Fatal(err)
	}
	wantFlat, err := want.Reshape(plan.Entries(), plan.Features())
	if err != nil {
		t.Fatal(err)
	}

	check := func(got *tensor.Tensor) {
		t.Helper()
		g, err := got.Reshape(plan.Entries(), plan.Features())
		if err != nil {
			t.Fatal(err)
		}
		gc := g.Contiguous()
		for i := 0; i < plan.Entries(); i++ {
			for j := 0; j < plan.Features(); j++ {
				if gc.At(i, j) != wantFlat.At(i, j) {
					t.Fatalf("staged gather differs at (%d,%d)", i, j)
				}
			}
		}
	}

	// Composition layout [sweep..., features].
	dst := tensor.New(N-2, M-2, 5)
	if err := gatherInto(plan, dst); err != nil {
		t.Fatal(err)
	}
	check(dst)

	// Flattened [entries, features] layout.
	flat := tensor.New(plan.Entries(), plan.Features())
	if err := gatherInto(plan, flat); err != nil {
		t.Fatal(err)
	}
	check(flat)

	// A row block of a batched staging tensor: 3 invocations, gather into
	// the middle block, then check the neighbors were untouched.
	batch := tensor.Full(-7, 3*plan.Entries(), plan.Features())
	mid, err := batch.Narrow(0, plan.Entries(), plan.Entries())
	if err != nil {
		t.Fatal(err)
	}
	if err := gatherInto(plan, mid); err != nil {
		t.Fatal(err)
	}
	check(mid)
	if batch.At(0, 0) != -7 || batch.At(2*plan.Entries(), 0) != -7 {
		t.Fatal("staged gather wrote outside its row block")
	}

	// A feature-column block of a wider staging tensor (multi-plan
	// composition): strided dst with the feature axis trailing.
	wide := tensor.Full(-3, plan.Entries(), plan.Features()+4)
	col, err := wide.Narrow(1, 2, plan.Features())
	if err != nil {
		t.Fatal(err)
	}
	if err := gatherInto(plan, col); err != nil {
		t.Fatal(err)
	}
	check(col)
	if wide.At(0, 0) != -3 || wide.At(0, plan.Features()+2) != -3 {
		t.Fatal("staged gather wrote outside its column block")
	}

	// Incompatible destination shapes are rejected.
	if err := gatherInto(plan, tensor.New(plan.Entries(), plan.Features()+1)); err == nil {
		t.Fatal("want error for wrong feature count")
	}
	if err := gatherInto(plan, nil); err == nil {
		t.Fatal("want error for nil dst")
	}
}
