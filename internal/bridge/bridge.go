// Package bridge implements the HPAC-ML data bridge: the machinery that
// connects the application memory space to the tensor memory space.
//
// A tensor functor (declared with the directive grammar) describes how a
// single tensor entry is assembled from application memory relative to
// symbolic constants; a tensor map concretizes the functor over user-chosen
// ranges of an application array. Following Figure 4 of the paper, building
// a plan performs four steps:
//
//  1. Symbolic shape extraction — per RHS slice, the offset of its first
//     element relative to the sweep base and its element count.
//  2. Symbolic shape resolution — start/end/stride of the resulting view
//     for every dimension (singleton dims for point slices, a new sized
//     dimension for multi-element slices).
//  3. Tensor wrapping — zero-copy strided views over application memory.
//  4. Tensor composition — flattening the per-slice feature dims and
//     concatenating the RHS views into the single LHS tensor (the only
//     copying step, and only needed in the "to" direction).
//
// Affine index expressions are resolved numerically: each expression is
// probed at the sweep origin and once per symbol to recover its stride
// coefficients, then verified at the far corner of the sweep so non-affine
// expressions are rejected instead of silently mis-gathered.
package bridge

import (
	"fmt"

	"repro/internal/directive"
	"repro/internal/tensor"
)

// Array binds a named application array: raw storage plus its logical
// shape. Data is aliased, never copied: gathers read through it and
// scatters write through it.
type Array struct {
	Name  string
	Data  []float64
	Shape []int
}

// NewArray validates and constructs an Array binding.
func NewArray(name string, data []float64, shape ...int) (*Array, error) {
	n := tensor.NumElements(shape)
	if n > len(data) {
		return nil, fmt.Errorf("bridge: array %q shape %v wants %d elements, buffer has %d",
			name, shape, n, len(data))
	}
	return &Array{Name: name, Data: data, Shape: append([]int(nil), shape...)}, nil
}

func (a *Array) strides() []int {
	s := make([]int, len(a.Shape))
	acc := 1
	for i := len(a.Shape) - 1; i >= 0; i-- {
		s[i] = acc
		acc *= a.Shape[i]
	}
	return s
}

// sweepRange is one concretized range of the map target's cs-specifier.
type sweepRange struct {
	start, stop, step int
}

func (r sweepRange) count() int {
	if r.stop <= r.start {
		return 0
	}
	return (r.stop - r.start + r.step - 1) / r.step
}

// sliceView is the resolved descriptor for one RHS slice over one target:
// a strided window into application memory covering [sweep dims..., feature
// dims...].
type sliceView struct {
	view     *tensor.Tensor
	featElem int // product of this slice's feature extents
}

// targetPlan is the concretization of the functor over one map target.
type targetPlan struct {
	array  *Array
	sweeps []sweepRange
	slices []sliceView
}

// Plan is a reusable, concretized mapping between one functor and its map
// targets. Building it wraps application memory without copying; a
// Stager bound to a tensor then performs the single composition copy
// (Gather) or copies model output back through the wrapped views
// (Scatter).
type Plan struct {
	Functor *directive.FunctorDecl
	Dir     directive.Direction

	targets    []targetPlan
	sweepShape []int // extents of the symbolic dims, shared by all targets
	featTotal  int   // total features across RHS slices and targets
	lhsFeat    []int // concrete feature extents declared on the LHS
}

// Build concretizes functor f over map m. arrays supplies the named
// application arrays referenced by the map targets and env supplies the
// integer variables referenced by concrete slice expressions (e.g. N, M).
func Build(f *directive.FunctorDecl, m *directive.MapDecl, arrays map[string]*Array, env directive.Env) (*Plan, error) {
	if m.Functor != f.Name {
		return nil, fmt.Errorf("bridge: map references functor %q, got declaration of %q", m.Functor, f.Name)
	}
	symDims, featDims, err := splitLHS(f, env)
	if err != nil {
		return nil, err
	}
	p := &Plan{Functor: f, Dir: m.Dir}
	for _, fd := range featDims {
		p.lhsFeat = append(p.lhsFeat, fd)
	}
	lhsFeatTotal := 1
	for _, fd := range featDims {
		lhsFeatTotal *= fd
	}

	for ti, target := range m.Targets {
		arr, ok := arrays[target.Array]
		if !ok {
			return nil, fmt.Errorf("bridge: map target references unbound array %q", target.Array)
		}
		if len(target.Slices) != len(arr.Shape) {
			return nil, fmt.Errorf("bridge: target %q has %d slices but array rank is %d",
				target.Array, len(target.Slices), len(arr.Shape))
		}
		tp, sweepShape, err := buildTarget(f, target, arr, env, symDims)
		if err != nil {
			return nil, fmt.Errorf("bridge: target %d (%s): %w", ti, target.Array, err)
		}
		if ti == 0 {
			p.sweepShape = sweepShape
		} else if !tensor.ShapeEqual(p.sweepShape, sweepShape) {
			return nil, fmt.Errorf("bridge: target %q sweep shape %v differs from %v",
				target.Array, sweepShape, p.sweepShape)
		}
		for _, sv := range tp.slices {
			p.featTotal += sv.featElem
		}
		p.targets = append(p.targets, tp)
	}
	if p.featTotal != lhsFeatTotal {
		return nil, fmt.Errorf("bridge: functor %q RHS supplies %d features across %d target(s), LHS declares %d",
			f.Name, p.featTotal, len(m.Targets), lhsFeatTotal)
	}
	return p, nil
}

// splitLHS separates the functor's LHS dims into leading symbolic dims and
// trailing concrete feature dims, evaluating the feature extents.
func splitLHS(f *directive.FunctorDecl, env directive.Env) (symbols []string, featExt []int, err error) {
	seenFeat := false
	for di, s := range f.LHS.Slices {
		if s.IsPoint() {
			ref, ok := s.Start.(directive.SymRef)
			if !ok {
				return nil, nil, fmt.Errorf("bridge: functor %q LHS dim %d: point dims must be bare symbols", f.Name, di)
			}
			if _, bound := env[ref.Name]; bound {
				return nil, nil, fmt.Errorf("bridge: functor %q symbol %q collides with a bound integer variable", f.Name, ref.Name)
			}
			if seenFeat {
				return nil, nil, fmt.Errorf("bridge: functor %q LHS dim %d: symbolic dims must precede feature dims", f.Name, di)
			}
			symbols = append(symbols, ref.Name)
			continue
		}
		seenFeat = true
		ext, eerr := sliceExtent(s, env)
		if eerr != nil {
			return nil, nil, fmt.Errorf("bridge: functor %q LHS dim %d: %w", f.Name, di, eerr)
		}
		featExt = append(featExt, ext)
	}
	if len(symbols) == 0 {
		return nil, nil, fmt.Errorf("bridge: functor %q has no symbolic dims", f.Name)
	}
	return symbols, featExt, nil
}

func sliceExtent(s directive.Slice, env directive.Env) (int, error) {
	start, err := s.Start.Eval(env)
	if err != nil {
		return 0, err
	}
	stop, err := s.Stop.Eval(env)
	if err != nil {
		return 0, err
	}
	step := 1
	if s.Step != nil {
		if step, err = s.Step.Eval(env); err != nil {
			return 0, err
		}
	}
	if step <= 0 {
		return 0, fmt.Errorf("non-positive step %d", step)
	}
	if stop < start {
		return 0, fmt.Errorf("empty or reversed range %d:%d", start, stop)
	}
	return (stop - start + step - 1) / step, nil
}

// buildTarget performs the four Figure-4 steps for one map target.
func buildTarget(f *directive.FunctorDecl, target directive.MapTarget, arr *Array,
	env directive.Env, symbols []string) (targetPlan, []int, error) {

	astrides := arr.strides()

	// Concretize the cs-specifier: the first len(symbols) ranges become
	// sweep dims (bound to the functor's symbols in order); any further
	// ranges are feature windows whose extent the functor's own RHS
	// ranges select (e.g. poses[0:N, 0:6] with functor [i, 0:6]); points
	// only contribute a fixed index.
	sweeps := make([]sweepRange, 0, len(target.Slices))
	for d, cs := range target.Slices {
		start, err := cs.Start.Eval(env)
		if err != nil {
			return targetPlan{}, nil, err
		}
		if cs.IsPoint() {
			if start < 0 || start >= arr.Shape[d] {
				return targetPlan{}, nil, fmt.Errorf("point index %d out of range [0,%d) in dim %d", start, arr.Shape[d], d)
			}
			continue
		}
		stop, err := cs.Stop.Eval(env)
		if err != nil {
			return targetPlan{}, nil, err
		}
		step := 1
		if cs.Step != nil {
			if step, err = cs.Step.Eval(env); err != nil {
				return targetPlan{}, nil, err
			}
		}
		if step <= 0 {
			return targetPlan{}, nil, fmt.Errorf("non-positive sweep step %d in dim %d", step, d)
		}
		if start < 0 || stop > arr.Shape[d] || stop < start {
			return targetPlan{}, nil, fmt.Errorf("sweep range %d:%d out of bounds [0,%d] in dim %d", start, stop, arr.Shape[d], d)
		}
		if len(sweeps) < len(symbols) {
			sweeps = append(sweeps, sweepRange{start: start, stop: stop, step: step})
		}
		// Extra ranges beyond the symbol count only bound-check; the
		// functor's RHS addresses them absolutely.
	}
	if len(sweeps) != len(symbols) {
		return targetPlan{}, nil, fmt.Errorf("functor declares %d symbolic dims but map target has only %d range dims",
			len(symbols), len(sweeps))
	}
	sweepShape := make([]int, len(sweeps))
	for i, sw := range sweeps {
		sweepShape[i] = sw.count()
		if sweepShape[i] <= 0 {
			return targetPlan{}, nil, fmt.Errorf("empty sweep range in dim %d", i)
		}
	}

	// baseEnv binds each symbol to the first value of its sweep.
	baseEnv := cloneEnv(env)
	for i, name := range symbols {
		baseEnv[name] = sweeps[i].start
	}
	// farEnv binds each symbol to the last value of its sweep (affinity check).
	farEnv := cloneEnv(env)
	for i, name := range symbols {
		farEnv[name] = sweeps[i].start + (sweepShape[i]-1)*sweeps[i].step
	}

	tp := targetPlan{array: arr, sweeps: sweeps}
	for si, rhs := range f.RHS {
		if len(rhs.Slices) != len(target.Slices) {
			return targetPlan{}, nil, fmt.Errorf("RHS slice %d rank %d != target rank %d",
				si, len(rhs.Slices), len(target.Slices))
		}
		sv, err := resolveSlice(rhs, arr, astrides, baseEnv, farEnv, env, symbols, sweeps, sweepShape)
		if err != nil {
			return targetPlan{}, nil, fmt.Errorf("RHS slice %d %s: %w", si, rhs, err)
		}
		tp.slices = append(tp.slices, sv)
	}
	return tp, sweepShape, nil
}

// resolveSlice performs symbolic shape extraction + resolution + tensor
// wrapping for a single RHS ss-specifier, returning a strided view of shape
// [sweep dims..., feature dims...] over the target array's memory.
func resolveSlice(rhs directive.SliceSpec, arr *Array, astrides []int,
	baseEnv, farEnv, env directive.Env, symbols []string,
	sweeps []sweepRange, sweepShape []int) (sliceView, error) {

	rank := len(rhs.Slices)

	// Per array dim: start expression value at the sweep origin, plus the
	// feature extent and intra-slice step for ranges.
	baseIdx := make([]int, rank)
	farIdx := make([]int, rank)
	featLen := make([]int, 0, rank)
	featStride := make([]int, 0, rank)
	for d, s := range rhs.Slices {
		b, err := s.Start.Eval(baseEnv)
		if err != nil {
			return sliceView{}, err
		}
		fv, err := s.Start.Eval(farEnv)
		if err != nil {
			return sliceView{}, err
		}
		baseIdx[d], farIdx[d] = b, fv
		if s.IsPoint() {
			continue
		}
		// Symbolic shape resolution: multi-element slices add a dimension
		// sized by the element count, which must be sweep-invariant.
		extBase, err := rangeExtent(s, baseEnv)
		if err != nil {
			return sliceView{}, err
		}
		extFar, err := rangeExtent(s, farEnv)
		if err != nil {
			return sliceView{}, err
		}
		if extBase != extFar {
			return sliceView{}, fmt.Errorf("range extent varies across the sweep (%d vs %d): not affine", extBase, extFar)
		}
		step := 1
		if s.Step != nil {
			if step, err = s.Step.Eval(env); err != nil {
				return sliceView{}, err
			}
			if step <= 0 {
				return sliceView{}, fmt.Errorf("non-positive feature step %d", step)
			}
		}
		featLen = append(featLen, extBase)
		featStride = append(featStride, astrides[d]*step)
	}

	// Symbolic shape extraction, numerically: probe each symbol one sweep
	// step away from the origin to recover the view stride for that sweep
	// dimension, then verify affineness at the far corner.
	offset := 0
	for d := range baseIdx {
		offset += baseIdx[d] * astrides[d]
	}
	viewStrides := make([]int, len(symbols))
	predictedFar := offset
	for m, name := range symbols {
		if sweepShape[m] == 1 {
			viewStrides[m] = 0
			continue
		}
		probeEnv := cloneEnv(baseEnv)
		probeEnv[name] = sweeps[m].start + sweeps[m].step
		stride := 0
		for d, s := range rhs.Slices {
			v, err := s.Start.Eval(probeEnv)
			if err != nil {
				return sliceView{}, err
			}
			stride += (v - baseIdx[d]) * astrides[d]
		}
		viewStrides[m] = stride
		predictedFar += stride * (sweepShape[m] - 1)
	}
	actualFar := 0
	for d := range farIdx {
		actualFar += farIdx[d] * astrides[d]
	}
	if actualFar != predictedFar {
		return sliceView{}, fmt.Errorf("index expressions are not affine in the sweep symbols")
	}

	shape := append(append([]int(nil), sweepShape...), featLen...)
	strides := append(append([]int(nil), viewStrides...), featStride...)

	// Tensor wrapping: zero-copy strided view with bounds validation.
	view, err := tensor.WrapStrided(arr.Data, offset, shape, strides)
	if err != nil {
		return sliceView{}, err
	}
	fe := 1
	for _, l := range featLen {
		fe *= l
	}
	return sliceView{view: view, featElem: fe}, nil
}

func rangeExtent(s directive.Slice, env directive.Env) (int, error) {
	start, err := s.Start.Eval(env)
	if err != nil {
		return 0, err
	}
	stop, err := s.Stop.Eval(env)
	if err != nil {
		return 0, err
	}
	step := 1
	if s.Step != nil {
		if step, err = s.Step.Eval(env); err != nil {
			return 0, err
		}
		if step <= 0 {
			return 0, fmt.Errorf("non-positive step %d", step)
		}
	}
	if stop < start {
		return 0, fmt.Errorf("reversed range %d:%d", start, stop)
	}
	return (stop - start + step - 1) / step, nil
}

func cloneEnv(env directive.Env) directive.Env {
	out := make(directive.Env, len(env)+4)
	for k, v := range env {
		out[k] = v
	}
	return out
}

// SweepShape returns the extents of the symbolic (sweep) dimensions.
func (p *Plan) SweepShape() []int { return append([]int(nil), p.sweepShape...) }

// Entries returns the number of tensor entries the plan produces (the
// product of the sweep extents) — the batch size from the model's view.
func (p *Plan) Entries() int { return tensor.NumElements(p.sweepShape) }

// Features returns the per-entry feature count.
func (p *Plan) Features() int { return p.featTotal }

// TensorShape returns the LHS tensor shape: sweep extents followed by the
// declared feature extents.
func (p *Plan) TensorShape() []int {
	return append(append([]int(nil), p.sweepShape...), p.lhsFeat...)
}

// ioPair couples one RHS slice's application-memory view with its slot
// in a fixed composition tensor.
type ioPair struct{ comp, view *tensor.Tensor }

// Stager is a Plan bound to one fixed staging tensor: every per-slice
// Narrow of the composition layout is resolved once at construction, so
// repeated transfers through the same staging memory do no per-call
// planning or allocation. It is the plan's only transfer: the batched
// region-execution path binds stagers once per staging block, and a
// capture record binds one to its freshly allocated tensor.
type Stager struct {
	pairs []ioPair
}

// NewStager binds the plan to dst, which must have the composition
// layout [sweep dims..., features] or the flattened [entries, features]
// layout. dst may be a strided view (a Narrow of a larger staging
// tensor, or a transposed image) as long as its trailing dimension
// covers all features; a contiguous dst of the right element count is
// reshaped. The returned stager aliases both dst and the plan's
// application memory; it stays valid as long as neither is reallocated.
func (p *Plan) NewStager(dst *tensor.Tensor) (*Stager, error) {
	d, dim, err := p.composeLayout(dst)
	if err != nil {
		return nil, fmt.Errorf("bridge: stager: %w", err)
	}
	s := &Stager{pairs: make([]ioPair, 0, len(p.targets))}
	fOff := 0
	for _, tp := range p.targets {
		for _, sv := range tp.slices {
			part, err := d.Narrow(dim, fOff, sv.featElem)
			if err != nil {
				return nil, err
			}
			s.pairs = append(s.pairs, ioPair{comp: part, view: sv.view})
			fOff += sv.featElem
		}
	}
	return s, nil
}

// Gather copies current application memory into the staging tensor (the
// "to" direction of the bound plan).
func (s *Stager) Gather() error {
	for _, pr := range s.pairs {
		if err := tensor.CopyFlat(pr.comp, pr.view); err != nil {
			return fmt.Errorf("bridge: staged gather: %w", err)
		}
	}
	return nil
}

// Scatter copies the staging tensor back into application memory (the
// "from" direction). Overlapping RHS views are written in declaration
// order (last writer wins).
func (s *Stager) Scatter() error {
	for _, pr := range s.pairs {
		if err := tensor.CopyFlat(pr.view, pr.comp); err != nil {
			return fmt.Errorf("bridge: staged scatter: %w", err)
		}
	}
	return nil
}

// composeLayout validates that t can receive (or supply) the plan's
// composition layout and returns the tensor to narrow plus the feature
// dimension index. Contiguous tensors of the right element count are
// reshaped for free; strided views must already expose the feature axis
// as their trailing dimension.
func (p *Plan) composeLayout(t *tensor.Tensor) (*tensor.Tensor, int, error) {
	if t == nil {
		return nil, 0, fmt.Errorf("nil tensor")
	}
	flatComp := append(append([]int(nil), p.sweepShape...), p.featTotal)
	switch {
	case tensor.ShapeEqual(t.Shape(), flatComp):
		return t, len(p.sweepShape), nil
	case t.Rank() == 2 && t.Dim(0) == p.Entries() && t.Dim(1) == p.featTotal:
		return t, 1, nil
	}
	if t.Len() == p.Entries()*p.featTotal && t.IsContiguous() {
		r, err := t.Reshape(p.Entries(), p.featTotal)
		if err != nil {
			return nil, 0, err
		}
		return r, 1, nil
	}
	return nil, 0, fmt.Errorf("shape %v incompatible with composition layout %v", t.Shape(), flatComp)
}
