package directive

import (
	"fmt"
	"sort"
	"strings"
)

// Env supplies integer values for identifiers appearing in expressions.
// In concrete slice specifiers (tensor map clauses), identifiers refer to
// application integer variables (e.g. N, M); during functor application,
// the data bridge also binds the functor's symbolic constants (e.g. i, j)
// while sweeping the mapped ranges.
type Env map[string]int

// Expr is an integer expression tree: symbolic constants, integer literals,
// and arithmetic over them (the s-expr / c-expr productions of Fig. 3).
type Expr interface {
	// Eval computes the expression under env. Unbound identifiers
	// yield an error naming the missing symbol.
	Eval(env Env) (int, error)
	// Symbols appends the identifiers referenced by the expression.
	Symbols(into map[string]bool)
	fmt.Stringer
}

// IntLit is an integer literal.
type IntLit struct{ Value int }

// Eval returns the literal value.
func (e IntLit) Eval(Env) (int, error) { return e.Value, nil }

// Symbols adds nothing: literals reference no identifiers.
func (e IntLit) Symbols(map[string]bool) {}

func (e IntLit) String() string { return fmt.Sprintf("%d", e.Value) }

// SymRef references a symbolic constant (s-constant) or a declared integer
// variable; which one it is depends on the clause it appears in.
type SymRef struct{ Name string }

// Eval looks the identifier up in env.
func (e SymRef) Eval(env Env) (int, error) {
	v, ok := env[e.Name]
	if !ok {
		return 0, fmt.Errorf("directive: unbound symbol %q", e.Name)
	}
	return v, nil
}

// Symbols records the referenced identifier.
func (e SymRef) Symbols(into map[string]bool) { into[e.Name] = true }

func (e SymRef) String() string { return e.Name }

// BinExpr is a binary arithmetic expression.
type BinExpr struct {
	Op   byte // one of + - * / %
	L, R Expr
}

// Eval evaluates both operands and applies the operator, rejecting division
// and modulo by zero.
func (e BinExpr) Eval(env Env) (int, error) {
	l, err := e.L.Eval(env)
	if err != nil {
		return 0, err
	}
	r, err := e.R.Eval(env)
	if err != nil {
		return 0, err
	}
	switch e.Op {
	case '+':
		return l + r, nil
	case '-':
		return l - r, nil
	case '*':
		return l * r, nil
	case '/':
		if r == 0 {
			return 0, fmt.Errorf("directive: division by zero in %s", e)
		}
		return l / r, nil
	case '%':
		if r == 0 {
			return 0, fmt.Errorf("directive: modulo by zero in %s", e)
		}
		return l % r, nil
	}
	return 0, fmt.Errorf("directive: unknown operator %q", e.Op)
}

// Symbols collects identifiers from both operands.
func (e BinExpr) Symbols(into map[string]bool) {
	e.L.Symbols(into)
	e.R.Symbols(into)
}

func (e BinExpr) String() string {
	l, r := e.L.String(), e.R.String()
	if bl, ok := e.L.(BinExpr); ok && precedence(bl.Op) < precedence(e.Op) {
		l = "(" + l + ")"
	}
	if br, ok := e.R.(BinExpr); ok && precedence(br.Op) <= precedence(e.Op) {
		r = "(" + r + ")"
	}
	return fmt.Sprintf("%s%c%s", l, e.Op, r)
}

func precedence(op byte) int {
	switch op {
	case '*', '/', '%':
		return 2
	case '+', '-':
		return 1
	}
	return 0
}

// NegExpr is unary negation.
type NegExpr struct{ X Expr }

// Eval negates the operand's value.
func (e NegExpr) Eval(env Env) (int, error) {
	v, err := e.X.Eval(env)
	if err != nil {
		return 0, err
	}
	return -v, nil
}

// Symbols collects identifiers from the operand.
func (e NegExpr) Symbols(into map[string]bool) { e.X.Symbols(into) }

func (e NegExpr) String() string {
	if _, ok := e.X.(BinExpr); ok {
		return "-(" + e.X.String() + ")"
	}
	return "-" + e.X.String()
}

// Slice is one s-slice / c-slice: a point access (Stop==nil) or a range
// Start:Stop[:Step]. Step==nil means step 1. All fields may reference
// symbolic constants.
type Slice struct {
	Start Expr
	Stop  Expr // nil for point access
	Step  Expr // nil for step 1
}

// IsPoint reports whether the slice selects a single element.
func (s Slice) IsPoint() bool { return s.Stop == nil }

func (s Slice) String() string {
	if s.IsPoint() {
		return s.Start.String()
	}
	out := s.Start.String() + ":" + s.Stop.String()
	if s.Step != nil {
		out += ":" + s.Step.String()
	}
	return out
}

// Symbols collects identifiers referenced by all slice components.
func (s Slice) Symbols(into map[string]bool) {
	s.Start.Symbols(into)
	if s.Stop != nil {
		s.Stop.Symbols(into)
	}
	if s.Step != nil {
		s.Step.Symbols(into)
	}
}

// SliceSpec is an ss-specifier: a bracketed, comma-separated list of slices
// describing one tensor-space or memory-space access pattern.
type SliceSpec struct {
	Slices []Slice
}

func (ss SliceSpec) String() string {
	parts := make([]string, len(ss.Slices))
	for i, s := range ss.Slices {
		parts[i] = s.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Symbols collects identifiers referenced anywhere in the specifier.
func (ss SliceSpec) Symbols(into map[string]bool) {
	for _, s := range ss.Slices {
		s.Symbols(into)
	}
}

// FunctorDecl is a parsed tensor functor directive:
//
//	#pragma approx tensor functor(name: LHS = (RHS1, RHS2, ...))
//
// The LHS declares the shape of one tensor entry in the tensor memory
// space; each RHS slice describes where the entry's features originate in
// the application memory space, relative to the symbolic constants.
type FunctorDecl struct {
	Name string
	LHS  SliceSpec
	RHS  []SliceSpec
}

// SymbolNames returns the sorted symbolic constants used by the functor
// (identifiers appearing in LHS or RHS expressions).
func (f *FunctorDecl) SymbolNames() []string {
	set := map[string]bool{}
	f.LHS.Symbols(set)
	for _, r := range f.RHS {
		r.Symbols(set)
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (f *FunctorDecl) String() string {
	rhs := make([]string, len(f.RHS))
	for i, r := range f.RHS {
		rhs[i] = r.String()
	}
	return fmt.Sprintf("#pragma approx tensor functor(%s: %s = (%s))",
		f.Name, f.LHS.String(), strings.Join(rhs, ", "))
}

// Direction says which way a tensor map moves data.
type Direction int

// Map directions: To moves application memory into the tensor memory space
// (gather); From moves tensor results back into application memory
// (scatter).
const (
	To Direction = iota
	From
)

func (d Direction) String() string {
	if d == From {
		return "from"
	}
	return "to"
}

// MapTarget names an application array and the concrete ranges over which
// the functor sweeps: array-ref '[' cs-specifier ']'.
type MapTarget struct {
	Array  string
	Slices []Slice
}

func (mt MapTarget) String() string {
	parts := make([]string, len(mt.Slices))
	for i, s := range mt.Slices {
		parts[i] = s.String()
	}
	return mt.Array + "[" + strings.Join(parts, ", ") + "]"
}

// MapDecl is a parsed tensor map directive:
//
//	#pragma approx tensor map(to|from: fnctr(t[1:N-1, 1:M-1], ...))
type MapDecl struct {
	Dir     Direction
	Functor string
	Targets []MapTarget
}

func (m *MapDecl) String() string {
	parts := make([]string, len(m.Targets))
	for i, t := range m.Targets {
		parts[i] = t.String()
	}
	return fmt.Sprintf("#pragma approx tensor map(%s: %s(%s))",
		m.Dir, m.Functor, strings.Join(parts, ", "))
}

// Mode is the ml-mode keyword of the approx ml clause.
type Mode int

// Execution-control modes. Infer replaces the region with model inference;
// Collect runs the accurate path and records region inputs/outputs;
// Predicated chooses between the two per invocation by evaluating a
// boolean condition at run time.
const (
	Infer Mode = iota
	Collect
	Predicated
)

func (m Mode) String() string {
	switch m {
	case Infer:
		return "infer"
	case Collect:
		return "collect"
	case Predicated:
		return "predicated"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// FunctorApp is an inline functor application inside an ml clause's
// mapped-memory list (the fa-expr production): it declares a tensor map
// without a separate tensor map directive, e.g.
//
//	ml(infer) in(poses) out(energy_out(energies[0:N])) ...
type FunctorApp struct {
	Functor string
	Targets []MapTarget
}

func (fa FunctorApp) String() string {
	parts := make([]string, len(fa.Targets))
	for i, t := range fa.Targets {
		parts[i] = t.String()
	}
	return fa.Functor + "(" + strings.Join(parts, ", ") + ")"
}

// CapturePolicy is a parsed capture(...) clause: the sampling policy
// applied to collection-mode invocations before they reach the capture
// sink. Exactly one selector is set:
//
//	capture(every:N)  — keep every N-th invocation (Every = N >= 1)
//	capture(frac:F)   — keep each invocation with probability F (0 < F <= 1)
//
// Long-running solvers use it to collect without drowning the training
// database in near-duplicate records.
type CapturePolicy struct {
	// Every keeps one invocation in every Every; 0 when frac-selected.
	Every int
	// Frac keeps each invocation independently with probability Frac;
	// 0 when every-selected.
	Frac float64
}

func (c CapturePolicy) String() string {
	if c.Every > 0 {
		return fmt.Sprintf("capture(every:%d)", c.Every)
	}
	return fmt.Sprintf("capture(frac:%g)", c.Frac)
}

// TrustPolicy is a parsed trust(...) clause: the per-row gating policy
// that decides which surrogate predictions a region may keep and which
// must be recomputed by the accurate path. Selectors compose (comma
// separated); at least one must be present:
//
//	trust(var:V)              — reject rows whose ensemble predictive
//	                            variance exceeds V (V > 0; needs an
//	                            ensemble engine to measure variance)
//	trust(domain:on)          — reject rows whose input falls outside
//	                            the fitted guardrail envelope
//	trust(var:V, domain:on)   — both gates; the domain gate wins when
//	                            a row trips both
//
// The clause is the only configuration of the region's trust gates:
// the region reads the guardrail from the .guard sidecar beside its
// model() file and the variance from its engine.
type TrustPolicy struct {
	// MaxVariance is the variance gate's threshold; 0 when the clause
	// carries no var: selector.
	MaxVariance float64
	// Domain says whether the input-domain guardrail gate is on.
	Domain bool
}

func (t TrustPolicy) String() string {
	var parts []string
	if t.MaxVariance > 0 {
		parts = append(parts, fmt.Sprintf("var:%g", t.MaxVariance))
	}
	if t.Domain {
		parts = append(parts, "domain:on")
	}
	return "trust(" + strings.Join(parts, ", ") + ")"
}

// MLDecl is a parsed approx ml directive:
//
//	#pragma approx ml(mode[:cond]) in(a, b) out(c) inout(d) \
//	        model("m.gmod") db("d.gh5") capture(every:N) trust(var:V) \
//	        f32(on|off) if(cond)
//
// Each of in/out/inout accepts either plain array references (which must
// be covered by tensor map directives) or inline functor applications
// (fa-exprs, which create implicit maps). Cond and If hold the raw
// condition text; the runtime binds them to caller-supplied predicates (a
// compiler would have generated code for the expression — see
// docs/ARCHITECTURE.md, "Paper concept → package map").
type MLDecl struct {
	Mode      Mode
	Cond      string // optional bool-expr after the mode keyword
	In        []string
	Out       []string
	InOut     []string
	InApps    []FunctorApp
	OutApps   []FunctorApp
	InOutApps []FunctorApp
	Model     string
	DB        string
	Capture   *CapturePolicy
	Trust     *TrustPolicy
	F32       *bool  // f32(on|off): single-precision inference; nil = runtime default
	Quant     string // quant(int8|off): quantized inference; "" = runtime default
	If        string
}

// quoteClause renders a model/db clause value as a directive string
// literal using the lexer's own escaping — only '\' and '"' are
// escaped, every other byte passes verbatim — so String output reparses
// to the identical value. Go's %q would emit multi-character escapes
// (\n, \xff) the lexer deliberately does not interpret.
func quoteClause(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '\\' || c == '"' {
			b.WriteByte('\\')
			b.WriteByte(c)
		} else {
			b.WriteByte(s[i])
		}
	}
	b.WriteByte('"')
	return b.String()
}

func (m *MLDecl) String() string {
	var b strings.Builder
	b.WriteString("#pragma approx ml(")
	b.WriteString(m.Mode.String())
	if m.Cond != "" {
		b.WriteString(":" + m.Cond)
	}
	b.WriteString(")")
	writeList := func(kw string, items []string, apps []FunctorApp) {
		parts := append([]string(nil), items...)
		for _, a := range apps {
			parts = append(parts, a.String())
		}
		if len(parts) > 0 {
			fmt.Fprintf(&b, " %s(%s)", kw, strings.Join(parts, ", "))
		}
	}
	writeList("in", m.In, m.InApps)
	writeList("out", m.Out, m.OutApps)
	writeList("inout", m.InOut, m.InOutApps)
	if m.Model != "" {
		fmt.Fprintf(&b, " model(%s)", quoteClause(m.Model))
	}
	if m.DB != "" {
		fmt.Fprintf(&b, " db(%s)", quoteClause(m.DB))
	}
	if m.Capture != nil {
		b.WriteString(" " + m.Capture.String())
	}
	if m.Trust != nil {
		b.WriteString(" " + m.Trust.String())
	}
	if m.F32 != nil {
		if *m.F32 {
			b.WriteString(" f32(on)")
		} else {
			b.WriteString(" f32(off)")
		}
	}
	if m.Quant != "" {
		fmt.Fprintf(&b, " quant(%s)", m.Quant)
	}
	if m.If != "" {
		fmt.Fprintf(&b, " if(%s)", m.If)
	}
	return b.String()
}

// Directive is a parsed HPAC-ML directive: one of *FunctorDecl, *MapDecl,
// or *MLDecl.
type Directive interface {
	fmt.Stringer
	directive()
}

func (*FunctorDecl) directive() {}
func (*MapDecl) directive()     {}
func (*MLDecl) directive()      {}
