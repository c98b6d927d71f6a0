package hpacml

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/big"
	"os"
	"sort"

	"repro/internal/h5"
	"repro/internal/tensor"
)

// Guardrail is the input-domain gate of trust-routed execution: a
// per-feature envelope fitted from the training captures, answering
// "has the surrogate ever seen an input like this?" before its
// prediction is trusted. A row with any feature outside its envelope
// (or any non-finite feature) is out-of-domain and takes the accurate
// path regardless of how confident the ensemble looks — extrapolation
// confidence is exactly the failure mode the guardrail exists to stop.
//
// The envelope is deliberately simple — an axis-aligned box between
// per-feature quantiles — because it must be evaluated per row on the
// hot path and must be fittable from capture shards without labels.
// Fit it with FitGuardrail / FitGuardrailFromDB or the hpacml-guard
// CLI, and serialize it beside the model as a "<model>.gmod.guard"
// sidecar (GuardrailPath) so regions with trust(domain:on) find it.
type Guardrail struct {
	// Lo and Hi are the per-feature envelope bounds (len = feature
	// count of the model-layout input rows).
	Lo, Hi []float64
	// Margin widens the envelope at check time by this fraction of each
	// feature's span, so boundary-hugging inputs of a coarse training
	// set are not rejected: a row is in-domain when
	// Lo[f]-Margin*span <= v <= Hi[f]+Margin*span for every feature,
	// also where span = Hi[f]-Lo[f] itself overflows float64.
	// It must be finite and not negative; Encode and DecodeGuardrail
	// refuse any other margin, and a NaN or infinite bound.
	Margin float64
}

// GuardrailPath is the sidecar naming convention: the guardrail of
// model "m.gmod" lives at "m.gmod.guard", beside the weights it gates.
func GuardrailPath(modelPath string) string { return modelPath + ".guard" }

// FitGuardrail fits a guardrail on x, the model-layout inputs of a
// capture set: rows along dim 0, features flattened from the rest.
// q is the tail fraction trimmed per side (0 fits the plain min/max
// envelope; 0.01 fits the 1%..99% quantile envelope, robust to capture
// outliers); it must lie in [0, 0.5).
func FitGuardrail(x *tensor.Tensor, q float64) (*Guardrail, error) {
	if x == nil || x.Rank() < 1 || x.Dim(0) == 0 {
		return nil, fmt.Errorf("hpacml: guardrail fit wants a non-empty [rows, features...] tensor")
	}
	if q < 0 || q >= 0.5 {
		return nil, fmt.Errorf("hpacml: guardrail quantile %g out of [0, 0.5)", q)
	}
	rows := x.Dim(0)
	features := x.Len() / rows
	if features == 0 {
		return nil, fmt.Errorf("hpacml: guardrail fit on zero-feature rows")
	}
	data := x.Contiguous().Data()
	g := &Guardrail{Lo: make([]float64, features), Hi: make([]float64, features)}
	col := make([]float64, 0, rows)
	for f := 0; f < features; f++ {
		col = col[:0]
		for r := 0; r < rows; r++ {
			if v := data[r*features+f]; !math.IsNaN(v) && !math.IsInf(v, 0) {
				col = append(col, v)
			}
		}
		if len(col) == 0 {
			return nil, fmt.Errorf("hpacml: guardrail feature %d has no finite values", f)
		}
		sort.Float64s(col)
		g.Lo[f] = quantile(col, q)
		g.Hi[f] = quantile(col, 1-q)
	}
	return g, nil
}

// FitGuardrailFromDB fits a guardrail from the "inputs" dataset of a
// region's capture database (all shards merged) — the offline fit step
// hpacml-guard runs after collection, mirroring how hpacml-train reads
// the same shards.
func FitGuardrailFromDB(dbPath, region string, q float64) (*Guardrail, error) {
	f, err := h5.OpenShards(dbPath)
	if err != nil {
		return nil, err
	}
	x, err := f.Read(region, "inputs")
	if err != nil {
		return nil, err
	}
	return FitGuardrail(x, q)
}

// quantile reads quantile q from sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

// Features returns the envelope's feature count.
func (g *Guardrail) Features() int { return len(g.Lo) }

// CheckRow reports whether one model-layout input row is inside the
// margin-widened envelope, Lo[f]-Margin*span <= v <= Hi[f]+Margin*span
// for every feature, decided as exact arithmetic decides it (within).
// Non-finite features are always out-of-domain.
func (g *Guardrail) CheckRow(row []float64) bool {
	if len(row) != len(g.Lo) {
		return false
	}
	for f, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) || !within(v, g.Lo[f], g.Hi[f], g.Margin) {
			return false
		}
	}
	return true
}

// within reports lo-m*(hi-lo) <= v <= hi+m*(hi-lo) for a finite v, in
// exact arithmetic. A margin that is not above 0 compares against the
// bounds themselves: a span that overflows to +Inf would make 0*span
// NaN. Otherwise float64 decides wherever v is clear of both widened
// bounds by more than their roundings can move them (tol, eight times
// the error of the three rounded operations), and withinExact decides
// the rest: a v within a few ulps of a widened bound, where rounding
// would admit a value one float past it, and a widening that
// overflows. Bounds or a margin that Encode refuses, which have no
// exact envelope, keep the rounded one.
func within(v, lo, hi, m float64) bool {
	if !(m > 0) {
		return lo <= v && v <= hi
	}
	w := m * (hi - lo)
	l, h := lo-w, hi+w
	tol := (math.Abs(lo)+math.Abs(hi)+w)*0x1p-48 + 0x1p-1070
	switch {
	case v >= l+tol && v <= h-tol:
		return true
	case v < l-tol || v > h+tol:
		return false
	case math.IsInf(lo, 0) || math.IsInf(hi, 0) || math.IsInf(m, 0) || math.IsNaN(lo+hi):
		return l <= v && v <= h
	}
	return withinExact(v, lo, hi, m)
}

// withinExact is within in math/big arithmetic at 4096 bits, which
// hold any difference of two finite float64s, times a third, and
// plus or minus a fourth, exactly.
func withinExact(v, lo, hi, m float64) bool {
	exact := func(x float64) *big.Float { return new(big.Float).SetPrec(4096).SetFloat64(x) }
	w := exact(hi)
	w.Mul(w.Sub(w, exact(lo)), exact(m))
	l, h, x := exact(lo), exact(hi), exact(v)
	return l.Sub(l, w).Cmp(x) <= 0 && x.Cmp(h.Add(h, w)) <= 0
}

// Check evaluates every row of x (rows along dim 0, features flattened
// from the rest), setting ood[i] for each out-of-domain row, and
// returns how many rows were rejected. ood must have x.Dim(0) slots.
func (g *Guardrail) Check(x *tensor.Tensor, ood []bool) (int, error) {
	if x == nil || x.Rank() < 1 {
		return 0, fmt.Errorf("hpacml: guardrail check wants a [rows, features...] tensor")
	}
	rows := x.Dim(0)
	if len(ood) != rows {
		return 0, fmt.Errorf("hpacml: guardrail check: %d verdict slots for %d rows", len(ood), rows)
	}
	features := 0
	if rows > 0 {
		features = x.Len() / rows
	}
	if features != len(g.Lo) {
		return 0, fmt.Errorf("hpacml: guardrail fitted on %d features, input rows have %d", len(g.Lo), features)
	}
	data := x.Contiguous().Data()
	n := 0
	for r := 0; r < rows; r++ {
		in := g.CheckRow(data[r*features : (r+1)*features])
		ood[r] = !in
		if !in {
			n++
		}
	}
	return n, nil
}

// The sidecar format follows the .gmod idiom: little-endian, magic +
// version header, implausibility-guarded lengths, self-contained.
const (
	guardMagic    = 0x4752444c // "GRDL"
	guardVersion  = 1
	guardMaxFeats = 1 << 24
)

// checkMargin refuses a margin CheckRow cannot widen by: a NaN or
// infinite one makes every comparison false, so every finite row would
// read as in-domain.
func checkMargin(m float64) error {
	switch {
	case math.IsNaN(m) || math.IsInf(m, 0):
		return fmt.Errorf("hpacml: guardrail margin %g is not finite", m)
	case m < 0:
		return fmt.Errorf("hpacml: guardrail margin %g is negative", m)
	}
	return nil
}

// checkBounds refuses a NaN bound, which CheckRow would compare false
// against every value, an infinite one, whose span is infinite or NaN,
// and an inverted pair.
func checkBounds(lo, hi []float64) error {
	for f := range lo {
		switch {
		case math.IsNaN(lo[f]) || math.IsNaN(hi[f]):
			return fmt.Errorf("hpacml: guardrail feature %d has a NaN bound [%g, %g]", f, lo[f], hi[f])
		case math.IsInf(lo[f], 0) || math.IsInf(hi[f], 0):
			return fmt.Errorf("hpacml: guardrail feature %d has an infinite bound [%g, %g]", f, lo[f], hi[f])
		case lo[f] > hi[f]:
			return fmt.Errorf("hpacml: guardrail feature %d has inverted bounds [%g, %g]", f, lo[f], hi[f])
		}
	}
	return nil
}

// Encode writes the guardrail in sidecar format. It refuses what
// DecodeGuardrail refuses: a negative or non-finite margin, a NaN or
// infinite bound, inverted bounds.
func (g *Guardrail) Encode(w io.Writer) error {
	if len(g.Lo) == 0 || len(g.Lo) != len(g.Hi) {
		return fmt.Errorf("hpacml: encoding malformed guardrail (%d lo, %d hi bounds)", len(g.Lo), len(g.Hi))
	}
	if err := checkMargin(g.Margin); err != nil {
		return err
	}
	if err := checkBounds(g.Lo, g.Hi); err != nil {
		return err
	}
	var buf bytes.Buffer
	for _, v := range []uint32{guardMagic, guardVersion, uint32(len(g.Lo))} {
		binary.Write(&buf, binary.LittleEndian, v)
	}
	binary.Write(&buf, binary.LittleEndian, g.Margin)
	binary.Write(&buf, binary.LittleEndian, g.Lo)
	binary.Write(&buf, binary.LittleEndian, g.Hi)
	_, err := w.Write(buf.Bytes())
	return err
}

// Save writes the sidecar file at path (conventionally
// GuardrailPath(modelPath)). It encodes before it creates the file, so a
// guardrail Encode refuses leaves an existing sidecar as it was.
func (g *Guardrail) Save(path string) error {
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o666)
}

// DecodeGuardrail reads a sidecar-format guardrail. It refuses a
// negative or non-finite margin, a NaN or infinite bound and inverted
// bounds.
func DecodeGuardrail(r io.Reader) (*Guardrail, error) {
	var hdr [3]uint32
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("hpacml: guardrail header: %w", err)
	}
	if hdr[0] != guardMagic {
		return nil, fmt.Errorf("hpacml: not a guardrail sidecar (magic %#x)", hdr[0])
	}
	if hdr[1] != guardVersion {
		return nil, fmt.Errorf("hpacml: unsupported guardrail version %d", hdr[1])
	}
	n := int(hdr[2])
	if n == 0 || n > guardMaxFeats {
		return nil, fmt.Errorf("hpacml: implausible guardrail feature count %d", n)
	}
	g := new(Guardrail)
	if err := binary.Read(r, binary.LittleEndian, &g.Margin); err != nil {
		return nil, fmt.Errorf("hpacml: guardrail margin: %w", err)
	}
	if err := checkMargin(g.Margin); err != nil {
		return nil, err
	}
	// Lo then Hi, read as one slab that grows only as its bytes arrive:
	// a forged header's feature count then costs what the input really
	// holds, not 16n bytes up front.
	bounds, err := tensor.ReadSlab(nil, r, 2*n, make([]byte, 8*min(n, guardChunk)))
	if err != nil {
		return nil, fmt.Errorf("hpacml: guardrail bounds: %w", err)
	}
	g.Lo, g.Hi = bounds[:n:n], bounds[n:]
	if err := checkBounds(g.Lo, g.Hi); err != nil {
		return nil, err
	}
	return g, nil
}

// guardChunk is how many bounds DecodeGuardrail reads per step.
const guardChunk = 4096

// LoadGuardrail reads the sidecar file at path.
func LoadGuardrail(path string) (*Guardrail, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := DecodeGuardrail(f)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return g, nil
}
