package hpacml_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/big"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	hpacml "repro"
)

// forgedGuardHeader is a sidecar header — magic, version, feature
// count — claiming the largest feature count the decoder accepts,
// followed by tail.
func forgedGuardHeader(tail ...byte) []byte {
	var b []byte
	for _, v := range []uint32{0x4752444c, 1, 1 << 24} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return append(b, tail...)
}

// TestDecodeGuardrailForgedCountAllocs: a header that claims 2^24
// features over an input holding none of them must fail without first
// allocating the 256 MB its bounds would take. Reading the bounds as
// they arrive keeps the cost to one bounded chunk.
func TestDecodeGuardrailForgedCountAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"header only", forgedGuardHeader()},
		{"header and margin", forgedGuardHeader(make([]byte, 8)...)},
		{"one bound", forgedGuardHeader(make([]byte, 16)...)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := hpacml.DecodeGuardrail(bytes.NewReader(tc.data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: %d-byte sidecar claiming 2^24 features decoded", tc.name, len(tc.data))
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Fatalf("%s: decoding %d bytes allocated %d bytes before failing, want < 1 MB", tc.name, len(tc.data), d)
		}
	}
}

// guardForgery sets one float64 of a guardrail, the margin or bound
// feat of Lo or Hi, to a value the sidecar format refuses, and names
// the reason Encode and DecodeGuardrail must give.
type guardForgery struct {
	name   string
	field  string // "margin", "lo" or "hi"
	feat   int
	value  float64
	reason string
}

var guardForgeries = []guardForgery{
	{"NaN margin", "margin", 0, math.NaN(), "margin NaN is not finite"},
	{"Inf margin", "margin", 0, math.Inf(1), "margin +Inf is not finite"},
	{"negative margin", "margin", 0, -0.5, "margin -0.5 is negative"},
	{"NaN lo", "lo", 0, math.NaN(), "feature 0 has a NaN bound"},
	{"NaN hi", "hi", 1, math.NaN(), "feature 1 has a NaN bound"},
	{"inverted bounds", "lo", 0, 20, "feature 0 has inverted bounds"},
	{"Inf hi", "hi", 1, math.Inf(1), "feature 1 has an infinite bound"},
}

// apply sets the forged value in g.
func (f guardForgery) apply(g *hpacml.Guardrail) {
	switch f.field {
	case "margin":
		g.Margin = f.value
	case "lo":
		g.Lo[f.feat] = f.value
	default:
		g.Hi[f.feat] = f.value
	}
}

// forge returns a copy of raw, an encoded guardrail of n features, with
// the forged value written over its float64: the header is 12 bytes,
// the margin at 12, Lo at 20 and Hi at 20+8n.
func (f guardForgery) forge(raw []byte, n int) []byte {
	offset := 12
	switch f.field {
	case "lo":
		offset = 20 + 8*f.feat
	case "hi":
		offset = 20 + 8*(n+f.feat)
	}
	b := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(b[offset:], math.Float64bits(f.value))
	return b
}

// validGuardrail is the two-feature guardrail the forgeries start from.
func validGuardrail() *hpacml.Guardrail {
	return &hpacml.Guardrail{Lo: []float64{0, 1}, Hi: []float64{2, 3}, Margin: 0.05}
}

// TestGuardrailRefusesNonFinite: a margin that is NaN, infinite or
// negative, or a NaN or infinite bound, makes CheckRow compare false or
// widen the envelope backwards or without end, so every finite row,
// {1e9, -1e9} included, would read as in-domain; inverted bounds admit
// no row at all. Encode refuses to write such a guardrail and
// DecodeGuardrail to read one, each naming its reason. Bounds Lo = Hi =
// +Inf are refused too, and finite bounds whose span overflows serve
// at a zero margin without a NaN widening and at a positive one without
// an infinite one.
func TestGuardrailRefusesNonFinite(t *testing.T) {
	var buf bytes.Buffer
	if err := validGuardrail().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if ok, err := hpacml.DecodeGuardrail(bytes.NewReader(raw)); err != nil || ok.CheckRow([]float64{1e9, -1e9}) {
		t.Fatalf("the valid sidecar: %v, or it accepts {1e9, -1e9}", err)
	}
	for _, forge := range guardForgeries {
		data := forge.forge(raw, 2)
		if _, err := hpacml.DecodeGuardrail(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), forge.reason) {
			t.Errorf("%s: decode error %v, want %q", forge.name, err, forge.reason)
		}
		bad := validGuardrail()
		forge.apply(bad)
		if err := bad.Encode(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), forge.reason) {
			t.Errorf("%s: encode error %v, want %q", forge.name, err, forge.reason)
		}
	}

	inf := &hpacml.Guardrail{Lo: []float64{0, math.Inf(1)}, Hi: []float64{2, math.Inf(1)}}
	if err := inf.Encode(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "feature 1 has an infinite bound") {
		t.Errorf("Lo = Hi = +Inf: encode error %v", err)
	}
	data := raw
	for _, field := range []string{"lo", "hi"} {
		data = guardForgery{field: field, feat: 1, value: math.Inf(1)}.forge(data, 2)
	}
	if _, err := hpacml.DecodeGuardrail(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "feature 1 has an infinite bound") {
		t.Errorf("Lo = Hi = +Inf: decode error %v", err)
	}

	wide := &hpacml.Guardrail{Lo: []float64{-1e308}, Hi: []float64{1e308}}
	if err := wide.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if wide.CheckRow([]float64{-1.7e308}) || wide.CheckRow([]float64{1.7e308}) || !wide.CheckRow([]float64{0}) {
		t.Error("bounds ±1e308 at margin 0: CheckRow misjudges {-1.7e308}, {1.7e308} or {0}")
	}
	// Under a positive margin the span 2e308 overflows; the envelope is
	// still [-1.1e308, 1.1e308], not every finite value.
	wide.Margin = 0.05
	if wide.CheckRow([]float64{-1.7e308}) || wide.CheckRow([]float64{1.7e308}) ||
		!wide.CheckRow([]float64{-1.09e308}) || !wide.CheckRow([]float64{1.09e308}) {
		t.Error("bounds ±1e308 at margin 0.05: CheckRow misjudges {±1.7e308} or {±1.09e308}")
	}
}

// TestGuardrailRefusedSaveKeepsSidecar: Save of a guardrail Encode
// refuses leaves the sidecar already at the path byte for byte, so a
// region with trust(domain:on) keeps its gate.
func TestGuardrailRefusedSaveKeepsSidecar(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.gmod.guard")
	if err := validGuardrail().Save(path); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, forge := range guardForgeries {
		bad := validGuardrail()
		forge.apply(bad)
		if err := bad.Save(path); err == nil || !strings.Contains(err.Error(), forge.reason) {
			t.Errorf("%s: save error %v, want %q", forge.name, err, forge.reason)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: the refused save changed the sidecar (%v):\n%x\nwant\n%x", forge.name, err, got, want)
		}
	}
	if _, err := hpacml.LoadGuardrail(path); err != nil {
		t.Fatalf("the kept sidecar: %v", err)
	}
}

// FuzzDecodeGuardrail: the .guard decoder never panics on truncated or
// forged bytes, and a guardrail it accepts re-encodes to a decode fixed
// point, whose CheckRow agrees with exact arithmetic at ±MaxFloat64.
// Seeds are an encoded guardrail, truncations of it, a header forging
// the largest feature count, the guardrail with a margin or a bound the
// format refuses, and the guardrail with a span that overflows.
func FuzzDecodeGuardrail(f *testing.F) {
	g := &hpacml.Guardrail{
		Lo:     []float64{-1, 0, 2.5, -1e300, 3},
		Hi:     []float64{1, 0, 7.25, 1e300, 3},
		Margin: 0.015625,
	}
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	raw := buf.Bytes()
	for _, n := range []int{len(raw), len(raw) - 1, len(raw) / 2, 20, 12, 4} {
		f.Add(append([]byte(nil), raw[:n]...))
	}
	f.Add(forgedGuardHeader(make([]byte, 24)...))
	for _, forge := range guardForgeries {
		f.Add(forge.forge(raw, len(g.Lo)))
	}
	// Hi[3] = MaxFloat64 over Lo[3] = -1e300: a span that overflows.
	f.Add(guardForgery{field: "hi", feat: 3, value: math.MaxFloat64}.forge(raw, len(g.Lo)))

	encode := func(t *testing.T, g *hpacml.Guardrail) []byte {
		var buf bytes.Buffer
		if err := g.Encode(&buf); err != nil {
			t.Fatalf("accepted guardrail does not re-encode: %v", err)
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := hpacml.DecodeGuardrail(bytes.NewReader(data))
		if err != nil {
			return
		}
		once := encode(t, g)
		again, err := hpacml.DecodeGuardrail(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("re-encoded guardrail does not decode: %v", err)
		}
		if twice := encode(t, again); !bytes.Equal(once, twice) {
			t.Fatalf("re-encode is not a fixed point:\n%x\n%x", once, twice)
		}
		// At the ends of the float range CheckRow must agree with the
		// envelope in exact arithmetic, so a span that overflows
		// float64 does not open it to every finite value.
		for f := range min(len(g.Lo), 8) {
			for _, v := range []float64{-math.MaxFloat64, math.MaxFloat64} {
				row := append([]float64(nil), g.Lo...)
				row[f] = v
				if inside, sure := exactlyInside(g, f, v); sure && g.CheckRow(row) != inside {
					t.Fatalf("feature %d in [%g, %g], margin %g: CheckRow(%g) = %t, exact envelope says %t",
						f, g.Lo[f], g.Hi[f], g.Margin, v, !inside, inside)
				}
			}
		}
	})
}

// exactlyInside reports whether v lies in feature f's widened envelope,
// Lo-Margin*span <= v <= Hi+Margin*span, computed exactly, and whether
// v is clear of both ends by more than CheckRow's roundings can move
// them (2^-40 of |v|).
func exactlyInside(g *hpacml.Guardrail, f int, v float64) (inside, sure bool) {
	const prec = 4096 // holds any float64 difference, times the margin, exactly
	lo := new(big.Float).SetPrec(prec).SetFloat64(g.Lo[f])
	hi := new(big.Float).SetPrec(prec).SetFloat64(g.Hi[f])
	w := new(big.Float).SetPrec(prec).Sub(hi, lo)
	w.Mul(w, big.NewFloat(g.Margin))
	lo.Sub(lo, w)
	hi.Add(hi, w)
	x := big.NewFloat(v)
	tol := big.NewFloat(math.Abs(v) * 0x1p-40)
	clear := func(end *big.Float) bool {
		d := new(big.Float).SetPrec(prec).Sub(x, end)
		return d.Abs(d).Cmp(tol) > 0
	}
	return lo.Cmp(x) <= 0 && x.Cmp(hi) <= 0, clear(lo) && clear(hi)
}
