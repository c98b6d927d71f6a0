package hpacml_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
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

// FuzzDecodeGuardrail: the .guard decoder never panics on truncated or
// forged bytes, and a guardrail it accepts re-encodes to a decode fixed
// point. Seeds are an encoded guardrail, truncations of it, and a
// header forging the largest feature count.
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
	})
}
