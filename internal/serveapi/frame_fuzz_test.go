package serveapi

import (
	"bytes"
	"math"
	"testing"
)

// FuzzDecodeFrame feeds arbitrary bytes to every frame decoder and
// asserts the contract the HTTP handlers rely on: no panic, no
// out-of-bounds allocation, and — when a frame is accepted — a stable
// re-encode: encoding the decoded frame and decoding it again yields
// bit-identical values (byte-identical frames for f64, where no float
// conversion is involved; f32 sNaN payloads quiet on the f32->f64->f32
// trip, so f32 asserts value-level idempotence). The seeds cover the
// documented failure classes: truncated headers and bodies, forged
// dimension fields (overflow), dtype/kind mismatches, and frames of the
// retired i8 dtype (byte 2), which every decoder must refuse.
func FuzzDecodeFrame(f *testing.F) {
	// Valid frames of every kind and dtype.
	for _, dtype := range []Dtype{DtypeF64, DtypeF32} {
		req, _ := AppendInferRequest(nil, dtype, "binomial", 2, 3, []float64{1, 2, 3, 4, 5, 6})
		f.Add(req)
		resp, _ := AppendInferResponse(nil, dtype, "binomial", 2, 1, []float64{7, 8})
		f.Add(resp)
		capFrame, _ := AppendCaptureRequest(nil, dtype, "db", []CaptureRecord{
			{Region: "r", InputShape: []int{1, 2}, Inputs: []float64{1, 2},
				OutputShape: []int{1, 1}, Outputs: []float64{3}, RuntimeNS: 5},
		})
		f.Add(capFrame)
	}
	good, _ := AppendInferRequest(nil, DtypeF64, "m", 1, 4, []float64{1, 2, 3, 4})
	// Truncated header and truncated body.
	f.Add(good[:5])
	f.Add(good[:len(good)-3])
	// Forged dims: rows = 0xFFFFFFFF.
	forged := append([]byte(nil), good...)
	forged[FrameHeaderLen+3], forged[FrameHeaderLen+4] = 0xFF, 0xFF
	forged[FrameHeaderLen+5], forged[FrameHeaderLen+6] = 0xFF, 0xFF
	f.Add(forged)
	// Forged geometry the payload-size equality alone can't catch: a
	// zero dim hiding a huge one, and dims whose elems*size wraps uint64.
	f.Add(rawInferFrame(DtypeF64, "m", math.MaxUint32, 0, nil))
	f.Add(rawInferFrame(DtypeF64, "m", 1<<31, 1<<30, nil))
	// Dtype and kind mismatches.
	badDtype := append([]byte(nil), good...)
	badDtype[6] = 9
	f.Add(badDtype)
	badKind := append([]byte(nil), good...)
	badKind[5] = FrameCaptureRequest
	f.Add(badKind)
	// Retired i8 frames: every kind with dtype byte 2, and infer request
	// and response frames carrying one byte per element as the old
	// encoder wrote them.
	for _, frame := range i8Frames() {
		f.Add(frame)
	}
	allBytes := make([]byte, 256)
	for i := range allBytes {
		allBytes[i] = byte(i)
	}
	f.Add(rawInferFrame(dtypeI8, "q", 16, 16, allBytes))
	i8Resp := rawInferFrame(dtypeI8, "q", 16, 16, allBytes)
	i8Resp[5] = FrameInferResponse
	f.Add(i8Resp)

	sameFloats := func(a, b []float64) bool {
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

	checkInfer := func(t *testing.T, frame []byte,
		decode func([]byte, []float64) (InferFrame, error),
		encode func([]byte, Dtype, string, int, int, []float64) ([]byte, error)) {
		inf, err := decode(frame, nil)
		if err != nil {
			return
		}
		re, err := encode(nil, inf.Dtype, inf.Model, inf.Rows, inf.Cols, inf.Data)
		if err != nil {
			t.Fatalf("accepted frame did not re-encode: %v", err)
		}
		// f64 re-encodes bit-identically.
		if inf.Dtype != DtypeF32 && !bytes.Equal(re, frame) {
			t.Fatalf("%s round trip changed bytes:\n%x\n%x", inf.Dtype, frame, re)
		}
		again, err := decode(re, nil)
		if err != nil {
			t.Fatalf("re-encoded frame did not decode: %v", err)
		}
		if again.Model != inf.Model || again.Rows != inf.Rows || again.Cols != inf.Cols ||
			again.Dtype != inf.Dtype || !sameFloats(again.Data, inf.Data) {
			t.Fatalf("round trip not idempotent: %+v vs %+v", inf, again)
		}
	}

	f.Fuzz(func(t *testing.T, frame []byte) {
		checkInfer(t, frame, DecodeInferRequest, AppendInferRequest)
		checkInfer(t, frame, DecodeInferResponse, AppendInferResponse)
		db, recs, err := DecodeCaptureRequest(frame)
		if err != nil {
			return
		}
		dtype := Dtype(frame[6])
		re, err := AppendCaptureRequest(nil, dtype, db, recs)
		if err != nil {
			t.Fatalf("accepted capture batch did not re-encode: %v", err)
		}
		if dtype != DtypeF32 && !bytes.Equal(re, frame) {
			t.Fatalf("%s capture round trip changed bytes:\n%x\n%x", dtype, frame, re)
		}
		db2, recs2, err := DecodeCaptureRequest(re)
		if err != nil || db2 != db || len(recs2) != len(recs) {
			t.Fatalf("re-encoded capture batch did not decode: %v", err)
		}
		for i := range recs {
			if !sameFloats(recs2[i].Inputs, recs[i].Inputs) || !sameFloats(recs2[i].Outputs, recs[i].Outputs) {
				t.Fatalf("capture record %d not idempotent", i)
			}
		}
	})
}
