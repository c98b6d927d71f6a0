package serveapi

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
)

// rawInferFrame hand-assembles an infer-request frame with arbitrary
// dimension fields — the encoder refuses to build forged geometries, so
// decoder tests for them must craft the bytes directly.
func rawInferFrame(dtype Dtype, model string, rows, cols uint32, payload []byte) []byte {
	body := binary.LittleEndian.AppendUint16(nil, uint16(len(model)))
	body = append(body, model...)
	body = binary.LittleEndian.AppendUint32(body, rows)
	body = binary.LittleEndian.AppendUint32(body, cols)
	body = append(body, payload...)
	frame := binary.LittleEndian.AppendUint32(nil, FrameMagic)
	frame = append(frame, FrameVersion, FrameInferRequest, byte(dtype), 0)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(body)))
	return append(frame, body...)
}

func sampleSlab(rows, cols int) []float64 {
	data := make([]float64, rows*cols)
	for i := range data {
		data[i] = math.Sin(float64(i)) * 1e3
	}
	return data
}

func TestInferFrameRoundTrip(t *testing.T) {
	for _, dtype := range []Dtype{DtypeF64, DtypeF32} {
		rows, cols := 7, 5
		data := sampleSlab(rows, cols)
		frame, err := AppendInferRequest(nil, dtype, "binomial", rows, cols, data)
		if err != nil {
			t.Fatalf("%s: encode: %v", dtype, err)
		}
		scratch := make([]float64, 1) // deliberately too small: decode must grow it
		got, err := DecodeInferRequest(frame, scratch)
		if err != nil {
			t.Fatalf("%s: decode: %v", dtype, err)
		}
		if got.Model != "binomial" || got.Rows != rows || got.Cols != cols || got.Dtype != dtype {
			t.Fatalf("%s: decoded %+v", dtype, got)
		}
		for i, v := range got.Data {
			want := data[i]
			if dtype == DtypeF32 {
				want = float64(float32(want))
			}
			if v != want {
				t.Fatalf("%s: element %d = %g, want %g", dtype, i, v, want)
			}
		}
		// Response kind must not decode as a request.
		resp, err := AppendInferResponse(nil, dtype, "binomial", rows, cols, data)
		if err != nil {
			t.Fatalf("%s: encode response: %v", dtype, err)
		}
		if _, err := DecodeInferRequest(resp, nil); err == nil {
			t.Fatalf("%s: response frame decoded as request", dtype)
		}
		if _, err := DecodeInferResponse(resp, nil); err != nil {
			t.Fatalf("%s: decode response: %v", dtype, err)
		}
	}
}

// dtypeI8 is the retired one-byte wire dtype. Peers that still send it
// must be refused, never decoded as some other encoding.
const dtypeI8 Dtype = 2

// i8Frames returns a well-formed f64 infer request, infer response and
// capture request, each with its dtype byte rewritten to dtypeI8.
func i8Frames() [][]byte {
	req, _ := AppendInferRequest(nil, DtypeF64, "m", 2, 3, []float64{1, 2, 3, 4, 5, 6})
	resp, _ := AppendInferResponse(nil, DtypeF64, "m", 2, 1, []float64{7, 8})
	capFrame, _ := AppendCaptureRequest(nil, DtypeF64, "db", []CaptureRecord{
		{Region: "r", InputShape: []int{1, 2}, Inputs: []float64{1, 2},
			OutputShape: []int{1, 1}, Outputs: []float64{3}, RuntimeNS: 5},
	})
	frames := [][]byte{req, resp, capFrame}
	for _, f := range frames {
		f[6] = byte(dtypeI8)
	}
	return frames
}

// TestI8WireEncoding pins that the i8 wire dtype is gone: encoders
// refuse it, and a dtype-2 request, response or capture frame fails to
// decode, both at full f64 width and at the old one byte per element.
func TestI8WireEncoding(t *testing.T) {
	if _, err := AppendInferRequest(nil, dtypeI8, "m", 1, 2, []float64{1, 2}); err == nil {
		t.Error("infer encoder accepted dtype 2")
	}
	if _, err := AppendCaptureRequest(nil, dtypeI8, "db", nil); err == nil {
		t.Error("capture encoder accepted dtype 2")
	}
	frames := i8Frames()
	frames = append(frames, rawInferFrame(dtypeI8, "m", 2, 3, []byte{1, 2, 3, 4, 5, 6}))
	for i, frame := range frames {
		if _, err := DecodeInferRequest(frame, nil); err == nil {
			t.Errorf("frame %d: dtype-2 infer request decoded", i)
		}
		if _, err := DecodeInferResponse(frame, nil); err == nil {
			t.Errorf("frame %d: dtype-2 infer response decoded", i)
		}
		if _, _, err := DecodeCaptureRequest(frame); err == nil {
			t.Errorf("frame %d: dtype-2 capture request decoded", i)
		}
	}
}

func TestInferFrameDecodeReusesBuffer(t *testing.T) {
	rows, cols := 4, 8
	frame, err := AppendInferRequest(nil, DtypeF64, "m", rows, cols, sampleSlab(rows, cols))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, rows*cols)
	got, err := DecodeInferRequest(frame, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &got.Data[0] != &buf[0] {
		t.Fatal("decode did not reuse the caller's buffer")
	}
}

func TestCaptureFrameRoundTrip(t *testing.T) {
	recs := []CaptureRecord{
		{Region: "stencil", InputShape: []int{1, 5}, Inputs: sampleSlab(1, 5),
			OutputShape: []int{1, 1}, Outputs: []float64{42}, RuntimeNS: 123.5},
		{Region: "stencil", InputShape: []int{2, 3}, Inputs: sampleSlab(2, 3),
			OutputShape: []int{2, 1}, Outputs: []float64{-1, 9}, RuntimeNS: 7},
	}
	frame, err := AppendCaptureRequest(nil, DtypeF64, "traindb", recs)
	if err != nil {
		t.Fatal(err)
	}
	db, got, err := DecodeCaptureRequest(frame)
	if err != nil {
		t.Fatal(err)
	}
	if db != "traindb" || len(got) != len(recs) {
		t.Fatalf("decoded db %q, %d records", db, len(got))
	}
	a, _ := json.Marshal(recs)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Fatalf("capture records did not round-trip:\n%s\n%s", a, b)
	}
}

func TestFrameDecodeRejectsMalformed(t *testing.T) {
	rows, cols := 2, 3
	good, err := AppendInferRequest(nil, DtypeF64, "m", rows, cols, sampleSlab(rows, cols))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mut(b)
		return b
	}
	cases := map[string][]byte{
		"empty":            nil,
		"truncated header": good[:FrameHeaderLen-3],
		"truncated body":   good[:len(good)-5],
		"trailing bytes":   append(append([]byte(nil), good...), 0xAB),
		"bad magic":        corrupt(func(b []byte) { b[0] ^= 0xFF }),
		"bad version":      corrupt(func(b []byte) { b[4] = 99 }),
		"bad dtype":        corrupt(func(b []byte) { b[6] = 7 }),
		"forged rows": corrupt(func(b []byte) {
			b[FrameHeaderLen+3] = 0xFF
			b[FrameHeaderLen+4] = 0xFF
			b[FrameHeaderLen+5] = 0xFF
			b[FrameHeaderLen+6] = 0xFF
		}),
	}
	for name, frame := range cases {
		if _, err := DecodeInferRequest(frame, nil); err == nil {
			t.Errorf("%s: decode accepted a malformed frame", name)
		}
	}
}

// TestFrameDecodeRejectsForgedGeometry pins the two dimension forgeries
// the payload-size equality alone cannot catch: a zero dim paired with
// a huge one (0 elements matches an empty body regardless of the other
// dim), and dims whose elems*size product wraps uint64 back to the body
// size (2^31 x 2^30 x 8 ≡ 0). Either used to reach the allocator.
func TestFrameDecodeRejectsForgedGeometry(t *testing.T) {
	cases := map[string][2]uint32{
		"zero cols, max rows":      {math.MaxUint32, 0},
		"zero rows, max cols":      {0, math.MaxUint32},
		"elems*size wraps uint64":  {1 << 31, 1 << 30},
		"elems*4 wraps uint64 f32": {1 << 31, 1 << 31},
	}
	for name, dims := range cases {
		dtype := DtypeF64
		if dims[0] == dims[1] {
			dtype = DtypeF32
		}
		if _, err := DecodeInferRequest(rawInferFrame(dtype, "m", dims[0], dims[1], nil), nil); err == nil {
			t.Errorf("%s: decode accepted forged dims", name)
		}
	}
	// [0, 0] is the one legal empty geometry; it must keep decoding so
	// servers can answer it with their own "no rows" error.
	empty, err := AppendInferRequest(nil, DtypeF64, "m", 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeInferRequest(empty, nil); err != nil {
		t.Fatalf("empty [0,0] frame no longer decodes: %v", err)
	}
}

// TestFrameSizeCaps: frames are bounded by MaxFrameLen end to end — the
// encoders error out instead of letting the u32 length prefix truncate,
// and the decoder refuses oversized byte streams outright.
func TestFrameSizeCaps(t *testing.T) {
	huge := make([]float64, maxFrameBody/8+1)
	if _, err := AppendInferRequest(nil, DtypeF64, "m", 1, len(huge), huge); err == nil {
		t.Error("infer encoder accepted a body beyond MaxFrameLen")
	}
	rec := CaptureRecord{Region: "r", InputShape: []int{len(huge)}, Inputs: huge,
		OutputShape: []int{1}, Outputs: []float64{1}}
	if _, err := AppendCaptureRequest(nil, DtypeF64, "db", []CaptureRecord{rec}); err == nil {
		t.Error("capture encoder accepted a body beyond MaxFrameLen")
	}
	if _, err := AppendInferRequest(nil, DtypeF64, "m", 3, 0, nil); err == nil {
		t.Error("infer encoder accepted degenerate [3, 0] geometry")
	}
	if _, err := DecodeInferRequest(make([]byte, MaxFrameLen+1), nil); err == nil {
		t.Error("decoder accepted a frame beyond MaxFrameLen")
	}
}

// BenchmarkFrameCodec measures the codec-level cost of one /v1/infer
// round trip (encode request + decode request + encode response +
// decode response) for the binary frame against encoding/json over the
// same payload, with every buffer reused across iterations. The
// client-level BenchmarkWireJSONvsBinary in internal/serveclient
// measures the same comparison over live HTTP.
func BenchmarkFrameCodec(b *testing.B) {
	rows, inCols, outCols := 64, 16, 4
	in := sampleSlab(rows, inCols)
	out := sampleSlab(rows, outCols)

	b.Run("binary", func(b *testing.B) {
		var reqBuf, respBuf []byte
		var reqF, respF []float64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if reqBuf, err = AppendInferRequest(reqBuf[:0], DtypeF64, "m", rows, inCols, in); err != nil {
				b.Fatal(err)
			}
			req, err := DecodeInferRequest(reqBuf, reqF)
			if err != nil {
				b.Fatal(err)
			}
			reqF = req.Data
			if respBuf, err = AppendInferResponse(respBuf[:0], DtypeF64, "m", rows, outCols, out); err != nil {
				b.Fatal(err)
			}
			resp, err := DecodeInferResponse(respBuf, respF)
			if err != nil {
				b.Fatal(err)
			}
			respF = resp.Data
		}
	})

	b.Run("json", func(b *testing.B) {
		ins := make([][]float64, rows)
		for i := range ins {
			ins[i] = in[i*inCols : (i+1)*inCols]
		}
		outs := make([][]float64, rows)
		for i := range outs {
			outs[i] = out[i*outCols : (i+1)*outCols]
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reqBody, err := json.Marshal(InferRequest{Model: "m", Inputs: ins})
			if err != nil {
				b.Fatal(err)
			}
			var req InferRequest
			if err := json.Unmarshal(reqBody, &req); err != nil {
				b.Fatal(err)
			}
			respBody, err := json.Marshal(InferResponse{Model: "m", Outputs: outs})
			if err != nil {
				b.Fatal(err)
			}
			var resp InferResponse
			if err := json.Unmarshal(respBody, &resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
