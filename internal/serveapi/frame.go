package serveapi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// ContentTypeFrame is the media type that selects the binary frame
// protocol on /v1/infer and /v1/capture. A request carrying it must be
// a well-formed frame; the server answers /v1/infer in kind (a response
// frame of the same dtype) and acknowledges /v1/capture in JSON (the
// ack is tiny — framing it would save nothing). Everything else on the
// API, error bodies included, stays JSON: the binary protocol exists
// for the two hot-path payloads only, and JSON remains the debugging
// default.
const ContentTypeFrame = "application/x-hpacml-frame"

// Frame header constants. Every frame opens with a fixed 12-byte
// little-endian header:
//
//	offset  size  field
//	0       4     magic    "MFPH" on the wire (0x4850464d LE)
//	4       1     version  FrameVersion
//	5       1     kind     FrameInferRequest | FrameInferResponse | FrameCaptureRequest
//	6       1     dtype    DtypeF64 | DtypeF32
//	7       1     reserved (must be 0)
//	8       4     body length in bytes (the length prefix; total frame = 12 + body)
//
// followed by the kind-specific body. All integers are little-endian,
// matching the .gmod model format.
const (
	FrameMagic   uint32 = 0x4850464d // "HPFM" as a little-endian u32
	FrameVersion byte   = 1
	// FrameHeaderLen is the fixed header size in bytes.
	FrameHeaderLen = 12
)

// Frame kinds.
const (
	// FrameInferRequest is a client->server inference batch:
	// name = model, payload = [rows, cols] input slab.
	FrameInferRequest byte = 1
	// FrameInferResponse is the server's answer:
	// name = model, payload = [rows, cols] output slab.
	FrameInferResponse byte = 2
	// FrameCaptureRequest is a client->server capture batch:
	// name = capture db, payload = length-prefixed capture records.
	FrameCaptureRequest byte = 3
)

// Dtype selects the on-wire float element encoding.
type Dtype byte

// Wire float encodings. DtypeF64 is lossless against the runtime's
// float64 staging tensors; DtypeF32 halves payload bytes for callers
// that accept single-precision transport (e.g. regions already running
// the float32 compute path). The wire dtype and the compute precision
// are independent choices: a server running the quantized int8 compute
// path (hpacml-serve -int8) takes f64 or f32 frames like any other.
const (
	DtypeF64 Dtype = 0
	DtypeF32 Dtype = 1
)

// Size returns the element size in bytes.
func (d Dtype) Size() int {
	switch d {
	case DtypeF32:
		return 4
	}
	return 8
}

func (d Dtype) String() string {
	switch d {
	case DtypeF64:
		return "f64"
	case DtypeF32:
		return "f32"
	}
	return fmt.Sprintf("dtype(%d)", byte(d))
}

func validDtype(d Dtype) bool { return d == DtypeF64 || d == DtypeF32 }

// frame size sanity bounds, mirroring the .gmod reader's plausibility
// checks: a decoder fed garbage must fail fast, never allocate
// gigabytes off a forged dimension field.
const (
	maxFrameName = 1 << 10 // model/db/region name bytes
	maxFrameRank = 8       // capture record tensor rank
)

// MaxFrameLen caps a whole frame (header + body) on both ends of the
// wire: encoders refuse to build anything larger (which also keeps the
// u32 length prefix from silently truncating a >4 GiB body), decoders
// refuse to parse anything larger, and the HTTP server bounds frame
// request bodies with it (an oversized body is 413). A conforming peer
// splits bigger workloads across frames; a forged Content-Length or
// dimension field can never size an allocation past this.
const MaxFrameLen = 1 << 26 // 64 MiB

// maxFrameBody is the largest body the u32 length prefix may declare.
const maxFrameBody = MaxFrameLen - FrameHeaderLen

// --- encoding ---------------------------------------------------------

func appendHeader(dst []byte, kind byte, dtype Dtype, bodyLen int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, FrameMagic)
	dst = append(dst, FrameVersion, kind, byte(dtype), 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(bodyLen))
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func appendFloats(dst []byte, dtype Dtype, data []float64) []byte {
	switch dtype {
	case DtypeF32:
		for _, v := range data {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v)))
		}
	default:
		for _, v := range data {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// inferBodyLen is the exact body size of an infer frame, so encoders
// can size the length prefix before writing the payload.
func inferBodyLen(name string, rows, cols int, dtype Dtype) int {
	return 2 + len(name) + 8 + rows*cols*dtype.Size()
}

func appendInferFrame(dst []byte, kind byte, dtype Dtype, name string, rows, cols int, data []float64) ([]byte, error) {
	if !validDtype(dtype) {
		return dst, fmt.Errorf("serveapi: frame dtype %d unsupported", dtype)
	}
	if len(name) > maxFrameName {
		return dst, fmt.Errorf("serveapi: frame name %d bytes exceeds %d", len(name), maxFrameName)
	}
	if rows < 0 || cols < 0 || len(data) != rows*cols {
		return dst, fmt.Errorf("serveapi: frame payload %d floats, want %d x %d", len(data), rows, cols)
	}
	// A [0, n] or [n, 0] slab carries no data but forges a geometry the
	// decoder cannot trust (a huge rows with cols=0 still passes the
	// payload-size check); only [0, 0] expresses "empty".
	if (rows == 0) != (cols == 0) {
		return dst, fmt.Errorf("serveapi: degenerate frame geometry %d x %d", rows, cols)
	}
	bodyLen := inferBodyLen(name, rows, cols, dtype)
	if bodyLen > maxFrameBody {
		return dst, fmt.Errorf("serveapi: frame body %d bytes exceeds %d", bodyLen, maxFrameBody)
	}
	dst = appendHeader(dst, kind, dtype, bodyLen)
	dst = appendString(dst, name)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rows))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(cols))
	return appendFloats(dst, dtype, data), nil
}

// AppendInferRequest encodes a [rows, cols] input slab for model as an
// infer-request frame appended to dst (pass dst[:0] of a pooled buffer
// to reuse its storage), returning the extended slice. data is row-major
// and must hold exactly rows*cols values.
func AppendInferRequest(dst []byte, dtype Dtype, model string, rows, cols int, data []float64) ([]byte, error) {
	return appendInferFrame(dst, FrameInferRequest, dtype, model, rows, cols, data)
}

// AppendInferResponse encodes a [rows, cols] output slab as an
// infer-response frame appended to dst.
func AppendInferResponse(dst []byte, dtype Dtype, model string, rows, cols int, data []float64) ([]byte, error) {
	return appendInferFrame(dst, FrameInferResponse, dtype, model, rows, cols, data)
}

// AppendCaptureRequest encodes a capture batch for db as a
// capture-request frame appended to dst. Each record travels as its
// region name, input/output shapes, runtime, and both tensors' raw
// data in the frame dtype.
func AppendCaptureRequest(dst []byte, dtype Dtype, db string, recs []CaptureRecord) ([]byte, error) {
	if !validDtype(dtype) {
		return dst, fmt.Errorf("serveapi: frame dtype %d unsupported", dtype)
	}
	if len(db) > maxFrameName {
		return dst, fmt.Errorf("serveapi: frame name %d bytes exceeds %d", len(db), maxFrameName)
	}
	body := 2 + len(db) + 4
	for i := range recs {
		r := &recs[i]
		if len(r.Region) > maxFrameName {
			return dst, fmt.Errorf("serveapi: capture record %d region name %d bytes exceeds %d", i, len(r.Region), maxFrameName)
		}
		if len(r.InputShape) > maxFrameRank || len(r.OutputShape) > maxFrameRank {
			return dst, fmt.Errorf("serveapi: capture record %d rank exceeds %d", i, maxFrameRank)
		}
		if len(r.Inputs) != numElems(r.InputShape) || len(r.Outputs) != numElems(r.OutputShape) {
			return dst, fmt.Errorf("serveapi: capture record %d data does not match its shape", i)
		}
		body += 2 + len(r.Region) +
			1 + 4*len(r.InputShape) + 1 + 4*len(r.OutputShape) + 8 +
			(len(r.Inputs)+len(r.Outputs))*dtype.Size()
	}
	if body > maxFrameBody {
		return dst, fmt.Errorf("serveapi: frame body %d bytes exceeds %d", body, maxFrameBody)
	}
	dst = appendHeader(dst, FrameCaptureRequest, dtype, body)
	dst = appendString(dst, db)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(recs)))
	for i := range recs {
		r := &recs[i]
		dst = appendString(dst, r.Region)
		dst = append(dst, byte(len(r.InputShape)))
		for _, d := range r.InputShape {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(d))
		}
		dst = append(dst, byte(len(r.OutputShape)))
		for _, d := range r.OutputShape {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(d))
		}
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.RuntimeNS))
		dst = appendFloats(dst, dtype, r.Inputs)
		dst = appendFloats(dst, dtype, r.Outputs)
	}
	return dst, nil
}

func numElems(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			return -1
		}
		n *= d
	}
	return n
}

// --- decoding ---------------------------------------------------------

// frameReader is a bounds-checked cursor over one frame body. Every
// read validates the remaining length first, so truncated or forged
// frames fail with an error instead of a panic.
type frameReader struct {
	b   []byte
	off int
}

func (r *frameReader) remain() int { return len(r.b) - r.off }

func (r *frameReader) take(n int) ([]byte, error) {
	if n < 0 || r.remain() < n {
		return nil, fmt.Errorf("serveapi: frame truncated: want %d bytes, have %d", n, r.remain())
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *frameReader) u8() (byte, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *frameReader) u16() (int, error) {
	b, err := r.take(2)
	if err != nil {
		return 0, err
	}
	return int(binary.LittleEndian.Uint16(b)), nil
}

func (r *frameReader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *frameReader) str() (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	if n > maxFrameName {
		return "", fmt.Errorf("serveapi: frame name %d bytes exceeds %d", n, maxFrameName)
	}
	b, err := r.take(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// floats decodes count elements of dtype into the tail of into,
// growing it as needed. count is already validated against the
// remaining body, so the allocation is bounded by the input size.
func (r *frameReader) floats(dtype Dtype, count int, into []float64) ([]float64, error) {
	b, err := r.take(count * dtype.Size())
	if err != nil {
		return into, err
	}
	base := len(into)
	if cap(into) < base+count {
		grown := make([]float64, base, base+count)
		copy(grown, into)
		into = grown
	}
	into = into[:base+count]
	out := into[base:]
	switch dtype {
	case DtypeF32:
		for i := range out {
			out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:])))
		}
	default:
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
		}
	}
	return into, nil
}

// ErrNotAFrame reports that a byte stream does not open with the frame
// magic — the caller is probably looking at JSON or at garbage, not at
// a newer frame revision.
var ErrNotAFrame = fmt.Errorf("serveapi: not a frame (bad magic)")

// ErrFrameVersion reports a well-magic'd frame of an unsupported
// version. Servers map it to 415 so newer clients can fall back to
// JSON against older servers.
var ErrFrameVersion = fmt.Errorf("serveapi: unsupported frame version")

// decodeHeader validates the fixed header and returns (kind, dtype) and
// a reader positioned over exactly the declared body.
func decodeHeader(frame []byte) (byte, Dtype, *frameReader, error) {
	if len(frame) < FrameHeaderLen {
		return 0, 0, nil, fmt.Errorf("serveapi: frame truncated: %d-byte header, want %d", len(frame), FrameHeaderLen)
	}
	if len(frame) > MaxFrameLen {
		return 0, 0, nil, fmt.Errorf("serveapi: %d-byte frame exceeds %d", len(frame), MaxFrameLen)
	}
	if binary.LittleEndian.Uint32(frame) != FrameMagic {
		return 0, 0, nil, ErrNotAFrame
	}
	if frame[4] != FrameVersion {
		return 0, 0, nil, fmt.Errorf("%w %d (support %d)", ErrFrameVersion, frame[4], FrameVersion)
	}
	kind, dtype := frame[5], Dtype(frame[6])
	if !validDtype(dtype) {
		return 0, 0, nil, fmt.Errorf("serveapi: frame dtype %d unsupported", frame[6])
	}
	if frame[7] != 0 {
		return 0, 0, nil, fmt.Errorf("serveapi: reserved header byte %d, must be 0", frame[7])
	}
	bodyLen := int(binary.LittleEndian.Uint32(frame[8:]))
	if bodyLen != len(frame)-FrameHeaderLen {
		return 0, 0, nil, fmt.Errorf("serveapi: frame length prefix %d, body is %d bytes", bodyLen, len(frame)-FrameHeaderLen)
	}
	return kind, dtype, &frameReader{b: frame[FrameHeaderLen:]}, nil
}

// FrameDtype validates a frame's fixed header and reports the element
// dtype it declares, without decoding the body. The server's capture
// path uses it to label telemetry with the wire dtype (the decode API
// returns dtype-erased float64 records).
func FrameDtype(frame []byte) (Dtype, error) {
	_, dtype, _, err := decodeHeader(frame)
	return dtype, err
}

// InferFrame is a decoded infer request or response.
type InferFrame struct {
	Dtype Dtype
	// Model is the registry model name.
	Model string
	// Rows x Cols is the slab geometry; Data holds the row-major values
	// (decoded into the caller's buffer when one was provided).
	Rows, Cols int
	Data       []float64
}

func decodeInferFrame(frame []byte, wantKind byte, into []float64) (InferFrame, error) {
	kind, dtype, r, err := decodeHeader(frame)
	if err != nil {
		return InferFrame{}, err
	}
	if kind != wantKind {
		return InferFrame{}, fmt.Errorf("serveapi: frame kind %d, want %d", kind, wantKind)
	}
	f := InferFrame{Dtype: dtype}
	if f.Model, err = r.str(); err != nil {
		return InferFrame{}, err
	}
	rows, err := r.u32()
	if err != nil {
		return InferFrame{}, err
	}
	cols, err := r.u32()
	if err != nil {
		return InferFrame{}, err
	}
	// A zero dim paired with a nonzero one is forged geometry: it
	// carries no payload bytes, so the size check below cannot bound the
	// nonzero dim (rows=2^32-1 x cols=0 matches an empty body).
	if (rows == 0) != (cols == 0) {
		return InferFrame{}, fmt.Errorf("serveapi: degenerate frame geometry %d x %d", rows, cols)
	}
	// Validate the element count against the actual body before any
	// multiplication can overflow or oversize an allocation. The
	// division form must come first: elems*size itself can wrap uint64
	// (2^31 x 2^30 x 8 ≡ 0), so equality is only meaningful once elems
	// is known to fit the body.
	elems := uint64(rows) * uint64(cols)
	size := uint64(dtype.Size())
	if elems > uint64(r.remain())/size || elems*size != uint64(r.remain()) {
		return InferFrame{}, fmt.Errorf("serveapi: frame claims %d x %d %s payload, body holds %d bytes",
			rows, cols, dtype, r.remain())
	}
	f.Rows, f.Cols = int(rows), int(cols)
	if f.Data, err = r.floats(dtype, int(elems), into[:0]); err != nil {
		return InferFrame{}, err
	}
	return f, nil
}

// DecodeInferRequest decodes an infer-request frame. into, when
// non-nil, is reused as the Data backing store (grown only if too
// small), so steady-state decoding allocates nothing.
func DecodeInferRequest(frame []byte, into []float64) (InferFrame, error) {
	return decodeInferFrame(frame, FrameInferRequest, into)
}

// DecodeInferResponse decodes an infer-response frame into the caller's
// buffer, like DecodeInferRequest.
func DecodeInferResponse(frame []byte, into []float64) (InferFrame, error) {
	return decodeInferFrame(frame, FrameInferResponse, into)
}

// DecodeCaptureRequest decodes a capture-request frame into the named
// db and its records. Record tensors are freshly allocated — capture
// ingest hands them to the database writer, which outlives the request.
func DecodeCaptureRequest(frame []byte) (db string, recs []CaptureRecord, err error) {
	kind, dtype, r, err := decodeHeader(frame)
	if err != nil {
		return "", nil, err
	}
	if kind != FrameCaptureRequest {
		return "", nil, fmt.Errorf("serveapi: frame kind %d, want %d", kind, FrameCaptureRequest)
	}
	if db, err = r.str(); err != nil {
		return "", nil, err
	}
	n, err := r.u32()
	if err != nil {
		return "", nil, err
	}
	// Each record costs at least its fixed fields; a forged count larger
	// than the body could carry is rejected before allocating.
	const minRecord = 2 + 1 + 1 + 8
	if uint64(n)*minRecord > uint64(r.remain()) {
		return "", nil, fmt.Errorf("serveapi: frame claims %d capture records, body holds %d bytes", n, r.remain())
	}
	recs = make([]CaptureRecord, n)
	for i := range recs {
		rec := &recs[i]
		if rec.Region, err = r.str(); err != nil {
			return "", nil, err
		}
		if rec.InputShape, err = decodeShape(r, dtype.Size()); err != nil {
			return "", nil, err
		}
		if rec.OutputShape, err = decodeShape(r, dtype.Size()); err != nil {
			return "", nil, err
		}
		b, err := r.take(8)
		if err != nil {
			return "", nil, err
		}
		rec.RuntimeNS = math.Float64frombits(binary.LittleEndian.Uint64(b))
		inN, outN := numElems(rec.InputShape), numElems(rec.OutputShape)
		if uint64(inN+outN)*uint64(dtype.Size()) > uint64(r.remain()) {
			return "", nil, fmt.Errorf("serveapi: capture record %d claims %d+%d elements, body holds %d bytes",
				i, inN, outN, r.remain())
		}
		if rec.Inputs, err = r.floats(dtype, inN, nil); err != nil {
			return "", nil, err
		}
		if rec.Outputs, err = r.floats(dtype, outN, nil); err != nil {
			return "", nil, err
		}
	}
	if r.remain() != 0 {
		return "", nil, fmt.Errorf("serveapi: %d trailing bytes after capture records", r.remain())
	}
	return db, recs, nil
}

func decodeShape(r *frameReader, elemSize int) ([]int, error) {
	rank, err := r.u8()
	if err != nil {
		return nil, err
	}
	if int(rank) > maxFrameRank {
		return nil, fmt.Errorf("serveapi: frame tensor rank %d exceeds %d", rank, maxFrameRank)
	}
	shape := make([]int, rank)
	elems := uint64(1)
	for i := range shape {
		d, err := r.u32()
		if err != nil {
			return nil, err
		}
		elems *= uint64(d)
		// Shapes beyond the body's capacity are forged: the frame's own
		// dtype cannot fit that many elements in what remains. Division,
		// not elems*size, which could wrap; checking every dim also keeps
		// the running product itself far from uint64 overflow.
		if elems > uint64(len(r.b))/uint64(elemSize) {
			return nil, fmt.Errorf("serveapi: frame tensor shape overflows the frame body")
		}
		shape[i] = int(d)
	}
	return shape, nil
}
