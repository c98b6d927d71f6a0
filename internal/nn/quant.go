package nn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/tensor"
)

// Int8 post-training quantization: the calibration record a network
// needs before it can run on the ForwardI8 path. Weights need no
// calibration — their ranges are known exactly and are quantized
// per output channel at compile time — but activations do: each dense
// segment's input and pre-activation distributions are observed on
// captured inputs (CalibrateI8), reduced to ranges by max-abs or
// percentile trimming, and persisted in a ".quant" sidecar beside the
// .gmod (QuantPath), mirroring the guardrail's ".guard" idiom. The
// sidecar also records the accuracy-gate verdict stamped by the fit
// step, so an engine loading it can refuse a calibration that never
// passed.

// QuantRange is one observed activation range [Lo, Hi].
type QuantRange struct {
	Lo, Hi float64
}

// Calibration modes (CalibConfig.Mode).
const (
	// QuantMaxAbs reduces each observation point to the symmetric
	// envelope [-max|v|, +max|v|] — every calibration value is exactly
	// representable, outliers cost resolution.
	QuantMaxAbs = "maxabs"
	// QuantPercentile reduces each observation point to the asymmetric
	// [q, 1-q] quantile range — robust to capture outliers, values
	// outside the range saturate.
	QuantPercentile = "percentile"
)

// CalibConfig controls CalibrateI8.
type CalibConfig struct {
	// Mode is QuantMaxAbs (the default when empty) or QuantPercentile.
	Mode string
	// Q is the tail fraction trimmed per side in percentile mode, in
	// [0, 0.5); 0.001 keeps the 0.1%..99.9% range.
	Q float64
	// MaxRows caps the calibration rows consumed (0 means the default
	// of 4096) — range estimates saturate quickly and the percentile
	// sort is O(rows · width) memory.
	MaxRows int
}

// QuantCalib is a fitted calibration: per dense segment, the input
// range (Bounds[s]; Bounds[0] is the model input) and the post-dense
// pre-activation range (Preacts[s]), plus the accuracy-gate verdict the
// fit step stamped. InDim/OutDim pin the model geometry the calibration
// was fitted for, and Weights the exact weights, so a sidecar cannot
// silently requantize a retrained model.
type QuantCalib struct {
	InDim, OutDim int
	// Weights is the Network.Sum of the network the ranges were
	// observed on (the sha256 of its .gmod file). NewForwardI8 refuses
	// any other network.
	Weights [sha256.Size]byte
	Bounds  []QuantRange
	Preacts []QuantRange

	// GateErr is the mean relative L2 of the int8 path against the
	// float64 reference on held-out captures; GateRTol is the tolerance
	// it was gated at. The fit step refuses to write a sidecar whose
	// GateErr exceeds GateRTol, and LocalEngine refuses to enable the
	// path unless GatePassed.
	GateErr  float64
	GateRTol float64
}

// Segments returns the calibrated dense-segment count.
func (c *QuantCalib) Segments() int { return len(c.Bounds) }

// GatePassed reports whether the recorded accuracy gate held: a finite
// error within the recorded tolerance.
func (c *QuantCalib) GatePassed() bool {
	return !math.IsNaN(c.GateErr) && !math.IsInf(c.GateErr, 0) && c.GateErr <= c.GateRTol
}

// QuantPath is the sidecar naming convention: the calibration of model
// "m.gmod" lives at "m.gmod.quant", beside the weights it quantizes.
func QuantPath(modelPath string) string { return modelPath + ".quant" }

// CalibrateI8 observes the activation ranges of net on x, a
// [rows, features...] slab of captured model-layout inputs, and returns
// the calibration, bound to net's weights (with an unstamped gate:
// GateErr NaN). The network must be compilable by the int8 path — dense
// segments with elementwise tails — and every calibration value must
// be finite; a NaN or Inf anywhere in the observed activations fails
// the fit rather than poisoning a range.
func CalibrateI8(net *Network, x *tensor.Tensor, cfg CalibConfig) (*QuantCalib, error) {
	prelude, segs, inDim, outDim, err := compileSegments(net)
	if err != nil {
		return nil, err
	}
	weights, err := net.Sum()
	if err != nil {
		return nil, err
	}
	mode := cfg.Mode
	if mode == "" {
		mode = QuantMaxAbs
	}
	if mode != QuantMaxAbs && mode != QuantPercentile {
		return nil, fmt.Errorf("nn: unknown calibration mode %q", cfg.Mode)
	}
	if cfg.Q < 0 || cfg.Q >= 0.5 {
		return nil, fmt.Errorf("nn: calibration quantile %g out of [0, 0.5)", cfg.Q)
	}
	if x == nil || x.Rank() < 2 || x.Dim(0) == 0 {
		return nil, fmt.Errorf("nn: calibration wants a non-empty [rows, features...] slab")
	}
	rows := x.Dim(0)
	if x.Len()/rows != inDim {
		return nil, fmt.Errorf("nn: calibration rows have %d features, model wants %d", x.Len()/rows, inDim)
	}
	maxRows := cfg.MaxRows
	if maxRows <= 0 {
		maxRows = 4096
	}
	if rows > maxRows {
		rows = maxRows
	}
	cur := x.Contiguous().Data()[:rows*inDim]
	if len(prelude) > 0 {
		// Bounds[0] is the post-normalization input range: the quantizer
		// runs the prelude in float64 before encoding, so that is the
		// distribution its 256 codes must cover.
		normed := make([]float64, len(cur))
		for i, v := range cur {
			normed[i] = tailEval(prelude, i%inDim, v)
		}
		cur = normed
	}
	c := &QuantCalib{InDim: inDim, OutDim: outDim, Weights: weights, GateErr: math.NaN()}
	cols := inDim
	for s := range segs {
		r, err := observeRange(cur, mode, cfg.Q)
		if err != nil {
			return nil, fmt.Errorf("nn: calibrating segment %d input: %w", s, err)
		}
		c.Bounds = append(c.Bounds, r)
		// Dense: cur [rows, cols] @ w [cols, out] + bias.
		seg := &segs[s]
		out := make([]float64, rows*seg.outCols)
		xt, _ := tensor.Wrap(cur, rows, cols)
		wt, _ := tensor.Wrap(seg.w, cols, seg.outCols)
		ot, _ := tensor.Wrap(out, rows, seg.outCols)
		if err := tensor.MatMulInto(ot, xt, wt); err != nil {
			return nil, fmt.Errorf("nn: calibrating segment %d: %w", s, err)
		}
		for i := range out {
			out[i] += seg.b[i%seg.outCols]
		}
		r, err = observeRange(out, mode, cfg.Q)
		if err != nil {
			return nil, fmt.Errorf("nn: calibrating segment %d pre-activation: %w", s, err)
		}
		c.Preacts = append(c.Preacts, r)
		for i := range out {
			out[i] = tailEval(seg.tail, i%seg.outCols, out[i])
		}
		cur, cols = out, seg.outCols
	}
	return c, nil
}

// observeRange reduces a value slab to its calibration range.
func observeRange(vals []float64, mode string, q float64) (QuantRange, error) {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return QuantRange{}, fmt.Errorf("non-finite activation %g in calibration set", v)
		}
	}
	if mode == QuantMaxAbs {
		m := 0.0
		for _, v := range vals {
			if a := math.Abs(v); a > m {
				m = a
			}
		}
		return QuantRange{Lo: -m, Hi: m}, nil
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	return QuantRange{Lo: quantileAt(sorted, q), Hi: quantileAt(sorted, 1-q)}, nil
}

// quantileAt reads quantile q from sorted by linear interpolation
// (the guardrail's estimator, repeated here to keep nn free of the
// root package).
func quantileAt(sorted []float64, q float64) float64 {
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

// The sidecar format follows the .gmod idiom: little-endian, magic +
// version header, implausibility-guarded lengths, self-contained.
// Version 2 added the weights checksum after the header; version 1
// sidecars, which name no weights, are refused.
const (
	quantMagic    = 0x38544e51 // "QNT8"
	quantVersion  = 2
	quantMaxSegs  = 1 << 16
	quantMaxWidth = 1 << 24
)

// Encode writes the calibration in sidecar format.
func (c *QuantCalib) Encode(w io.Writer) error {
	if len(c.Bounds) == 0 || len(c.Bounds) != len(c.Preacts) {
		return fmt.Errorf("nn: encoding malformed calibration (%d bounds, %d preacts)", len(c.Bounds), len(c.Preacts))
	}
	if c.InDim <= 0 || c.OutDim <= 0 || c.InDim > quantMaxWidth || c.OutDim > quantMaxWidth {
		return fmt.Errorf("nn: encoding calibration with implausible geometry %d -> %d", c.InDim, c.OutDim)
	}
	var buf bytes.Buffer
	for _, v := range []uint32{quantMagic, quantVersion, uint32(c.InDim), uint32(c.OutDim), uint32(len(c.Bounds))} {
		binary.Write(&buf, binary.LittleEndian, v)
	}
	buf.Write(c.Weights[:])
	binary.Write(&buf, binary.LittleEndian, c.GateErr)
	binary.Write(&buf, binary.LittleEndian, c.GateRTol)
	for _, r := range c.Bounds {
		binary.Write(&buf, binary.LittleEndian, r.Lo)
		binary.Write(&buf, binary.LittleEndian, r.Hi)
	}
	for _, r := range c.Preacts {
		binary.Write(&buf, binary.LittleEndian, r.Lo)
		binary.Write(&buf, binary.LittleEndian, r.Hi)
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// SaveQuant writes the sidecar file at path (conventionally
// QuantPath(modelPath)).
func (c *QuantCalib) SaveQuant(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// DecodeQuant reads a sidecar-format calibration.
func DecodeQuant(r io.Reader) (*QuantCalib, error) {
	var hdr [5]uint32
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("nn: quant sidecar header: %w", err)
	}
	if hdr[0] != quantMagic {
		return nil, fmt.Errorf("nn: not a quant sidecar (magic %#x)", hdr[0])
	}
	if hdr[1] == 1 {
		return nil, fmt.Errorf("nn: quant sidecar version 1 names no weights; refit it")
	}
	if hdr[1] != quantVersion {
		return nil, fmt.Errorf("nn: unsupported quant sidecar version %d", hdr[1])
	}
	c := &QuantCalib{InDim: int(hdr[2]), OutDim: int(hdr[3])}
	n := int(hdr[4])
	if c.InDim <= 0 || c.OutDim <= 0 || c.InDim > quantMaxWidth || c.OutDim > quantMaxWidth {
		return nil, fmt.Errorf("nn: implausible quant sidecar geometry %d -> %d", c.InDim, c.OutDim)
	}
	if n == 0 || n > quantMaxSegs {
		return nil, fmt.Errorf("nn: implausible quant sidecar segment count %d", n)
	}
	if _, err := io.ReadFull(r, c.Weights[:]); err != nil {
		return nil, fmt.Errorf("nn: quant sidecar weights: %w", err)
	}
	if err := binary.Read(r, binary.LittleEndian, &c.GateErr); err != nil {
		return nil, fmt.Errorf("nn: quant sidecar gate: %w", err)
	}
	if err := binary.Read(r, binary.LittleEndian, &c.GateRTol); err != nil {
		return nil, fmt.Errorf("nn: quant sidecar gate: %w", err)
	}
	c.Bounds = make([]QuantRange, n)
	c.Preacts = make([]QuantRange, n)
	for _, rs := range [2][]QuantRange{c.Bounds, c.Preacts} {
		for i := range rs {
			if err := binary.Read(r, binary.LittleEndian, &rs[i].Lo); err != nil {
				return nil, fmt.Errorf("nn: quant sidecar ranges: %w", err)
			}
			if err := binary.Read(r, binary.LittleEndian, &rs[i].Hi); err != nil {
				return nil, fmt.Errorf("nn: quant sidecar ranges: %w", err)
			}
			if rs[i].Lo > rs[i].Hi || math.IsNaN(rs[i].Lo) || math.IsNaN(rs[i].Hi) {
				return nil, fmt.Errorf("nn: quant sidecar range %d inverted or NaN [%g, %g]", i, rs[i].Lo, rs[i].Hi)
			}
		}
	}
	return c, nil
}

// LoadQuant reads the sidecar file at path.
func LoadQuant(path string) (*QuantCalib, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := DecodeQuant(f)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return c, nil
}
