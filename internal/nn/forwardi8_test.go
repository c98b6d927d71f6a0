package nn

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// calibSlab draws a [rows, cols] calibration slab from the same
// distribution the accuracy checks evaluate on.
func calibSlab(seed int64, rows, cols int, spread float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	s := make([]float64, rows*cols)
	for i := range s {
		s[i] = rng.NormFloat64() * spread
	}
	return s
}

// meanRelL2 is the gate metric: mean over rows of ‖pred−ref‖₂ /
// max(‖ref‖₂, eps).
func meanRelL2(pred, ref []float64, rows, cols int) float64 {
	total := 0.0
	for r := 0; r < rows; r++ {
		var dn, rn float64
		for j := 0; j < cols; j++ {
			d := pred[r*cols+j] - ref[r*cols+j]
			dn += d * d
			rn += ref[r*cols+j] * ref[r*cols+j]
		}
		total += math.Sqrt(dn) / math.Max(math.Sqrt(rn), 1e-12)
	}
	return total / float64(rows)
}

func f64Forward(t testing.TB, net *Network, in []float64, rows, inDim int) []float64 {
	t.Helper()
	x, err := tensor.FromSlice(append([]float64(nil), in...), rows, inDim)
	if err != nil {
		t.Fatal(err)
	}
	out, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	return out.Contiguous().Data()
}

// TestForwardI8Accuracy: on the quickstart h16 MLP, the int8 path
// calibrated from in-distribution inputs must track the float64
// reference within a few percent mean relative L2 — the engine-level
// gate's default rtol with margin.
func TestForwardI8Accuracy(t *testing.T) {
	net := quickstartNet()
	calibX, err := tensor.FromSlice(calibSlab(21, 512, 5, 3), 512, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{QuantMaxAbs, QuantPercentile} {
		calib, err := CalibrateI8(net, calibX, CalibConfig{Mode: mode, Q: 0.001})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if calib.Segments() != 2 || calib.InDim != 5 || calib.OutDim != 1 {
			t.Fatalf("%s: calibrated %d segments %d->%d, want 2 segments 5->1",
				mode, calib.Segments(), calib.InDim, calib.OutDim)
		}
		f, err := NewForwardI8(net, calib)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		const rows = 257
		in := calibSlab(77, rows, 5, 3)
		ref := f64Forward(t, net, in, rows, 5)
		got := make([]float64, rows)
		if err := f.Forward(got, in, rows); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if e := meanRelL2(got, ref, rows, 1); !(e < 0.05) {
			t.Fatalf("%s: int8 mean relative L2 %g vs f64, want < 0.05", mode, e)
		}
	}
}

// TestForwardI8AllLayers covers every compilable layer kind — multiple
// dense segments, all four activations, affine and channel-affine tails
// (the per-column exact path), and the inference-identity dropout —
// under two calibrations. The one-sided case feeds strictly positive
// features through sigmoid tails shifted above zero and calibrates by
// percentile, so every segment's input range excludes 0 and its zero
// point falls outside int8: the kernel must centre on the clamped code
// while the epilogue keeps correcting with the true zero point.
func TestForwardI8AllLayers(t *testing.T) {
	symmetric := NewNetwork(11)
	symmetric.Add(
		symmetric.NewDense(6, 12),
		NewActivation(ActLeakyReLU),
		symmetric.NewDropout(0.3), // identity at inference
		symmetric.NewDense(12, 8),
		NewActivation(ActSigmoid),
		NewChannelAffine(4, []float64{2, -3}, []float64{0.25, 0}),
		symmetric.NewDense(8, 3),
		NewActivation(ActReLU),
	)
	oneSided := NewNetwork(11)
	oneSided.Add(
		oneSided.NewDense(6, 12),
		NewActivation(ActSigmoid),
		NewAffine(2, 0.5), // (0.5, 2.5), table epilogue
		oneSided.NewDense(12, 8),
		NewActivation(ActSigmoid),
		NewChannelAffine(4, []float64{2, 3}, []float64{0.25, 1}), // exact epilogue
		oneSided.NewDense(8, 3),
		NewActivation(ActTanh),
	)
	for _, tc := range []struct {
		name     string
		net      *Network
		shift    float64 // added to the N(0,1) features
		cfg      CalibConfig
		oneSided bool
	}{
		{"symmetric", symmetric, 0, CalibConfig{}, false},
		{"one-sided", oneSided, 5, CalibConfig{Mode: QuantPercentile, Q: 0.001}, true},
	} {
		slab := func(seed int64, rows int) []float64 {
			s := calibSlab(seed, rows, 6, 1)
			for i := range s {
				s[i] += tc.shift
			}
			return s
		}
		calibX, err := tensor.FromSlice(slab(5, 800), 800, 6)
		if err != nil {
			t.Fatal(err)
		}
		calib, err := CalibrateI8(tc.net, calibX, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if calib.Segments() != 3 {
			t.Fatalf("%s: calibrated %d segments, want 3", tc.name, calib.Segments())
		}
		f, err := NewForwardI8(tc.net, calib)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for s, r := range calib.Bounds {
			q, err := rangeQParams(r)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if outside := q.zero < -128 || q.zero > 127; outside != tc.oneSided {
				t.Fatalf("%s: segment %d zero point %d for range [%g, %g], want outside int8 = %v",
					tc.name, s, q.zero, r.Lo, r.Hi, tc.oneSided)
			}
			if want := int8(min(max(q.zero, -128), 127)); f.segs[s].centre != want {
				t.Fatalf("%s: segment %d centre %d, want the clamped zero point %d", tc.name, s, f.segs[s].centre, want)
			}
		}
		const rows = 33
		in := slab(6, rows)
		ref := f64Forward(t, tc.net, in, rows, 6)
		got := make([]float64, rows*3)
		if err := f.Forward(got, in, rows); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if e := meanRelL2(got, ref, rows, 3); !(e < 0.15) {
			t.Fatalf("%s: int8 mean relative L2 %g vs f64 across 3 quantized segments, want < 0.15", tc.name, e)
		}
	}
}

// TestForwardI8Prelude: a standardization-wrapped MLP — per-feature
// ChannelAffine normalization in, denormalization out, raw wide-range
// features on very different scales — compiles with the elementwise
// prelude fused into input quantization. The int8 path must track the
// float64 reference, and the calibrated input bounds must be the
// post-prelude (normalized) range, not the raw feature range: the int8
// grid is spent on what the first dense layer actually sees.
func TestForwardI8Prelude(t *testing.T) {
	const inF, outF = 4, 2
	scales := []float64{100, 0.01, 7, 1}   // raw per-feature spreads
	shifts := []float64{50, -0.3, 0, -200} // raw per-feature offsets
	inScale := make([]float64, inF)
	inShift := make([]float64, inF)
	for j := range scales {
		inScale[j] = 1 / scales[j]
		inShift[j] = -shifts[j] / scales[j]
	}
	net := NewNetwork(31)
	net.Add(
		NewChannelAffine(1, inScale, inShift),
		net.NewDense(inF, 16),
		NewActivation(ActReLU),
		net.NewDense(16, outF),
		NewChannelAffine(1, []float64{3, 40}, []float64{-1, 250}),
	)
	raw := func(seed int64, rows int) []float64 {
		s := calibSlab(seed, rows, inF, 1)
		for i := range s {
			j := i % inF
			s[i] = s[i]*scales[j] + shifts[j]
		}
		return s
	}
	calibX, err := tensor.FromSlice(raw(41, 600), 600, inF)
	if err != nil {
		t.Fatal(err)
	}
	calib, err := CalibrateI8(net, calibX, CalibConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if calib.Segments() != 2 {
		t.Fatalf("calibrated %d segments, want 2", calib.Segments())
	}
	if lo, hi := calib.Bounds[0].Lo, calib.Bounds[0].Hi; lo < -8 || hi > 8 {
		t.Fatalf("input bounds [%g, %g] look like raw features, want the normalized post-prelude range", lo, hi)
	}
	f, err := NewForwardI8(net, calib)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 47
	in := raw(42, rows)
	ref := f64Forward(t, net, in, rows, inF)
	got := make([]float64, rows*outF)
	if err := f.Forward(got, in, rows); err != nil {
		t.Fatal(err)
	}
	if e := meanRelL2(got, ref, rows, outF); !(e < 0.05) {
		t.Fatalf("prelude int8 mean relative L2 %g vs f64, want < 0.05", e)
	}
}

// TestForwardI8Rejections pins the compile- and calibration-time
// refusals: unsupported layers, geometry and segment-count mismatches,
// and NaN-poisoned calibration data.
func TestForwardI8Rejections(t *testing.T) {
	conv := NewNetwork(3)
	conv.Add(conv.NewConv1D(2, 4, 3, 1), NewFlatten(), conv.NewDense(40, 2))
	convX, _ := tensor.FromSlice(make([]float64, 4*20), 4, 2, 10)
	if _, err := CalibrateI8(conv, convX, CalibConfig{}); err == nil {
		t.Fatal("conv model must fail int8 calibration")
	}

	net := quickstartNet()
	x, _ := tensor.FromSlice(calibSlab(1, 64, 5, 1), 64, 5)
	calib, err := CalibrateI8(net, x, CalibConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewForwardI8(net, nil); err == nil {
		t.Fatal("nil calibration must fail")
	}
	other := NewNetwork(2)
	other.Add(other.NewDense(5, 3))
	if _, err := NewForwardI8(other, calib); err == nil {
		t.Fatal("geometry mismatch must fail")
	}
	deeper := NewNetwork(2)
	deeper.Add(deeper.NewDense(5, 7), NewActivation(ActTanh), deeper.NewDense(7, 7), deeper.NewDense(7, 1))
	if _, err := NewForwardI8(deeper, calib); err == nil {
		t.Fatal("segment-count mismatch must fail")
	}

	poisoned := calibSlab(1, 64, 5, 1)
	poisoned[17] = math.NaN()
	px, _ := tensor.FromSlice(poisoned, 64, 5)
	if _, err := CalibrateI8(net, px, CalibConfig{}); err == nil {
		t.Fatal("NaN calibration data must fail the fit")
	}
	if _, err := CalibrateI8(net, x, CalibConfig{Mode: "nonsense"}); err == nil {
		t.Fatal("unknown mode must fail")
	}
	if _, err := CalibrateI8(net, x, CalibConfig{Mode: QuantPercentile, Q: 0.7}); err == nil {
		t.Fatal("out-of-range quantile must fail")
	}
}

// TestQuantSidecarRoundTrip: Save/Load must reproduce the calibration
// exactly (the ranges are raw float64 bits on disk), the header must
// open with the pinned magic, and corrupted sidecars must be refused.
func TestQuantSidecarRoundTrip(t *testing.T) {
	c := &QuantCalib{
		InDim: 5, OutDim: 1,
		Bounds:  []QuantRange{{-3.25, 3.5}, {-0.875, 0.9921875}},
		Preacts: []QuantRange{{-11.5, 7.75}, {-2.125, 2.25}},
		GateErr: 0.0123, GateRTol: 0.05,
	}
	path := filepath.Join(t.TempDir(), "m.gmod.quant")
	if err := c.SaveQuant(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadQuant(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.InDim != c.InDim || got.OutDim != c.OutDim ||
		got.GateErr != c.GateErr || got.GateRTol != c.GateRTol {
		t.Fatalf("round trip changed header: %+v vs %+v", got, c)
	}
	for i := range c.Bounds {
		if got.Bounds[i] != c.Bounds[i] || got.Preacts[i] != c.Preacts[i] {
			t.Fatalf("round trip changed range %d: %+v / %+v", i, got.Bounds[i], got.Preacts[i])
		}
	}
	if !got.GatePassed() {
		t.Fatal("recorded passing gate must survive the round trip")
	}

	// Golden header: the first 8 bytes are the pinned magic + version.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte{0x51, 0x4e, 0x54, 0x38, 0x01, 0x00, 0x00, 0x00}; !bytes.Equal(raw[:8], want) {
		t.Fatalf("sidecar header %x, want %x (format drift)", raw[:8], want)
	}

	if _, err := DecodeQuant(bytes.NewReader(raw[:20])); err == nil {
		t.Fatal("truncated sidecar must fail")
	}
	bad := append([]byte(nil), raw...)
	bad[0] ^= 0xff
	if _, err := DecodeQuant(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic must fail")
	}
	// An inverted range is rejected at decode, not at first use.
	inv := &QuantCalib{InDim: 2, OutDim: 1,
		Bounds: []QuantRange{{5, -5}}, Preacts: []QuantRange{{0, 1}}, GateErr: 0.1, GateRTol: 0.2}
	var buf bytes.Buffer
	if err := inv.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeQuant(&buf); err == nil {
		t.Fatal("inverted range must fail decode")
	}
}

// TestQuantGateSemantics pins GatePassed across passing, failing, and
// NaN-stamped calibrations — the verdict LocalEngine keys off.
func TestQuantGateSemantics(t *testing.T) {
	cases := []struct {
		name     string
		err, tol float64
		pass     bool
	}{
		{"passing", 0.01, 0.05, true},
		{"exactly-at-tol", 0.05, 0.05, true},
		{"failing", 0.2, 0.05, false},
		{"nan-unstamped", math.NaN(), 0.05, false},
		{"inf", math.Inf(1), 0.05, false},
	}
	for _, tc := range cases {
		c := &QuantCalib{GateErr: tc.err, GateRTol: tc.tol}
		if got := c.GatePassed(); got != tc.pass {
			t.Fatalf("%s: GatePassed = %v, want %v", tc.name, got, tc.pass)
		}
	}
}

// TestForwardI8Concurrent: one compiled program, many goroutines. The
// pooled scratch must keep results identical to the serial run.
func TestForwardI8Concurrent(t *testing.T) {
	net := quickstartNet()
	x, _ := tensor.FromSlice(calibSlab(3, 256, 5, 2), 256, 5)
	calib, err := CalibrateI8(net, x, CalibConfig{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewForwardI8(net, calib)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 17
	mk := func(seed int64) []float64 { return calibSlab(seed, rows, 5, 2) }
	refs := make([][]float64, 8)
	for g := range refs {
		refs[g] = make([]float64, rows)
		if err := f.Forward(refs[g], mk(int64(g)), rows); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for iter := 0; iter < 8; iter++ {
		for g := range refs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got := make([]float64, rows)
				if err := f.Forward(got, mk(int64(g)), rows); err != nil {
					errCh <- err
					return
				}
				for i := range got {
					if got[i] != refs[g][i] {
						errCh <- fmt.Errorf("goroutine %d row %d: %g != %g", g, i, got[i], refs[g][i])
						return
					}
				}
			}(g)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// refForwardI8 is the differential reference for ForwardI8.Forward: the
// weights requantized from net, a naive widening int32 GEMM over a full
// [rows, n] slab, and f's own epilogue constants applied element by
// element — no packing, no centring, no lists, no row fusion. Integer
// accumulation is exact and the epilogue arithmetic is the same
// expression, so Forward must match it bit for bit.
func refForwardI8(t *testing.T, net *Network, f *ForwardI8, x []float64, rows int) []float64 {
	t.Helper()
	prelude, segs, inDim, _, err := compileSegments(net)
	if err != nil {
		t.Fatal(err)
	}
	cur := make([]int8, len(x))
	inv := 1 / f.inScale
	for i, v := range x {
		cur[i] = roundSatI8(tailEval(prelude, i%inDim, v)*inv + float64(f.inZero))
	}
	for si := range segs {
		seg, q := &segs[si], &f.segs[si]
		k, n := seg.inCols, seg.outCols
		qw := make([]int8, k*n)
		for j := 0; j < n; j++ {
			m := 0.0
			for kk := 0; kk < k; kk++ {
				m = math.Max(m, math.Abs(seg.w[kk*n+j]))
			}
			if m == 0 {
				m = 1
			}
			for kk := 0; kk < k; kk++ {
				qw[kk*n+j] = roundSatI8(seg.w[kk*n+j] / (m / 127))
			}
		}
		acc := make([]int32, rows*n)
		for i := 0; i < rows; i++ {
			for j := 0; j < n; j++ {
				var sum int32
				for kk := 0; kk < k; kk++ {
					sum += int32(cur[i*k+kk]) * int32(qw[kk*n+j])
				}
				acc[i*n+j] = sum
			}
		}
		if q.final {
			out := make([]float64, rows*n)
			for i, a := range acc {
				j := i % n
				out[i] = tailEval(q.tail, j, q.deqScale[j]*float64(a)+q.deqOff[j])
			}
			return out
		}
		next := make([]int8, rows*n)
		for i, a := range acc {
			j := i % n
			if q.perCol {
				v := tailEval(q.tail, j, q.deqScale[j]*float64(a)+q.deqOff[j])
				next[i] = roundSatI8(v*q.outInvScale + float64(q.outZero))
			} else {
				next[i] = q.lut[int(roundSatI16f32(q.mult[j]*float32(a)+q.off[j]))+32768]
			}
		}
		cur = next
	}
	t.Fatal("program has no final segment")
	return nil
}

// randomMLP draws a vector MLP the int8 path compiles: one to four
// dense layers of width 1..48 (odd and unit widths included), ReLU /
// tanh / sigmoid / no activation, Affine and ChannelAffine tails, and an
// optional normalization prelude.
func randomMLP(rng *rand.Rand) (*Network, int, int) {
	chanAffine := func(width int) *ChannelAffine {
		blocks := 1
		for _, b := range []int{4, 3, 2} {
			if width%b == 0 && rng.Intn(2) == 0 {
				blocks = b
				break
			}
		}
		scales, shifts := make([]float64, blocks), make([]float64, blocks)
		for i := range scales {
			scales[i] = 0.5 + 2*rng.Float64()
			if rng.Intn(3) == 0 {
				scales[i] = -scales[i]
			}
			shifts[i] = rng.NormFloat64()
		}
		return NewChannelAffine(width/blocks, scales, shifts)
	}
	width := func() int {
		if rng.Intn(5) == 0 {
			return 1
		}
		return 1 + rng.Intn(48)
	}
	net := NewNetwork(rng.Int63())
	inDim := width()
	switch rng.Intn(3) {
	case 1:
		net.Add(NewAffine(0.5+rng.Float64(), rng.NormFloat64()))
	case 2:
		net.Add(chanAffine(inDim))
	}
	cols := inDim
	for depth := 1 + rng.Intn(4); depth > 0; depth-- {
		out := width()
		net.Add(net.NewDense(cols, out))
		cols = out
		if act := []string{ActReLU, ActTanh, ActSigmoid, ""}[rng.Intn(4)]; act != "" {
			net.Add(NewActivation(act))
		}
		switch rng.Intn(4) {
		case 1:
			net.Add(NewAffine(0.5+rng.Float64(), rng.NormFloat64()))
		case 2:
			net.Add(chanAffine(cols))
		}
	}
	return net, inDim, cols
}

// TestForwardI8MatchesReference is the bitwise differential test of the
// fused path: over randomly generated MLPs and both calibration modes,
// Forward equals refForwardI8 in every output bit — including batches
// wide enough to take the parallel row split, single rows and no rows.
func TestForwardI8MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		net, inDim, outDim := randomMLP(rng)
		spread := 0.5 + 2*rng.Float64()
		shift := 0.0
		if rng.Intn(3) == 0 {
			shift = 4 * rng.NormFloat64() // one-sided input ranges
		}
		slab := func(rows int) []float64 {
			s := calibSlab(rng.Int63(), rows, inDim, spread)
			for i := range s {
				s[i] += shift
			}
			return s
		}
		calibX, err := tensor.FromSlice(slab(300), 300, inDim)
		if err != nil {
			t.Fatal(err)
		}
		cfg := CalibConfig{}
		if trial%2 == 1 {
			cfg = CalibConfig{Mode: QuantPercentile, Q: 0.01}
		}
		calib, err := CalibrateI8(net, calibX, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		f, err := NewForwardI8(net, calib)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, rows := range []int{0, 1, 1 + rng.Intn(40), 600} {
			in := slab(rows)
			want := refForwardI8(t, net, f, in, rows)
			got := make([]float64, rows*outDim)
			if err := f.Forward(got, in, rows); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d (%s, %d -> %d, %d segments) rows %d element %d: got %v, want %v",
						trial, cfg.Mode, inDim, outDim, len(f.segs), rows, i, got[i], want[i])
				}
			}
		}
	}
}

// TestForwardI8SteadyStateAllocs: once the pooled scratch — the
// activation slabs here, the index/value lists and lane accumulator in
// tensor — has grown to the batch, Forward allocates nothing. (Batches
// past the GEMM's parallel threshold pay for their goroutines, like the
// float paths.)
func TestForwardI8SteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	net := NewNetwork(5)
	net.Add(net.NewDense(9, 33), NewActivation(ActReLU), net.NewDense(33, 20), NewActivation(ActTanh),
		NewChannelAffine(10, []float64{2, -1}, []float64{0, 1}), net.NewDense(20, 3))
	x, _ := tensor.FromSlice(calibSlab(3, 256, 9, 2), 256, 9)
	calib, err := CalibrateI8(net, x, CalibConfig{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewForwardI8(net, calib)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 40
	in, out := calibSlab(4, rows, 9, 2), make([]float64, rows*3)
	if allocs := testing.AllocsPerRun(100, func() {
		if err := f.Forward(out, in, rows); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("steady-state Forward allocates %v times per call, want 0", allocs)
	}
}

// TestForwardI8DepthBound: a dense layer wider than the kernel's
// exactness bound must fail compilation — stay on the wider path — not
// overflow an accumulator lane at serve time.
func TestForwardI8DepthBound(t *testing.T) {
	for _, tc := range []struct {
		in int
		ok bool
	}{{tensor.MaxInt8Depth, true}, {tensor.MaxInt8Depth + 1, false}} {
		net := NewNetwork(1)
		net.Add(net.NewDense(tc.in, 2))
		calib := &QuantCalib{InDim: tc.in, OutDim: 2,
			Bounds: []QuantRange{{-1, 1}}, Preacts: []QuantRange{{-4, 4}}}
		if _, err := NewForwardI8(net, calib); (err == nil) != tc.ok {
			t.Fatalf("%d inputs: NewForwardI8 error %v, want ok = %v", tc.in, err, tc.ok)
		}
	}
}

// FuzzDecodeQuant: the sidecar decoder never panics on truncated or
// forged input; whatever it accepts re-encodes to the bytes it was read
// from; and compiling a network of the decoded geometry under the
// decoded ranges either fails or yields a program whose Forward runs.
func FuzzDecodeQuant(f *testing.F) {
	golden := &QuantCalib{
		InDim: 5, OutDim: 1,
		Bounds:  []QuantRange{{-3.25, 3.5}, {-0.875, 0.9921875}},
		Preacts: []QuantRange{{-11.5, 7.75}, {-2.125, 2.25}},
		GateErr: 0.0123, GateRTol: 0.05,
	}
	var buf bytes.Buffer
	if err := golden.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	raw := buf.Bytes()
	f.Add(raw)
	f.Add(raw[:20])
	f.Add(raw[:len(raw)-1])
	f.Add(append([]byte{0xae}, raw[1:]...))
	oneSided := *golden
	oneSided.Bounds = []QuantRange{{2, 9}, {1e-300, 1e300}}
	oneSided.GateErr = math.NaN()
	buf.Reset()
	if err := oneSided.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), buf.Bytes()...))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeQuant(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := c.Encode(&out); err != nil {
			t.Fatalf("accepted sidecar does not re-encode: %v", err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("re-encoded sidecar differs from the accepted bytes:\n%x\n%x", out.Bytes(), data)
		}
		if c.InDim > 64 || c.OutDim > 64 || c.Segments() > 4 {
			return // a forged geometry is refused by the size check alone
		}
		net := NewNetwork(1)
		cols := c.InDim
		for s := 1; s < c.Segments(); s++ {
			net.Add(net.NewDense(cols, 7), NewActivation(ActTanh))
			cols = 7
		}
		net.Add(net.NewDense(cols, c.OutDim))
		prog, err := NewForwardI8(net, c)
		if err != nil {
			return
		}
		const rows = 3
		if err := prog.Forward(make([]float64, rows*c.OutDim), calibSlab(1, rows, c.InDim, 1), rows); err != nil {
			t.Fatalf("compiled program refuses a well-formed batch: %v", err)
		}
	})
}

// BenchmarkForwardI8vsF32 is the acceptance benchmark: on the h16
// quickstart MLP the int8 path must beat the f32 path by ≥ 1.3x — tiny
// k and n = 1 must not pay for the packing. Both run through their
// float64 engine seams, so the comparison includes each path's staging
// conversions — exactly what the serve hot path pays. The tanh MLP shows
// the matmul-bound regime with dense activations; the ReLU one is the
// serve-sized model, calibrated by percentile so the hidden zero points
// are non-zero codes: its exact zeros are skipped only because the
// kernel centres on the zero point, which is the regression this case
// exists to show. It cycles through 64 seeded input slabs, because the
// serve path sees fresh rows: a branch predictor that has learned one
// repeated batch's codes would flatter a kernel that branches on them.
func BenchmarkForwardI8vsF32(b *testing.B) {
	cases := []struct {
		name   string
		widths []int
		rows   int
		act    string
		cfg    CalibConfig
		slabs  int // distinct input slabs the timed loop cycles through
	}{
		{"h16/b64", []int{5, 16, 1}, 64, ActTanh, CalibConfig{}, 1},
		{"h16/b1024", []int{5, 16, 1}, 1024, ActTanh, CalibConfig{}, 1},
		{"h256x256/b256", []int{64, 256, 256, 8}, 256, ActTanh, CalibConfig{}, 1},
		{"relu-h512x512/b32", []int{64, 512, 512, 16}, 32, ActReLU, CalibConfig{Mode: QuantPercentile, Q: 0.001}, 64},
	}
	for _, tc := range cases {
		net := NewNetwork(7)
		for i := 0; i < len(tc.widths)-1; i++ {
			net.Add(net.NewDense(tc.widths[i], tc.widths[i+1]))
			if i < len(tc.widths)-2 {
				net.Add(NewActivation(tc.act))
			}
		}
		inDim, outDim := tc.widths[0], tc.widths[len(tc.widths)-1]
		ins := make([][]float64, tc.slabs)
		for i := range ins {
			ins[i] = calibSlab(int64(1+i), tc.rows, inDim, 1)
		}
		x, _ := tensor.FromSlice(append([]float64(nil), ins[0]...), tc.rows, inDim)
		calib, err := CalibrateI8(net, x, tc.cfg)
		if err != nil {
			b.Fatal(err)
		}
		f32, err := NewForward32(net)
		if err != nil {
			b.Fatal(err)
		}
		fi8, err := NewForwardI8(net, calib)
		if err != nil {
			b.Fatal(err)
		}
		if tc.act == ActReLU && fi8.segs[1].centre == 0 {
			b.Fatalf("%s: hidden zero point is code 0, the case cannot show a lost skip", tc.name)
		}
		out := make([]float64, tc.rows*outDim)
		b.Run("f32/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := f32.ForwardFloat64(out, ins[i%len(ins)], tc.rows); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("i8/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := fi8.Forward(out, ins[i%len(ins)], tc.rows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
