package main

import (
	"context"
	"fmt"
	"time"

	hpacml "repro"

	"repro/internal/nn"
	"repro/internal/serveapi"
	"repro/internal/tensor"
)

// replayChunks is how many timed batches perCall takes the median of.
const replayChunks = 5

// perCall times fn from one goroutine: it sizes a batch of calls to
// last about chunk, runs replayChunks of them and returns the median
// batch's time per call.
func perCall(chunk time.Duration, fn func() error) (time.Duration, error) {
	if err := fn(); err != nil { // warm, and surface a failing layer once
		return 0, err
	}
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(start); d >= chunk {
			break
		} else if d < chunk/16 {
			n *= 8
		} else {
			n *= 2
		}
	}
	chunks := make([]float64, replayChunks)
	for c := range chunks {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		chunks[c] = float64(time.Since(start)) / float64(n)
	}
	return time.Duration(median(chunks)), nil
}

// replayModel measures the compute layers on the workload's own model
// and slab x ([rows, in]): the LocalEngine at the workload's precision,
// all three nn forward programs, and the model's dominant GEMM in all
// three element types.
func replayModel(chunk time.Duration, m *modelFile, prec precision, x []float64, rows int) (map[string]float64, error) {
	out := make(map[string]float64)
	xt, err := tensor.Wrap(x, rows, m.in)
	if err != nil {
		return nil, err
	}
	yt := tensor.New(rows, m.out)
	y := yt.Data()
	record := func(name string, fn func() error) error {
		d, err := perCall(chunk, fn)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		out[name] = perRow(d, rows)
		return nil
	}

	flops, err := m.net.FLOPsPerSample([]int{m.in})
	if err != nil {
		return nil, err
	}
	out["nn.flops_per_row"] = float64(flops)
	load, err := perCall(chunk, func() error { _, err := nn.Load(m.path); return err })
	if err != nil {
		return nil, err
	}
	out["nn.load_ms"] = float64(load) / 1e6

	// The int8 program needs a calibration; a workload that serves int8
	// has its sidecar, the others calibrate on the slab itself.
	calib, err := nn.LoadQuant(nn.QuantPath(m.path))
	if err != nil {
		if calib, err = nn.CalibrateI8(m.net, xt, nn.CalibConfig{}); err != nil {
			return nil, err
		}
	}
	f32, err := nn.NewForward32(m.net)
	if err != nil {
		return nil, err
	}
	i8, err := nn.NewForwardI8(m.net, calib)
	if err != nil {
		return nil, err
	}
	var opts []hpacml.LocalOption
	switch prec {
	case precF32:
		opts = append(opts, hpacml.WithFloat32Inference())
	case precI8:
		opts = append(opts, hpacml.WithInt8Inference())
	}
	engine := hpacml.NewLocalEngine(m.path, opts...)
	ctx := context.Background()
	for _, layer := range []struct {
		name string
		fn   func() error
	}{
		{"hpacml.local_engine_ns_per_row", func() error { return engine.Infer(ctx, xt, yt) }},
		{"nn.forward_ns_per_row.f64", func() error { return m.net.ForwardInto(yt, xt) }},
		{"nn.forward_ns_per_row.f32", func() error { return f32.ForwardFloat64(y, x, rows) }},
		{"nn.forward_ns_per_row.i8", func() error { return i8.Forward(y, x, rows) }},
	} {
		if err := record(layer.name, layer.fn); err != nil {
			return nil, err
		}
	}

	// The dominant GEMM: [rows, k] x [k, n] of the widest dense layer.
	var k, n int
	for _, e := range m.net.Layers {
		if d, ok := e.Layer.(*nn.Dense); ok && d.In*d.Out > k*n {
			k, n = d.In, d.Out
		}
	}
	gemmFlops := 2 * float64(rows) * float64(k) * float64(n)
	a, b, c := tensor.New(rows, k), tensor.New(k, n), tensor.New(rows, n)
	a32, b32, c32 := make([]float32, rows*k), make([]float32, k*n), make([]float32, rows*n)
	a8, b8, c8 := make([]int8, rows*k), make([]int8, k*n), make([]int32, rows*n)
	// Dense operands: the kernels skip zero multipliers, and this is
	// their rate when nothing can be skipped.
	for i := range a32 {
		a.Data()[i], a32[i], a8[i] = float64(i%7+1), float32(i%7+1), int8(i%7+1)
	}
	for i := range b32 {
		b.Data()[i], b32[i], b8[i] = float64(i%5+1), float32(i%5+1), int8(i%5+1)
	}
	for _, gemm := range []struct {
		name string
		fn   func() error
	}{
		{"tensor.matmul_gflops.f64", func() error { return tensor.MatMulInto(c, a, b) }},
		{"tensor.matmul_gflops.f32", func() error { return tensor.MatMulInto32(c32, a32, b32, rows, k, n) }},
		{"tensor.matmul_gflops.i8", func() error { return tensor.MatMulInt8Into(c8, a8, b8, rows, k, n) }},
	} {
		d, err := perCall(chunk, gemm.fn)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", gemm.name, err)
		}
		out[gemm.name] = gemmFlops / float64(d) // flop per ns is Gflop/s
	}
	// Computed from the shapes, not measured: f64 operand and result
	// bytes over the GEMM's flops, ignoring cache misses.
	out["tensor.matmul_bytes_per_flop"] = 8 * float64(rows*k+k*n+rows*n) / gemmFlops
	return out, nil
}

// replayExecuteBatch times Region.ExecuteBatch the way a serve replica
// drives it: a vector-in/vector-out region built through the public
// API, batch invocations staged from x.
func replayExecuteBatch(chunk time.Duration, m *modelFile, prec precision, x []float64, batch int) (float64, error) {
	in, out := make([]float64, m.in), make([]float64, m.out)
	clause := map[precision]string{precF32: " f32(on)", precI8: " quant(int8)"}[prec]
	region, err := hpacml.NewRegion("replay",
		hpacml.Directives(fmt.Sprintf(`
tensor functor(vin: [i, 0:FIN] = ([0:FIN]))
tensor functor(vout: [i, 0:FOUT] = ([0:FOUT]))
tensor map(to: vin(x[0:1]))
tensor map(from: vout(y[0:1]))
ml(infer) in(x) out(y) model(%q)%s
`, m.path, clause)),
		hpacml.BindInt("FIN", m.in), hpacml.BindInt("FOUT", m.out),
		hpacml.BindArray("x", in, m.in), hpacml.BindArray("y", out, m.out))
	if err != nil {
		return 0, err
	}
	defer region.Close()
	sink := make([]float64, batch*m.out)
	d, err := perCall(chunk, func() error {
		return region.ExecuteBatch(batch,
			func(i int) error { copy(in, x[i*m.in:(i+1)*m.in]); return nil },
			func(i int) error { copy(sink[i*m.out:], out); return nil })
	})
	return perRow(d, batch), err
}

// replayCodec times the frame codec on one request slab and its
// response, in the f64 wire dtype the workloads use and, for the
// request, in f32.
func replayCodec(chunk time.Duration, m map[string]float64, sl *slab, rows, in, out int) error {
	var frame []byte
	var into []float64
	for _, c := range []struct {
		name  string
		dtype serveapi.Dtype
		cols  int
		data  []float64
		enc   func([]byte, serveapi.Dtype, string, int, int, []float64) ([]byte, error)
		dec   func([]byte, []float64) (serveapi.InferFrame, error)
	}{
		{"request_ns_per_row", serveapi.DtypeF64, in, sl.in, serveapi.AppendInferRequest, serveapi.DecodeInferRequest},
		{"response_ns_per_row", serveapi.DtypeF64, out, sl.ref, serveapi.AppendInferResponse, serveapi.DecodeInferResponse},
		{"request_ns_per_row.f32", serveapi.DtypeF32, in, sl.in, serveapi.AppendInferRequest, serveapi.DecodeInferRequest},
	} {
		d, err := perCall(chunk, func() (err error) {
			frame, err = c.enc(frame[:0], c.dtype, servedModel, rows, c.cols, c.data)
			return err
		})
		if err != nil {
			return err
		}
		m["serveapi.encode_"+c.name] = perRow(d, rows)
		if c.name == "request_ns_per_row" {
			m["serveapi.request_bytes_per_row"] = float64(len(frame)) / float64(rows)
		}
		d, err = perCall(chunk, func() error {
			f, err := c.dec(frame, into)
			into = f.Data
			return err
		})
		if err != nil {
			return err
		}
		m["serveapi.decode_"+c.name] = perRow(d, rows)
	}
	return nil
}
