package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// reluMLP is the benchmark's model shape: Dense layers of the given
// widths with ReLU between them and a linear output layer.
func reluMLP(seed int64, widths ...int) *Network {
	net := NewNetwork(seed)
	for i := 0; i+1 < len(widths); i++ {
		net.Add(net.NewDense(widths[i], widths[i+1]))
		if i+2 < len(widths) {
			net.Add(NewActivation(ActReLU))
		}
	}
	return net
}

// rowLoopDense is the oracle for the f64 dense kernel: one output row at
// a time, the bias first, then every nonzero x_k * W[k][j] added in
// ascending k.
func rowLoopDense(x, w, bias []float64, rows, in, out int) []float64 {
	y := make([]float64, rows*out)
	for r := 0; r < rows; r++ {
		orow := y[r*out : (r+1)*out]
		copy(orow, bias)
		for k, xv := range x[r*in : (r+1)*in] {
			if xv == 0 {
				continue
			}
			for j := range orow {
				orow[j] += xv * w[k*out+j]
			}
		}
	}
	return y
}

// rowLoopAct is the oracle's activation, written out per element.
func rowLoopAct(fn string, v float64) float64 {
	switch fn {
	case ActReLU:
		if v > 0 {
			return v
		}
		return 0
	case ActLeakyReLU:
		if v > 0 {
			return v
		}
		return 0.01 * v
	case ActTanh:
		return math.Tanh(v)
	case ActSigmoid:
		return 1 / (1 + math.Exp(-v))
	}
	return v
}

// rowLoopForward evaluates net layer by layer with the oracle loops. It
// returns every Dense layer's input alongside the output, so MatMulInto
// can be checked on the same operands.
func rowLoopForward(t *testing.T, net *Network, x []float64, rows, cols int) (y []float64, denseIn [][]float64) {
	t.Helper()
	cur := append([]float64(nil), x...)
	for _, e := range net.Layers {
		switch l := e.Layer.(type) {
		case *Dense:
			denseIn = append(denseIn, cur)
			cur = rowLoopDense(cur, l.Weight.W.Data(), l.Bias.W.Data(), rows, l.In, l.Out)
			cols = l.Out
		case *Activation:
			for i, v := range cur {
				cur[i] = rowLoopAct(l.Fn, v)
			}
		case *Affine:
			for i, v := range cur {
				cur[i] = l.Scale*v + l.Shift
			}
		case *ChannelAffine:
			for i, v := range cur {
				b := (i % cols) / l.BlockLen
				cur[i] = l.Scales[b]*v + l.Shifts[b]
			}
		default:
			t.Fatalf("oracle has no loop for %s", l.Kind())
		}
	}
	return cur, denseIn
}

// sameBits is bitwise equality, except that any two NaNs match: which
// payload survives a NaN + NaN depends on operand order, which neither
// loop pins.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func assertSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// denseKernelInputs draws rows of in features: mostly normal, with whole
// zero rows (both signs of zero), scattered zeros, and, when special is
// set, ±Inf and NaN entries.
func denseKernelInputs(rng *rand.Rand, rows, in int, special bool) []float64 {
	negZero := math.Copysign(0, -1)
	x := make([]float64, rows*in)
	for r := 0; r < rows; r++ {
		row := x[r*in : (r+1)*in]
		if rng.Intn(8) == 0 {
			for i := range row {
				row[i] = []float64{0, negZero}[rng.Intn(2)]
			}
			continue
		}
		for i := range row {
			switch v := rng.Intn(24); {
			case v < 4:
				row[i] = []float64{0, negZero}[v%2]
			case special && v == 4:
				row[i] = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
			default:
				row[i] = rng.NormFloat64()
			}
		}
	}
	return x
}

// TestDenseKernelMatchesRowLoop is the bitwise differential test of the
// packed f64 kernel, fused activations included: Forward, ForwardInto
// and MatMulInto on every Dense layer's input equal the plain row-loop
// oracle in every bit, for random MLPs and the benchmark's small and
// wide shapes, at zero, one, odd and parallel-split row counts. Some
// biases are -0 (a zero row must keep it), and some inputs are ±Inf or
// NaN (a skipped zero must never meet an infinite weight).
func TestDenseKernelMatchesRowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	type model struct {
		name    string
		net     *Network
		in, out int
	}
	var models []model
	for i := 0; i < 40; i++ {
		net, in, out := randomMLP(rng)
		models = append(models, model{fmt.Sprintf("random%d", i), net, in, out})
	}
	// mixed has the activations randomMLP never draws, and two that no
	// Dense precedes, so they run unfused (the tanh one over enough
	// elements to take the chunked parallel map).
	mixed := NewNetwork(5)
	mixed.Add(NewAffine(0.5, 0.1), NewActivation(ActSigmoid),
		mixed.NewDense(5, 16), NewAffine(1.5, -0.2), NewActivation(ActTanh),
		mixed.NewDense(16, 9), NewActivation(ActLeakyReLU),
		mixed.NewDense(9, 8), NewActivation(ActIdentity), mixed.NewDense(8, 3))
	models = append(models,
		model{"small", reluMLP(11, 3, 64, 32, 1), 3, 1},
		model{"wide", reluMLP(11, 64, 512, 512, 16), 64, 16},
		model{"mixed", mixed, 5, 3})
	for mi, m := range models {
		for _, p := range m.net.Params() {
			if p.Name == "bias" && mi%2 == 0 {
				p.W.Data()[0] = math.Copysign(0, -1)
			}
		}
		for _, rows := range []int{0, 1, 7, 9, 600} {
			x := denseKernelInputs(rng, rows, m.in, rows%2 == 1)
			want, denseIn := rowLoopForward(t, m.net, x, rows, m.in)
			xt, err := tensor.FromSlice(x, rows, m.in)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/rows=%d", m.name, rows)
			got, err := m.net.Forward(xt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			assertSameBits(t, name+" Forward", got.Data(), want)
			dst := tensor.Full(math.NaN(), rows, m.out)
			if err := m.net.ForwardInto(dst, xt); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			assertSameBits(t, name+" ForwardInto", dst.Data(), want)
			di := 0
			for _, e := range m.net.Layers {
				d, ok := e.Layer.(*Dense)
				if !ok {
					continue
				}
				a, err := tensor.FromSlice(denseIn[di], rows, d.In)
				if err != nil {
					t.Fatal(err)
				}
				c := tensor.Full(math.NaN(), rows, d.Out)
				if err := tensor.MatMulInto(c, a, d.Weight.W); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				assertSameBits(t, fmt.Sprintf("%s MatMulInto dense %d", name, di), c.Data(),
					rowLoopDense(denseIn[di], d.Weight.W.Data(), make([]float64, d.Out), rows, d.In, d.Out))
				di++
			}
		}
	}
}

// TestForwardSeesInPlaceWeightWrites pins that no forward pass keeps a
// copy of the weights between calls: after Param.W.Data() and the bias
// are rewritten in place, Forward equals a fresh network built with the
// new values, bit for bit. numericalGradCheck depends on it.
func TestForwardSeesInPlaceWeightWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, rows := range []int{1, 600} {
		net := reluMLP(3, 6, 40, 24, 2)
		x, err := tensor.FromSlice(denseKernelInputs(rng, rows, 6, false), rows, 6)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.Forward(x); err != nil {
			t.Fatal(err)
		}
		fresh := reluMLP(99, 6, 40, 24, 2)
		for i, p := range net.Params() {
			d := p.W.Data()
			for j := range d {
				d[j] = 1.5*d[j] + 0.25*rng.NormFloat64()
			}
			copy(fresh.Params()[i].W.Data(), d)
		}
		got, err := net.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		assertSameBits(t, fmt.Sprintf("rows=%d", rows), got.Data(), want.Data())
	}
}

// TestFrozenForwardMatchesPerCall is the differential test of Freeze:
// a frozen network's Forward and ForwardInto equal the same network's
// per-call outputs, taken before it was frozen, in every bit. It covers
// random MLPs, the benchmark's small and wide shapes and a
// Residual-wrapped body, at zero, one, short, odd and parallel-split row
// counts, with -0 biases and ±Inf/NaN inputs.
func TestFrozenForwardMatchesPerCall(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	type model struct {
		name    string
		net     *Network
		in, out int
	}
	var models []model
	for i := 0; i < 40; i++ {
		net, in, out := randomMLP(rng)
		models = append(models, model{fmt.Sprintf("random%d", i), net, in, out})
	}
	body := NewNetwork(7)
	body.Add(body.NewDense(12, 40), NewActivation(ActReLU), body.NewDense(40, 12))
	residual := NewNetwork(8)
	residual.Add(residual.NewDense(5, 12), NewActivation(ActTanh), NewResidual(body), residual.NewDense(12, 3))
	models = append(models,
		model{"small", reluMLP(11, 3, 64, 32, 1), 3, 1},
		model{"wide", reluMLP(11, 64, 512, 512, 16), 64, 16},
		model{"residual", residual, 5, 3})
	rowCounts := []int{0, 1, 7, 8, 9, 33, 600}
	for mi, m := range models {
		for _, p := range m.net.Params() {
			if p.Name == "bias" && mi%2 == 0 {
				p.W.Data()[0] = math.Copysign(0, -1)
			}
		}
		inputs := make([]*tensor.Tensor, len(rowCounts))
		want := make([][]float64, len(rowCounts))
		for i, rows := range rowCounts {
			x, err := tensor.FromSlice(denseKernelInputs(rng, rows, m.in, rows%2 == 1), rows, m.in)
			if err != nil {
				t.Fatal(err)
			}
			y, err := m.net.Forward(x)
			if err != nil {
				t.Fatalf("%s/rows=%d per call: %v", m.name, rows, err)
			}
			inputs[i], want[i] = x, y.Data()
		}
		m.net.Freeze()
		for i, rows := range rowCounts {
			name := fmt.Sprintf("%s/rows=%d", m.name, rows)
			got, err := m.net.Forward(inputs[i])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			assertSameBits(t, name+" frozen Forward", got.Data(), want[i])
			dst := tensor.Full(math.NaN(), rows, m.out)
			if err := m.net.ForwardInto(dst, inputs[i]); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			assertSameBits(t, name+" frozen ForwardInto", dst.Data(), want[i])
		}
	}
	if !body.frozen {
		t.Fatal("Freeze did not reach the Residual body")
	}
}

// TestFrozenNetworkRefusesTraining pins the contract of Freeze: the
// network must not be written afterwards, so ForwardTrain and Fit fail
// instead of training weights that inference no longer reads, and leave
// the weights as they were. A second Freeze keeps the packed copy.
func TestFrozenNetworkRefusesTraining(t *testing.T) {
	body := NewNetwork(2)
	body.Add(body.NewDense(4, 4))
	net := reluMLP(1, 4, 16, 4)
	net.Add(NewResidual(body))
	var before [][]float64
	for _, p := range net.Params() {
		before = append(before, append([]float64(nil), p.W.Data()...))
	}
	net.Freeze()
	packed := net.Layers[0].Layer.(*Dense).packed
	net.Freeze()
	if net.Layers[0].Layer.(*Dense).packed != packed {
		t.Fatal("a second Freeze repacked the weights")
	}
	rng := rand.New(rand.NewSource(4))
	x := randTensor(rng, 8, 4)
	if _, err := net.ForwardTrain(x); err == nil {
		t.Fatal("ForwardTrain on a frozen network succeeded")
	}
	if _, err := body.ForwardTrain(x); err == nil {
		t.Fatal("ForwardTrain on a frozen Residual body succeeded")
	}
	ds := &Dataset{X: x, Y: randTensor(rng, 8, 4)}
	if _, err := net.Fit(ds, nil, TrainConfig{Epochs: 2, BatchSize: 4, LR: 0.1, Seed: 1}); err == nil {
		t.Fatal("Fit on a frozen network succeeded")
	}
	for i, p := range net.Params() {
		assertSameBits(t, fmt.Sprintf("param %d after refused training", i), p.W.Data(), before[i])
	}
}

// BenchmarkForwardF64 times Network.ForwardInto on the benchmark's two
// f64 model shapes: small (3-64-32-1, binomial-range inputs) over a
// whole 8192-row portfolio, and wide (64-512-512-16) on one 32-row
// batch. The one-row cases are a single Region.Execute or a serve tail
// batch, where the per-call cost shows. Each case runs twice: per-call,
// which packs the weights on every call, and frozen, which reads them
// packed once by Freeze, as LocalEngine does. ns/row is the figure to
// compare.
func BenchmarkForwardF64(b *testing.B) {
	for _, tc := range []struct {
		name   string
		widths []int
		rows   int
	}{
		{"small/b8192", []int{3, 64, 32, 1}, 8192},
		{"small/b1", []int{3, 64, 32, 1}, 1},
		{"wide/b32", []int{64, 512, 512, 16}, 32},
		{"wide/b1", []int{64, 512, 512, 16}, 1},
	} {
		net := reluMLP(11, tc.widths...)
		in, out := tc.widths[0], tc.widths[len(tc.widths)-1]
		rng := rand.New(rand.NewSource(11))
		x := tensor.New(tc.rows, in)
		xd := x.Data()
		for i := range xd {
			xd[i] = 2*rng.Float64() - 1
		}
		if in == 3 {
			for i := 0; i < len(xd); i += 3 {
				xd[i], xd[i+1], xd[i+2] = 5+25*rng.Float64(), 1+99*rng.Float64(), 0.25+9.75*rng.Float64()
			}
		}
		y := tensor.New(tc.rows, out)
		frozen := reluMLP(11, tc.widths...)
		frozen.Freeze()
		for _, arm := range []struct {
			name string
			net  *Network
		}{{"per-call", net}, {"frozen", frozen}} {
			b.Run(tc.name+"/"+arm.name, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if err := arm.net.ForwardInto(y, x); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tc.rows), "ns/row")
			})
		}
	}
}
