package nn

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func randTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	d := t.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return t
}

// numericalGradCheck compares analytic parameter and input gradients of a
// single-layer network against central finite differences.
func numericalGradCheck(t *testing.T, net *Network, x *tensor.Tensor, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	outShape, err := net.OutShape(x.Shape()[1:])
	if err != nil {
		t.Fatalf("OutShape: %v", err)
	}
	target := randTensor(rng, append([]int{x.Dim(0)}, outShape...)...)
	loss := MSE{}

	lossAt := func() float64 {
		pred, err := net.Forward(x)
		if err != nil {
			t.Fatalf("forward: %v", err)
		}
		v, err := loss.Value(pred, target)
		if err != nil {
			t.Fatalf("loss: %v", err)
		}
		return v
	}

	// Analytic gradients.
	net.ZeroGrad()
	pred, err := net.ForwardTrain(x)
	if err != nil {
		t.Fatalf("forward train: %v", err)
	}
	grad, err := loss.Grad(pred, target)
	if err != nil {
		t.Fatalf("loss grad: %v", err)
	}
	if err := net.Backward(grad); err != nil {
		t.Fatalf("backward: %v", err)
	}

	const eps = 1e-6
	for _, p := range net.Params() {
		w := p.W.Data()
		g := p.Grad.Data()
		// Sample a few coordinates to keep the check fast.
		idxs := []int{0, len(w) / 2, len(w) - 1}
		for _, i := range idxs {
			orig := w[i]
			w[i] = orig + eps
			up := lossAt()
			w[i] = orig - eps
			down := lossAt()
			w[i] = orig
			numeric := (up - down) / (2 * eps)
			if math.Abs(numeric-g[i]) > tol*(1+math.Abs(numeric)) {
				t.Errorf("param %s[%d]: analytic %g vs numeric %g", p.Name, i, g[i], numeric)
			}
		}
	}
}

func TestDenseForwardKnown(t *testing.T) {
	net := NewNetwork(1)
	d := net.NewDense(2, 2)
	// W = [[1,2],[3,4]], b = [10, 20]
	copy(d.Weight.W.Data(), []float64{1, 2, 3, 4})
	copy(d.Bias.W.Data(), []float64{10, 20})
	net.Add(d)
	x, _ := tensor.FromSlice([]float64{1, 1, 2, 0}, 2, 2)
	y, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	// row0: [1*1+1*3+10, 1*2+1*4+20] = [14, 26]
	// row1: [2*1+0*3+10, 2*2+0*4+20] = [12, 24]
	want := []float64{14, 26, 12, 24}
	for i, w := range want {
		if got := y.Data()[i]; math.Abs(got-w) > 1e-12 {
			t.Fatalf("y[%d] = %g, want %g", i, got, w)
		}
	}
}

func TestDenseGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewNetwork(3)
	net.Add(net.NewDense(4, 3))
	numericalGradCheck(t, net, randTensor(rng, 5, 4), 1e-5)
}

func TestMLPGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := NewNetwork(5)
	net.Add(net.NewDense(3, 8), NewActivation(ActTanh), net.NewDense(8, 2), NewActivation(ActSigmoid))
	numericalGradCheck(t, net, randTensor(rng, 4, 3), 1e-4)
}

func TestReLUGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := NewNetwork(7)
	net.Add(net.NewDense(4, 6), NewActivation(ActReLU), net.NewDense(6, 1))
	numericalGradCheck(t, net, randTensor(rng, 3, 4), 1e-4)
}

func TestLeakyReLUGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := NewNetwork(9)
	net.Add(net.NewDense(4, 4), NewActivation(ActLeakyReLU), net.NewDense(4, 2))
	numericalGradCheck(t, net, randTensor(rng, 3, 4), 1e-4)
}

func TestConv1DGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	net := NewNetwork(11)
	net.Add(net.NewConv1D(2, 3, 3, 2), NewActivation(ActTanh), NewFlatten(), net.NewDense(3*4, 2))
	// input [B, 2, 9] -> conv (k=3,s=2) -> [B, 3, 4]
	numericalGradCheck(t, net, randTensor(rng, 2, 2, 9), 1e-4)
}

func TestConv2DGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	net := NewNetwork(13)
	net.Add(net.NewConv2D(1, 2, 3, 3, 1), NewActivation(ActReLU), NewFlatten(), net.NewDense(2*4*4, 1))
	numericalGradCheck(t, net, randTensor(rng, 2, 1, 6, 6), 1e-4)
}

func TestMaxPoolGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	net := NewNetwork(15)
	net.Add(net.NewConv2D(1, 2, 2, 2, 1), NewMaxPool2D(2), NewFlatten(), net.NewDense(2*2*2, 1))
	numericalGradCheck(t, net, randTensor(rng, 2, 1, 5, 5), 1e-4)
}

func TestMaxPool1DGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	net := NewNetwork(17)
	net.Add(net.NewConv1D(1, 2, 2, 1), NewMaxPool1D(2), NewFlatten(), net.NewDense(2*3, 1))
	numericalGradCheck(t, net, randTensor(rng, 2, 1, 7), 1e-4)
}

func TestConv1DKnownValues(t *testing.T) {
	net := NewNetwork(1)
	c := net.NewConv1D(1, 1, 2, 1)
	copy(c.Weight.W.Data(), []float64{1, -1})
	copy(c.Bias.W.Data(), []float64{0.5})
	net.Add(c)
	x, _ := tensor.FromSlice([]float64{1, 3, 2, 5}, 1, 1, 4)
	y, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1 - 3 + 0.5, 3 - 2 + 0.5, 2 - 5 + 0.5}
	for i, w := range want {
		if got := y.Data()[i]; math.Abs(got-w) > 1e-12 {
			t.Fatalf("y[%d] = %g, want %g", i, got, w)
		}
	}
}

func TestMaxPool2DKnownValues(t *testing.T) {
	net := NewNetwork(1)
	net.Add(NewMaxPool2D(2))
	x, _ := tensor.FromSlice([]float64{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 1, 0, 0,
		2, 6, 0, 3,
	}, 1, 1, 4, 4)
	y, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{4, 8, 9, 3}
	for i, w := range want {
		if got := y.Data()[i]; got != w {
			t.Fatalf("pool[%d] = %g, want %g", i, got, w)
		}
	}
}

// TestMaxPool1DKnownValues pins the 1-D pool on a window that does not
// divide L (the trailing element is dropped) and on ties, where the
// first maximum wins: its position is the one Backward routes to.
func TestMaxPool1DKnownValues(t *testing.T) {
	pool := NewMaxPool1D(2)
	x, _ := tensor.FromSlice([]float64{
		1, 3, 3, 2, 5, 5, 9,
		-4, -4, 7, 1, -2, -3, 100,
	}, 1, 2, 7)
	y, err := pool.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := y.Shape(); !tensor.ShapeEqual(got, []int{1, 2, 3}) {
		t.Fatalf("pool shape %v, want [1 2 3]", got)
	}
	for i, w := range []float64{3, 3, 5, -4, 7, -2} {
		if got := y.Data()[i]; got != w {
			t.Fatalf("pool[%d] = %g, want %g", i, got, w)
		}
	}
	g, _ := tensor.FromSlice([]float64{10, 20, 30, 40, 50, 60}, 1, 2, 3)
	dx, err := pool.Backward(g)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{
		0, 10, 20, 0, 30, 0, 0,
		40, 0, 50, 0, 60, 0, 0,
	}
	for i, w := range want {
		if got := dx.Data()[i]; got != w {
			t.Fatalf("dx[%d] = %g, want %g", i, got, w)
		}
	}
}

func TestDropoutTrainVsEval(t *testing.T) {
	net := NewNetwork(21)
	net.Add(net.NewDropout(0.5))
	x := tensor.Full(1, 4, 100)
	// Inference: identity.
	y, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range y.Contiguous().Data() {
		if v != 1 {
			t.Fatal("dropout must be identity at inference")
		}
	}
	// Training: some elements zeroed, survivors scaled by 2.
	yt, err := net.ForwardTrain(x)
	if err != nil {
		t.Fatal(err)
	}
	zeros, twos := 0, 0
	for _, v := range yt.Contiguous().Data() {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected dropout output %g", v)
		}
	}
	if zeros == 0 || twos == 0 {
		t.Fatalf("dropout mask degenerate: %d zeros, %d twos", zeros, twos)
	}
}

func TestDropoutValidation(t *testing.T) {
	net := NewNetwork(1)
	net.Add(net.NewDropout(1.5))
	if _, err := net.OutShape([]int{3}); err == nil {
		t.Fatal("want error for dropout p >= 1")
	}
}

func TestOutShapeValidation(t *testing.T) {
	net := NewNetwork(1)
	net.Add(net.NewDense(4, 8), NewActivation(ActReLU), net.NewDense(8, 2))
	out, err := net.OutShape([]int{4})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != 2 {
		t.Fatalf("out shape = %v", out)
	}
	if _, err := net.OutShape([]int{5}); err == nil {
		t.Fatal("want shape mismatch error")
	}
}

func TestCNNOutShape(t *testing.T) {
	net := NewNetwork(1)
	net.Add(net.NewConv2D(1, 4, 3, 3, 2), NewMaxPool2D(2), NewFlatten())
	out, err := net.OutShape([]int{1, 21, 21})
	if err != nil {
		t.Fatal(err)
	}
	// conv: (21-3)/2+1 = 10 -> pool: 5 -> flatten: 4*5*5 = 100
	if out[0] != 100 {
		t.Fatalf("flattened = %v, want [100]", out)
	}
}

func TestNumParamsAndSummary(t *testing.T) {
	net := NewNetwork(1)
	net.Add(net.NewDense(3, 4), net.NewDense(4, 2))
	want := 3*4 + 4 + 4*2 + 2
	if got := net.NumParams(); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
	if net.Summary() == "" {
		t.Fatal("empty summary")
	}
}

func TestFLOPsPerSample(t *testing.T) {
	net := NewNetwork(1)
	net.Add(net.NewDense(10, 20), NewActivation(ActReLU), net.NewDense(20, 5))
	fl, err := net.FLOPsPerSample([]int{10})
	if err != nil {
		t.Fatal(err)
	}
	if fl < 2*(10*20+20*5) {
		t.Fatalf("FLOPs = %d, too low", fl)
	}
}

func TestTrainLearnsLinearFunction(t *testing.T) {
	// y = 2x0 - 3x1 + 1 is exactly representable: training must reach
	// near-zero loss quickly.
	rng := rand.New(rand.NewSource(31))
	n := 256
	x := randTensor(rng, n, 2)
	y := tensor.New(n, 1)
	for i := 0; i < n; i++ {
		y.Set(2*x.At(i, 0)-3*x.At(i, 1)+1, i, 0)
	}
	ds, err := NewDataset(x, y)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(33)
	net.Add(net.NewDense(2, 1))
	h, err := net.Fit(ds, nil, TrainConfig{Epochs: 200, BatchSize: 32, LR: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if h.BestVal > 1e-3 {
		t.Fatalf("linear fit did not converge: best val loss %g", h.BestVal)
	}
}

func TestTrainLearnsNonlinearFunction(t *testing.T) {
	// y = sin(x) on [-2, 2] with a small MLP.
	rng := rand.New(rand.NewSource(41))
	n := 512
	x := tensor.New(n, 1)
	y := tensor.New(n, 1)
	for i := 0; i < n; i++ {
		v := rng.Float64()*4 - 2
		x.Set(v, i, 0)
		y.Set(math.Sin(v), i, 0)
	}
	ds, _ := NewDataset(x, y)
	net := NewNetwork(43)
	net.Add(net.NewDense(1, 32), NewActivation(ActTanh), net.NewDense(32, 1))
	h, err := net.Fit(ds, nil, TrainConfig{Epochs: 150, BatchSize: 64, LR: 0.01, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if h.BestVal > 5e-3 {
		t.Fatalf("sin fit did not converge: best val loss %g", h.BestVal)
	}
}

func TestEarlyStopping(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	n := 64
	x := randTensor(rng, n, 2)
	y := randTensor(rng, n, 1) // pure noise: no signal to learn
	ds, _ := NewDataset(x, y)
	net := NewNetwork(53)
	net.Add(net.NewDense(2, 4), NewActivation(ActReLU), net.NewDense(4, 1))
	h, err := net.Fit(ds, nil, TrainConfig{Epochs: 500, BatchSize: 16, LR: 0.01, Seed: 3, Patience: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !h.Stopped {
		t.Fatal("expected early stopping on noise")
	}
	if len(h.ValLoss) >= 500 {
		t.Fatal("early stopping did not shorten training")
	}
}

// TestFitReturnsBestEpochWeights trains y = 2x from a weight of -1
// while validating against y = 0.5x, so the validation loss falls until
// the weight passes 0.5 and rises after it. The network Fit returns
// must score exactly History.BestVal, with and without early stopping.
func TestFitReturnsBestEpochWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const n = 32
	x := randTensor(rng, n, 1)
	yTrain, yVal := tensor.New(n, 1), tensor.New(n, 1)
	for i := 0; i < n; i++ {
		yTrain.Set(2*x.At(i, 0), i, 0)
		yVal.Set(0.5*x.At(i, 0), i, 0)
	}
	train, _ := NewDataset(x, yTrain)
	val, _ := NewDataset(x, yVal)
	for _, patience := range []int{0, 3} {
		net := NewNetwork(1)
		d := net.NewDense(1, 1)
		net.Add(d)
		d.Weight.W.Data()[0], d.Bias.W.Data()[0] = -1, 0
		h, err := net.Fit(train, val, TrainConfig{
			Epochs: 40, BatchSize: 8, LR: 0.02, Optimizer: "sgd", Seed: 5, Patience: patience,
		})
		if err != nil {
			t.Fatal(err)
		}
		last := len(h.ValLoss) - 1
		if h.BestEpoch >= last || h.ValLoss[last] <= h.BestVal {
			t.Fatalf("patience %d: validation loss never rose after its best epoch %d: %v", patience, h.BestEpoch, h.ValLoss)
		}
		got, err := net.Evaluate(val, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(h.BestVal) {
			t.Errorf("patience %d: returned network scores %.17g on val, History.BestVal %.17g (epoch %d of %d)",
				patience, got, h.BestVal, h.BestEpoch, last+1)
		}
	}
}

func TestFitValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	ds, _ := NewDataset(randTensor(rng, 16, 2), randTensor(rng, 16, 1))
	net := NewNetwork(1)
	net.Add(net.NewDense(2, 1))
	if _, err := net.Fit(ds, nil, TrainConfig{Epochs: 0}); err == nil {
		t.Fatal("want error for zero epochs")
	}
	if _, err := net.Fit(ds, nil, TrainConfig{Epochs: 1, Optimizer: "quantum"}); err == nil {
		t.Fatal("want error for unknown optimizer")
	}
}

func TestDatasetSplitAndGather(t *testing.T) {
	x := tensor.New(10, 2)
	y := tensor.New(10, 1)
	for i := 0; i < 10; i++ {
		x.Set(float64(i), i, 0)
		y.Set(float64(i), i, 0)
	}
	ds, _ := NewDataset(x, y)
	a, b, err := ds.Split(0.7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 7 || b.Len() != 3 {
		t.Fatalf("split sizes %d/%d", a.Len(), b.Len())
	}
	if b.X.At(0, 0) != 7 {
		t.Fatalf("second split starts at %g", b.X.At(0, 0))
	}
	g, err := ds.Gather([]int{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.X.At(0, 0) != 3 || g.X.At(1, 0) != 1 {
		t.Fatal("gather wrong order")
	}
	if _, err := ds.Gather([]int{99}); err == nil {
		t.Fatal("want out-of-range error")
	}
	if _, _, err := ds.Split(0); err == nil {
		t.Fatal("want bad fraction error")
	}
}

func TestDatasetValidation(t *testing.T) {
	if _, err := NewDataset(tensor.New(3, 2), tensor.New(4, 1)); err == nil {
		t.Fatal("want sample count mismatch error")
	}
	if _, err := NewDataset(tensor.New(3), tensor.New(3, 1)); err == nil {
		t.Fatal("want rank error")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.gmod")

	net := NewNetwork(71)
	net.Add(
		net.NewConv2D(1, 3, 3, 3, 1),
		NewActivation(ActReLU),
		NewMaxPool2D(2),
		NewFlatten(),
		net.NewDense(3*3*3, 8),
		NewActivation(ActTanh),
		net.NewDropout(0.25),
		net.NewDense(8, 2),
	)
	if err := net.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumParams() != net.NumParams() {
		t.Fatalf("param counts differ: %d vs %d", loaded.NumParams(), net.NumParams())
	}
	rng := rand.New(rand.NewSource(73))
	x := randTensor(rng, 3, 1, 8, 8)
	y1, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	y2, err := loaded.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	a, b := y1.Data(), y2.Data()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("output %d differs after reload: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestLoadCorruptedFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.gmod")
	if err := os.WriteFile(path, []byte("this is not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("want error for corrupted model file")
	}
	if _, err := Load(filepath.Join(dir, "missing.gmod")); err == nil {
		t.Fatal("want error for missing file")
	}
}

func TestLoadTruncatedFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.gmod")
	net := NewNetwork(81)
	net.Add(net.NewDense(4, 4))
	if err := net.Save(path); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.gmod")
	if err := os.WriteFile(trunc, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(trunc); err == nil {
		t.Fatal("want error for truncated model file")
	}
}

func TestLossValues(t *testing.T) {
	p, _ := tensor.FromSlice([]float64{1, 2, 3}, 1, 3)
	q, _ := tensor.FromSlice([]float64{0, 2, 5}, 1, 3)
	mse, err := MSE{}.Value(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mse-(1.0+0+4)/3) > 1e-12 {
		t.Fatalf("mse = %g", mse)
	}
	mae, err := MAE{}.Value(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mae-1) > 1e-12 {
		t.Fatalf("mae = %g", mae)
	}
	if _, err := (MSE{}).Value(p, tensor.New(2, 2)); err == nil {
		t.Fatal("want shape mismatch error")
	}
}

func TestMAEGradSigns(t *testing.T) {
	p, _ := tensor.FromSlice([]float64{1, 2, 3}, 1, 3)
	q, _ := tensor.FromSlice([]float64{0, 2, 5}, 1, 3)
	g, err := MAE{}.Grad(p, q)
	if err != nil {
		t.Fatal(err)
	}
	d := g.Data()
	if d[0] <= 0 || d[1] != 0 || d[2] >= 0 {
		t.Fatalf("mae grad = %v", d)
	}
}

func TestSGDMomentumStep(t *testing.T) {
	net := NewNetwork(1)
	d := net.NewDense(1, 1)
	net.Add(d)
	d.Weight.W.Data()[0] = 1
	d.Weight.Grad.Data()[0] = 1
	d.Bias.Grad.Data()[0] = 0
	opt := NewSGD(0.1, 0.9, 0)
	if err := opt.Step(net.Params()); err != nil {
		t.Fatal(err)
	}
	if got := d.Weight.W.Data()[0]; math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("after step 1: %g, want 0.9", got)
	}
	// Momentum accumulates: velocity = 0.9*1 + 1 = 1.9.
	d.Weight.Grad.Data()[0] = 1
	if err := opt.Step(net.Params()); err != nil {
		t.Fatal(err)
	}
	if got := d.Weight.W.Data()[0]; math.Abs(got-(0.9-0.19)) > 1e-12 {
		t.Fatalf("after step 2: %g, want 0.71", got)
	}
}

func TestOptimizerValidation(t *testing.T) {
	if err := NewSGD(0, 0, 0).Step(nil); err == nil {
		t.Fatal("want lr error")
	}
	if err := NewAdam(-1, 0).Step(nil); err == nil {
		t.Fatal("want lr error")
	}
}

func TestBackwardWithoutForwardFails(t *testing.T) {
	net := NewNetwork(1)
	net.Add(net.NewDense(2, 2))
	if err := net.Backward(tensor.New(1, 2)); err == nil {
		t.Fatal("want error for backward without cached forward")
	}
}

// Property: save/load round-trips preserve forward outputs exactly for
// random MLP architectures.
func TestPropSaveLoadPreservesOutputs(t *testing.T) {
	dir := t.TempDir()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := 1 + rng.Intn(6)
		hidden := 1 + rng.Intn(16)
		out := 1 + rng.Intn(4)
		net := NewNetwork(seed)
		acts := []string{ActReLU, ActTanh, ActSigmoid, ActLeakyReLU}
		net.Add(net.NewDense(in, hidden), NewActivation(acts[rng.Intn(len(acts))]), net.NewDense(hidden, out))
		path := filepath.Join(dir, "prop.gmod")
		if err := net.Save(path); err != nil {
			return false
		}
		loaded, err := Load(path)
		if err != nil {
			return false
		}
		x := randTensor(rng, 1+rng.Intn(4), in)
		y1, err := net.Forward(x)
		if err != nil {
			return false
		}
		y2, err := loaded.Forward(x)
		if err != nil {
			return false
		}
		a, b := y1.Data(), y2.Data()
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: inference is deterministic — two forward passes agree.
func TestPropForwardDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net := NewNetwork(seed)
		net.Add(net.NewDense(3, 8), NewActivation(ActTanh), net.NewDropout(0.5), net.NewDense(8, 2))
		x := randTensor(rng, 4, 3)
		y1, err := net.Forward(x)
		if err != nil {
			return false
		}
		y2, err := net.Forward(x)
		if err != nil {
			return false
		}
		a, b := y1.Data(), y2.Data()
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorIO(t *testing.T) {
	net := NewNetwork(1)
	net.Add(net.NewDense(7, 16), NewActivation(ActTanh), net.NewDense(16, 3))
	in, out, err := net.VectorIO()
	if err != nil || in != 7 || out != 3 {
		t.Fatalf("VectorIO = %d, %d, %v; want 7, 3, nil", in, out, err)
	}

	// A leading ChannelAffine (the standardization wrapper) pins the
	// width through its block structure.
	wrapped := NewNetwork(4)
	wrapped.Add(
		NewChannelAffine(1, []float64{1, 2, 3}, nil),
		wrapped.NewDense(3, 8), NewActivation(ActReLU), wrapped.NewDense(8, 2),
		NewChannelAffine(1, []float64{5, 7}, nil),
	)
	if in, out, err := wrapped.VectorIO(); err != nil || in != 3 || out != 2 {
		t.Fatalf("VectorIO = %d, %d, %v; want 3, 2, nil", in, out, err)
	}

	// Conv-first networks can't self-describe their input width.
	cnn := NewNetwork(2)
	cnn.Add(cnn.NewConv1D(1, 2, 3, 1), NewFlatten(), cnn.NewDense(12, 1))
	if _, _, err := cnn.VectorIO(); err == nil {
		t.Fatal("want error for conv-first network")
	}
	if _, _, err := NewNetwork(3).VectorIO(); err == nil {
		t.Fatal("want error for empty network")
	}
}
