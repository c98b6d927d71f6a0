package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// reluZeroed draws normal values with about a third of them zeroed, the
// way a ReLU masks activations and the gradients flowing back through it.
func reluZeroed(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data() {
		if rng.Intn(3) != 0 {
			t.Data()[i] = rng.NormFloat64()
		}
	}
	return t
}

// denseRefGrads is the plain-loop oracle for Dense.Backward into zeroed
// gradients: dB adds G's rows in order; dW = XᵀG adds x*g over the rows
// ascending from +0, skipping zero x; dX = GWᵀ is, per element, a dot
// product over the outputs from +0.
func denseRefGrads(x, g, w []float64, rows, in, out int) (dW, dB, dX []float64) {
	dB = make([]float64, out)
	for r := 0; r < rows; r++ {
		for j, gv := range g[r*out : (r+1)*out] {
			dB[j] += gv
		}
	}
	dW = make([]float64, in*out)
	for i := 0; i < in; i++ {
		for r := 0; r < rows; r++ {
			xv := x[r*in+i]
			if xv == 0 {
				continue
			}
			for j := 0; j < out; j++ {
				dW[i*out+j] += xv * g[r*out+j]
			}
		}
	}
	dX = make([]float64, rows*in)
	for r := 0; r < rows; r++ {
		for i := 0; i < in; i++ {
			var s float64
			for j := 0; j < out; j++ {
				s += g[r*out+j] * w[i*out+j]
			}
			dX[r*in+i] = s
		}
	}
	return dW, dB, dX
}

// conv1dIm2colRef is the Conv1D oracle in im2col order, into zeroed
// gradients. Each output is its patch times the kernel summed over
// (ic, t) from +0, plus the bias. dB adds one per-sample row sum at a
// time. dW adds g*x over (n, p) ascending from +0, skipping zero g. Each
// patch gradient is a sum over oc from +0, skipping zero g, and is added
// into dX in (n, p, ic, t) order.
func conv1dIm2colRef(c *Conv1D, x, g []float64, b, l int) (y, dW, dB, dX []float64) {
	inC, outC, k, s := c.InC, c.OutC, c.K, c.Stride
	lOut := (l-k)/s + 1
	w, bias := c.Weight.W.Data(), c.Bias.W.Data()
	y = make([]float64, b*outC*lOut)
	for n := 0; n < b; n++ {
		for p := 0; p < lOut; p++ {
			for oc := 0; oc < outC; oc++ {
				var acc float64
				for ic := 0; ic < inC; ic++ {
					for t := 0; t < k; t++ {
						acc += x[(n*inC+ic)*l+p*s+t] * w[(oc*inC+ic)*k+t]
					}
				}
				y[(n*outC+oc)*lOut+p] = acc + bias[oc]
			}
		}
	}
	dB = make([]float64, outC)
	for n := 0; n < b; n++ {
		for oc := 0; oc < outC; oc++ {
			var sum float64
			for _, gv := range g[(n*outC+oc)*lOut : (n*outC+oc+1)*lOut] {
				sum += gv
			}
			dB[oc] += sum
		}
	}
	dW = make([]float64, outC*inC*k)
	for oc := 0; oc < outC; oc++ {
		for ic := 0; ic < inC; ic++ {
			for t := 0; t < k; t++ {
				var acc float64
				for n := 0; n < b; n++ {
					for p := 0; p < lOut; p++ {
						if gv := g[(n*outC+oc)*lOut+p]; gv != 0 {
							acc += gv * x[(n*inC+ic)*l+p*s+t]
						}
					}
				}
				dW[(oc*inC+ic)*k+t] += acc
			}
		}
	}
	dX = make([]float64, b*inC*l)
	for n := 0; n < b; n++ {
		for p := 0; p < lOut; p++ {
			for ic := 0; ic < inC; ic++ {
				for t := 0; t < k; t++ {
					var acc float64
					for oc := 0; oc < outC; oc++ {
						if gv := g[(n*outC+oc)*lOut+p]; gv != 0 {
							acc += gv * w[(oc*inC+ic)*k+t]
						}
					}
					dX[(n*inC+ic)*l+p*s+t] += acc
				}
			}
		}
	}
	return y, dW, dB, dX
}

// conv2dDirectRef is the direct-loop Conv2D oracle, into zeroed
// gradients, with the kernel and bias passed in so that absolute values
// give each output's sum of absolute terms. Each output starts at the
// bias and adds one per-channel sum over (ky, kx); the backward walks
// (n, oc, ic, oy, ox, ky, kx), skipping zero g, and adds g*x into dW and
// g*w into dX term by term.
func conv2dDirectRef(c *Conv2D, x, g, w, bias []float64, b, h, wd int) (y, dW, dB, dX []float64) {
	inC, outC, kh, kw, s := c.InC, c.OutC, c.KH, c.KW, c.Stride
	hOut, wOut := (h-kh)/s+1, (wd-kw)/s+1
	y = make([]float64, b*outC*hOut*wOut)
	dW = make([]float64, outC*inC*kh*kw)
	dB = make([]float64, outC)
	dX = make([]float64, b*inC*h*wd)
	for n := 0; n < b; n++ {
		for oc := 0; oc < outC; oc++ {
			oImg := y[(n*outC+oc)*hOut*wOut : (n*outC+oc+1)*hOut*wOut]
			gImg := g[(n*outC+oc)*hOut*wOut : (n*outC+oc+1)*hOut*wOut]
			for p := range oImg {
				oImg[p] = bias[oc]
			}
			for _, gv := range gImg {
				dB[oc] += gv
			}
			for ic := 0; ic < inC; ic++ {
				xImg := x[(n*inC+ic)*h*wd : (n*inC+ic+1)*h*wd]
				dxImg := dX[(n*inC+ic)*h*wd : (n*inC+ic+1)*h*wd]
				wKer := w[(oc*inC+ic)*kh*kw : (oc*inC+ic+1)*kh*kw]
				dWKer := dW[(oc*inC+ic)*kh*kw : (oc*inC+ic+1)*kh*kw]
				for oy := 0; oy < hOut; oy++ {
					for ox := 0; ox < wOut; ox++ {
						var acc float64
						for ky := 0; ky < kh; ky++ {
							for kx := 0; kx < kw; kx++ {
								acc += xImg[(oy*s+ky)*wd+ox*s+kx] * wKer[ky*kw+kx]
							}
						}
						oImg[oy*wOut+ox] += acc
						gv := gImg[oy*wOut+ox]
						if gv == 0 {
							continue
						}
						for ky := 0; ky < kh; ky++ {
							for kx := 0; kx < kw; kx++ {
								idx := (oy*s+ky)*wd + ox*s + kx
								dWKer[ky*kw+kx] += gv * xImg[idx]
								dxImg[idx] += gv * wKer[ky*kw+kx]
							}
						}
					}
				}
			}
		}
	}
	return y, dW, dB, dX
}

func absOf(v []float64) []float64 {
	a := make([]float64, len(v))
	for i, x := range v {
		a[i] = math.Abs(x)
	}
	return a
}

// assertWithinTerms checks |got - want| <= 1e-12 * absTerms element by
// element: a reassociated sum may differ from the oracle's by rounding
// only.
func assertWithinTerms(t *testing.T, what string, got, want, absTerms []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12*absTerms[i] {
			t.Fatalf("%s: element %d = %v, want %v (terms %v)", what, i, got[i], want[i], absTerms[i])
		}
	}
}

// layerStep runs one training forward and one backward of l into zeroed
// gradients, checks that the inference forward returns the same bits,
// and returns the output and the input gradient.
func layerStep(t *testing.T, name string, l Layer, x, g *tensor.Tensor) (y, dx *tensor.Tensor) {
	t.Helper()
	for _, p := range l.Params() {
		p.ZeroGrad()
	}
	y, err := l.Forward(x, true)
	if err != nil {
		t.Fatalf("%s: forward: %v", name, err)
	}
	y = y.Clone() // the training output is an arena the next call reuses
	dx, err = l.Backward(g)
	if err != nil {
		t.Fatalf("%s: backward: %v", name, err)
	}
	yi, err := l.Forward(x, false)
	if err != nil {
		t.Fatalf("%s: inference forward: %v", name, err)
	}
	assertSameBits(t, name+" inference forward", yi.Data(), y.Data())
	return y, dx
}

// TestLayerGradsMatchReference pins the forward output and the dW, dB
// and dX of Dense, Conv1D and Conv2D against plain-loop oracles. Dense
// and Conv1D match bit for bit, as does Conv2D's dW, whose terms keep
// the oracle's order (every batch here is one patch block); Conv2D's
// output, dX and dB reassociate their sums and match within 1e-12 of
// each element's sum of absolute terms. About a third of every input
// and gradient is zero, as behind a ReLU.
func TestLayerGradsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, rows := range []int{1, 7, 9, 33} {
		// (in, out): fewer and more than 8 outputs, and a product large
		// enough to split across workers.
		for _, dims := range [][2]int{{5, 16}, {16, 1}, {3, 64}, {64, 32}, {64, 512}} {
			in, out := dims[0], dims[1]
			name := fmt.Sprintf("Dense(%d->%d)/rows=%d", in, out, rows)
			d := NewNetwork(int64(rows)).NewDense(in, out)
			x, g := reluZeroed(rng, rows, in), reluZeroed(rng, rows, out)
			y, dx := layerStep(t, name, d, x, g)
			assertSameBits(t, name+" forward", y.Data(),
				rowLoopDense(x.Data(), d.Weight.W.Data(), d.Bias.W.Data(), rows, in, out))
			dW, dB, dX := denseRefGrads(x.Data(), g.Data(), d.Weight.W.Data(), rows, in, out)
			assertSameBits(t, name+" dW", d.Weight.Grad.Data(), dW)
			assertSameBits(t, name+" dB", d.Bias.Grad.Data(), dB)
			assertSameBits(t, name+" dX", dx.Data(), dX)
		}
		// (inC, outC, k, stride, l)
		for _, cs := range [][5]int{{2, 4, 3, 1, 11}, {2, 4, 3, 2, 11}, {4, 16, 5, 1, 40}, {3, 9, 2, 2, 17}} {
			inC, outC, k, s, l := cs[0], cs[1], cs[2], cs[3], cs[4]
			name := fmt.Sprintf("Conv1D(%d->%d,k=%d,s=%d)/L=%d/rows=%d", inC, outC, k, s, l, rows)
			c := NewNetwork(int64(rows)).NewConv1D(inC, outC, k, s)
			x, g := reluZeroed(rng, rows, inC, l), reluZeroed(rng, rows, outC, (l-k)/s+1)
			y, dx := layerStep(t, name, c, x, g)
			wantY, dW, dB, dX := conv1dIm2colRef(c, x.Data(), g.Data(), rows, l)
			assertSameBits(t, name+" forward", y.Data(), wantY)
			assertSameBits(t, name+" dW", c.Weight.Grad.Data(), dW)
			assertSameBits(t, name+" dB", c.Bias.Grad.Data(), dB)
			assertSameBits(t, name+" dX", dx.Data(), dX)
		}
		// (inC, outC, kh, kw, stride, h, w)
		for _, cs := range [][7]int{{2, 3, 3, 2, 1, 9, 8}, {2, 3, 3, 2, 2, 9, 8}, {1, 4, 4, 4, 2, 16, 16}, {3, 5, 1, 3, 1, 4, 7}} {
			inC, outC, kh, kw, s, h, w := cs[0], cs[1], cs[2], cs[3], cs[4], cs[5], cs[6]
			name := fmt.Sprintf("Conv2D(%d->%d,k=%dx%d,s=%d)/%dx%d/rows=%d", inC, outC, kh, kw, s, h, w, rows)
			c := NewNetwork(int64(rows)).NewConv2D(inC, outC, kh, kw, s)
			x, g := reluZeroed(rng, rows, inC, h, w), reluZeroed(rng, rows, outC, (h-kh)/s+1, (w-kw)/s+1)
			y, dx := layerStep(t, name, c, x, g)
			wd, bd := c.Weight.W.Data(), c.Bias.W.Data()
			wantY, dW, dB, dX := conv2dDirectRef(c, x.Data(), g.Data(), wd, bd, rows, h, w)
			absY, _, absB, absX := conv2dDirectRef(c, absOf(x.Data()), absOf(g.Data()), absOf(wd), absOf(bd), rows, h, w)
			assertWithinTerms(t, name+" forward", y.Data(), wantY, absY)
			assertSameBits(t, name+" dW", c.Weight.Grad.Data(), dW)
			assertWithinTerms(t, name+" dB", c.Bias.Grad.Data(), dB, absB)
			assertWithinTerms(t, name+" dX", dx.Data(), dX, absX)
		}
	}
}

// TestConvBlocksMatchSampleBySample: a batch whose samples each fill a
// patch block (the full-scale MiniWeather conv1 shape) runs block by
// block. Its output and dX must equal, bit for bit, those of its samples
// run one at a time, and its dW and dB those of the one-sample passes
// added into the gradients in sample order.
func TestConvBlocksMatchSampleBySample(t *testing.T) {
	const b, inC, outC, k, h, w = 3, 4, 8, 8, 32, 64
	hOut, wOut := h-k+1, w-k+1
	geom := convGeom{b: b, inC: inC, outC: outC, kh: k, kw: k, hOut: hOut, wOut: wOut}
	if n := geom.blockSamples(); n != 1 {
		t.Fatalf("%d samples per block, want 1", n)
	}
	rng := rand.New(rand.NewSource(37))
	c := NewNetwork(5).NewConv2D(inC, outC, k, k, 1)
	x, g := reluZeroed(rng, b, inC, h, w), reluZeroed(rng, b, outC, hOut, wOut)
	y, dx := layerStep(t, "batch", c, x, g)
	dx = dx.Clone() // the one-sample passes reuse its arena
	dW, dB := c.Weight.Grad.Clone(), c.Bias.Grad.Clone()

	c.Weight.ZeroGrad()
	c.Bias.ZeroGrad()
	inN, outN := inC*h*w, outC*hOut*wOut
	for n := 0; n < b; n++ {
		xn, err := tensor.Wrap(x.Data()[n*inN:(n+1)*inN], 1, inC, h, w)
		if err != nil {
			t.Fatal(err)
		}
		gn, err := tensor.Wrap(g.Data()[n*outN:(n+1)*outN], 1, outC, hOut, wOut)
		if err != nil {
			t.Fatal(err)
		}
		yn, err := c.Forward(xn, true)
		if err != nil {
			t.Fatal(err)
		}
		assertSameBits(t, fmt.Sprintf("sample %d forward", n), y.Data()[n*outN:(n+1)*outN], yn.Data())
		dxn, err := c.Backward(gn)
		if err != nil {
			t.Fatal(err)
		}
		assertSameBits(t, fmt.Sprintf("sample %d dX", n), dx.Data()[n*inN:(n+1)*inN], dxn.Data())
	}
	assertSameBits(t, "dW", dW.Data(), c.Weight.Grad.Data())
	assertSameBits(t, "dB", dB.Data(), c.Bias.Grad.Data())
}
