package nn

import (
	"math"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// conv32 is the compiled geometry of one conv or pool op of a Forward32
// program. Weights are converted (and for Conv1D pre-transposed) once by
// NewForward32 so the per-batch hot path is pure f32 data movement and
// GEMM.
type conv32 struct {
	inC, inL   int // 1-D input geometry (inC doubles as C for pools)
	inH, inW   int // 2-D input geometry
	outC, outL int
	outH, outW int
	k, kw      int // kernel (k is K or KH; kw is KW)
	stride     int
	wT         []float32 // conv1d: [InC*K, OutC] — transposed from [OutC, InC*K]
	wd         []float32 // conv2d: [OutC, InC, KH, KW] flat
	b          []float32
}

// newConv1D32 compiles a Conv1D mapping sample shape in to out. The
// kernel is transposed from [OutC, InC, K] to [InC*K, OutC] once here,
// so the hot path is a plain row-major GEMM with no per-call transpose.
func newConv1D32(l *Conv1D, in, out []int) *conv32 {
	c := &conv32{inC: l.InC, inL: in[1], outC: l.OutC, outL: out[1],
		k: l.K, stride: l.Stride, b: toF32(l.Bias.W.Contiguous().Data())}
	w := l.Weight.W.Contiguous().Data()
	kc := l.InC * l.K
	c.wT = make([]float32, kc*l.OutC)
	for oc := 0; oc < l.OutC; oc++ {
		for j := 0; j < kc; j++ {
			c.wT[j*l.OutC+oc] = float32(w[oc*kc+j])
		}
	}
	return c
}

// im2col1d32 unrolls x ([b, inC, l] flat) into col ([b*lOut, inC*k]
// flat), the f32 form of im2col's h = kh = 1 case:
// col[(n*lOut+p), ic*k+t] = x[n, ic, p*s+t].
func im2col1d32(col, xd []float32, b, inC, l, lOut, k, s int, par bool) {
	cols := inC * k
	body := func(lo, hi int) {
		for n := lo; n < hi; n++ {
			xn := xd[n*inC*l : (n+1)*inC*l]
			for p := 0; p < lOut; p++ {
				row := col[(n*lOut+p)*cols : (n*lOut+p+1)*cols]
				base := p * s
				for ic := 0; ic < inC; ic++ {
					copy(row[ic*k:(ic+1)*k], xn[ic*l+base:ic*l+base+k])
				}
			}
		}
	}
	if par {
		parallel.ForRange(b, body)
	} else {
		body(0, b)
	}
}

// runConv1 computes the valid cross-correlation as im2col + patches@W
// (the kernel is already transposed, so no TransB variant is needed),
// then transposes [b*lOut, outC] into dst's [b, outC, lOut] and adds the
// bias. The patch matrix and GEMM output live in the call's pooled
// scratch.
func (c *conv32) runConv1(dst, x []float32, rows int, s *f32Scratch) error {
	inC, l, outC, lOut, k := c.inC, c.inL, c.outC, c.outL, c.k
	mrows, mcols := rows*lOut, inC*k
	col := grow(&s.aux[0], mrows*mcols)
	out2 := grow(&s.aux[1], mrows*outC)
	par := rows*outC*lOut*inC*k >= convParFLOPs
	im2col1d32(col, x, rows, inC, l, lOut, k, c.stride, par)
	if err := tensor.MatMulInto32(out2, col, c.wT, mrows, mcols, outC); err != nil {
		return err
	}
	scatter := func(lo, hi int) {
		for n := lo; n < hi; n++ {
			o2n := out2[n*lOut*outC : (n+1)*lOut*outC]
			on := dst[n*outC*lOut : (n+1)*outC*lOut]
			for oc := 0; oc < outC; oc++ {
				bv := c.b[oc]
				orow := on[oc*lOut : (oc+1)*lOut]
				for p := range orow {
					orow[p] = o2n[p*outC+oc] + bv
				}
			}
		}
	}
	if par {
		parallel.ForRange(rows, scatter)
	} else {
		scatter(0, rows)
	}
	return nil
}

// runConv2 computes the valid 2-D cross-correlation with direct loops,
// parallel over the batch; the f64 Conv2D runs the shared im2col
// convolution instead.
func (c *conv32) runConv2(dst, x []float32, rows int) {
	inC, h, w := c.inC, c.inH, c.inW
	outC, hOut, wOut := c.outC, c.outH, c.outW
	kh, kw, s := c.k, c.kw, c.stride
	parallel.ForRange(rows, func(lo, hi int) {
		for n := lo; n < hi; n++ {
			xn := x[n*inC*h*w : (n+1)*inC*h*w]
			on := dst[n*outC*hOut*wOut : (n+1)*outC*hOut*wOut]
			for oc := 0; oc < outC; oc++ {
				oImg := on[oc*hOut*wOut : (oc+1)*hOut*wOut]
				for p := range oImg {
					oImg[p] = c.b[oc]
				}
				for ic := 0; ic < inC; ic++ {
					xImg := xn[ic*h*w : (ic+1)*h*w]
					wKer := c.wd[(oc*inC+ic)*kh*kw : (oc*inC+ic+1)*kh*kw]
					for oy := 0; oy < hOut; oy++ {
						for ox := 0; ox < wOut; ox++ {
							baseY, baseX := oy*s, ox*s
							var acc float32
							for ky := 0; ky < kh; ky++ {
								xrow := xImg[(baseY+ky)*w+baseX : (baseY+ky)*w+baseX+kw]
								wrow := wKer[ky*kw : (ky+1)*kw]
								for kx := 0; kx < kw; kx++ {
									acc += xrow[kx] * wrow[kx]
								}
							}
							oImg[oy*wOut+ox] += acc
						}
					}
				}
			}
		}
	})
}

// runPool1 takes non-overlapping windowed maxima over [rows, C, L],
// mirroring MaxPool1D.Forward's inference path.
func (c *conv32) runPool1(dst, x []float32, rows int) {
	ch, l, lOut, k := c.inC, c.inL, c.outL, c.k
	parallel.ForRange(rows*ch, func(lo, hi int) {
		for rc := lo; rc < hi; rc++ {
			xrow := x[rc*l : (rc+1)*l]
			orow := dst[rc*lOut : (rc+1)*lOut]
			for p := 0; p < lOut; p++ {
				best := float32(math.Inf(-1))
				for t := 0; t < k; t++ {
					if v := xrow[p*k+t]; v > best {
						best = v
					}
				}
				orow[p] = best
			}
		}
	})
}

// runPool2 takes KxK windowed maxima over [rows, C, H, W], mirroring
// MaxPool2D.Forward's inference path.
func (c *conv32) runPool2(dst, x []float32, rows int) {
	ch, h, w := c.inC, c.inH, c.inW
	hOut, wOut, k := c.outH, c.outW, c.k
	parallel.ForRange(rows*ch, func(lo, hi int) {
		for rc := lo; rc < hi; rc++ {
			xImg := x[rc*h*w : (rc+1)*h*w]
			oImg := dst[rc*hOut*wOut : (rc+1)*hOut*wOut]
			for oy := 0; oy < hOut; oy++ {
				for ox := 0; ox < wOut; ox++ {
					best := float32(math.Inf(-1))
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							if v := xImg[(oy*k+ky)*w+ox*k+kx]; v > best {
								best = v
							}
						}
					}
					oImg[oy*wOut+ox] = best
				}
			}
		}
	})
}
