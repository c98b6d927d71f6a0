package nn

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// conv is the one convolution Conv1D and Conv2D run: valid padding, a
// KH x KW kernel at one stride, over [batch, InC, H, W] inputs. Conv1D
// is its h = kh = 1 case.
//
// The batch runs in blocks of whole samples whose patches fit in
// colBudget. Each block's input is unrolled into a [rows, InC*KH*KW]
// patch matrix (im2col), rows = samples*H'*W'. Forward is one
// tensor.DenseInto of the patches with the transposed kernel per block;
// its [rows, OutC] result is transposed into [batch, OutC, H', W'] and
// the bias added. Backward reuses the training forward's patches when
// the batch is one block, and otherwise unrolls each block again from
// the input that forward kept: dW = dYᵀ·patches and dPatches = dY·W are
// two more DenseInto calls, and col2im adds the patch gradients into dX.
//
// Each output is its sum over (ic, ky, kx) from +0, plus the bias. dW
// sums a block's (n, oy, ox) from +0 and adds that into the gradient; dX
// sums over oc, then over the patches that cover each input. Against
// direct loops, which keep one accumulator per input channel and add dX
// term by term, the forward, dX and dB reassociate; dW keeps the direct
// loops' term order within a block, so it matches them bit for bit when
// the batch is one block.
type conv struct {
	last  convGeom       // the training forward's geometry
	lastX *tensor.Tensor // and its input; nil outside a training step
	// Training-path arenas, reused across steps.
	train  convBufs
	fwdOut scratch
	dxBuf  scratch
	// pool recycles inference-path buffers so concurrent Forward callers
	// (regions sharing a cached model) never contend on the training
	// arenas.
	pool sync.Pool
}

// convBufs are one block's flat intermediates: the patch matrix (in
// backward, then the patch gradients), the transposed kernel and the
// [rows, OutC] product y; training adds dY as [rows, OutC] and as
// [OutC, rows], and the dW staging.
type convBufs struct {
	col, wt, y  []float64
	gt, gtT, dw []float64
}

// convGeom is one call's geometry. rank is the layer's tensor rank: 3
// leaves the h axis out of the shapes it builds.
type convGeom struct {
	rank            int
	b, inC, h, w    int
	outC, kh, kw, s int
	hOut, wOut      int
}

const (
	// colBudget bounds a block's patch matrix, in float64s (4 MB): a
	// block holds as many samples as fit, and at least one.
	colBudget = 1 << 19
	// convParFLOPs is the multiply-accumulate count below which im2col
	// and col2im run serially on the calling goroutine.
	convParFLOPs = 1 << 18
)

func (g convGeom) rows() int { return g.b * g.hOut * g.wOut }
func (g convGeom) cols() int { return g.inC * g.kh * g.kw }

// shape returns [b, ch, h, w] at the layer's rank.
func (g convGeom) shape(ch, h, w int) (int, [4]int) {
	if g.rank == 3 {
		return 3, [4]int{g.b, ch, w}
	}
	return 4, [4]int{g.b, ch, h, w}
}

// blockSamples is the number of samples in a full block.
func (g convGeom) blockSamples() int {
	return max(1, min(g.b, colBudget/(g.hOut*g.wOut*g.cols())))
}

// block returns the geometry of the up to n samples from sample lo on.
func (g convGeom) block(lo, n int) convGeom {
	g.b = min(n, g.b-lo)
	return g
}

// overPairs runs pass over g's (sample, input channel) pairs, split
// across workers when the convolution is large enough to repay the
// fan-out. pass is a method expression, so the serial case builds no
// closure.
func (g convGeom) overPairs(pass func(g convGeom, dst, src []float64, lo, hi int), dst, src []float64) {
	if g.rows()*g.outC*g.cols() < convParFLOPs {
		pass(g, dst, src, 0, g.b*g.inC)
		return
	}
	parallel.ForRange(g.b*g.inC, func(lo, hi int) { pass(g, dst, src, lo, hi) })
}

// im2col unrolls pairs [lo, hi) of x into col:
// col[(n*hOut+oy)*wOut+ox][(ic*kh+ky)*kw+kx] = x[n, ic, oy*s+ky, ox*s+kx],
// one kw-long copy per (row, ky).
func (g convGeom) im2col(col, x []float64, lo, hi int) {
	cols, kk := g.cols(), g.kh*g.kw
	for u := lo; u < hi; u++ {
		n, ic := u/g.inC, u%g.inC
		img := x[u*g.h*g.w:][:g.h*g.w]
		for oy := 0; oy < g.hOut; oy++ {
			for ox := 0; ox < g.wOut; ox++ {
				patch := col[((n*g.hOut+oy)*g.wOut+ox)*cols+ic*kk:][:kk]
				for ky := 0; ky < g.kh; ky++ {
					copy(patch[ky*g.kw:], img[(oy*g.s+ky)*g.w+ox*g.s:][:g.kw])
				}
			}
		}
	}
}

// col2im adds the patch gradients of pairs [lo, hi) into dx, in
// (oy, ox, ky, kx) order per pair: the inverse scatter of im2col.
func (g convGeom) col2im(dx, dcol []float64, lo, hi int) {
	cols, kk := g.cols(), g.kh*g.kw
	for u := lo; u < hi; u++ {
		n, ic := u/g.inC, u%g.inC
		img := dx[u*g.h*g.w:][:g.h*g.w]
		for oy := 0; oy < g.hOut; oy++ {
			for ox := 0; ox < g.wOut; ox++ {
				patch := dcol[((n*g.hOut+oy)*g.wOut+ox)*cols+ic*kk:][:kk]
				for ky := 0; ky < g.kh; ky++ {
					dst := img[(oy*g.s+ky)*g.w+ox*g.s:][:g.kw]
					for kx, v := range patch[ky*g.kw:][:g.kw] {
						dst[kx] += v
					}
				}
			}
		}
	}
}

// forward computes the valid cross-correlation of x with the
// [OutC, InC*KH*KW] kernel w plus bias. The training pass stages through
// the layer's arenas and keeps x for backward; inference recycles pooled
// buffers.
func (c *conv) forward(g convGeom, x *tensor.Tensor, w, bias []float64, train bool) *tensor.Tensor {
	x = x.Contiguous()
	cols, outC, per := g.cols(), g.outC, g.hOut*g.wOut
	rank, shape := g.shape(outC, g.hOut, g.wOut)
	var buf *convBufs
	var out *tensor.Tensor
	if train {
		c.last, c.lastX = g, x
		buf, out = &c.train, c.fwdOut.get(rank, shape)
	} else {
		buf, _ = c.pool.Get().(*convBufs)
		if buf == nil {
			buf = new(convBufs)
		}
		defer c.pool.Put(buf)
		out = tensor.New(shape[:rank]...)
	}
	wt := grow(&buf.wt, cols*outC)
	tensor.TransposeInto(wt, w, outC, cols)
	xd, od := x.Data(), out.Data()
	bs := g.blockSamples()
	for lo := 0; lo < g.b; lo += bs {
		blk := g.block(lo, bs)
		rows := blk.rows()
		col, y := grow(&buf.col, rows*cols), grow(&buf.y, rows*outC)
		blk.overPairs(convGeom.im2col, col, xd[lo*g.inC*g.h*g.w:])
		tensor.DenseInto(y, col, wt, nil, rows, cols, outC, tensor.ActIdentity)
		for n := range blk.b {
			tensor.TransposeInto(od[(lo+n)*outC*per:], y[n*per*outC:], per, outC)
		}
	}
	for r := range g.b * outC {
		row, bv := od[r*per:(r+1)*per], bias[r%outC]
		for p := range row {
			row[p] += bv
		}
	}
	return out
}

// backward checks grad against the training forward's output shape
// before reading it, then returns dX and adds dW and dB into the
// parameters' gradients.
func (c *conv) backward(kind string, grad *tensor.Tensor, weight, bias *Param) (*tensor.Tensor, error) {
	if c.lastX == nil {
		return nil, fmt.Errorf("%s backward without cached forward", kind)
	}
	g := c.last
	rank, want := g.shape(g.outC, g.hOut, g.wOut)
	ok := grad.Rank() == rank
	for i := 0; ok && i < rank; i++ {
		ok = grad.Dim(i) == want[i]
	}
	if !ok {
		return nil, fmt.Errorf("%s backward grad shape %v, want %v", kind, grad.Shape(), append([]int(nil), want[:rank]...))
	}
	gd, xd := grad.Contiguous().Data(), c.lastX.Data()
	cols, outC, per, inN := g.cols(), g.outC, g.hOut*g.wOut, g.inC*g.h*g.w
	buf := &c.train
	dW, dB := weight.Grad.Data(), bias.Grad.Data()
	dx := c.dxBuf.get(g.shape(g.inC, g.h, g.w))
	dxd := dx.Data()
	clear(dxd)
	bs := g.blockSamples()
	for lo := 0; lo < g.b; lo += bs {
		blk := g.block(lo, bs)
		rows := blk.rows()
		col := grow(&buf.col, rows*cols)
		if bs < g.b { // one block: col still holds the forward's patches
			blk.overPairs(convGeom.im2col, col, xd[lo*inN:])
		}
		// dB, and the block's dY as [rows, OutC] and as [OutC, rows].
		gt, gtT := grow(&buf.gt, rows*outC), grow(&buf.gtT, outC*rows)
		for n := range blk.b {
			gn := gd[(lo+n)*outC*per:][:outC*per]
			tensor.TransposeInto(gt[n*per*outC:], gn, outC, per)
			for oc := range dB {
				img := gn[oc*per:][:per]
				copy(gtT[oc*rows+n*per:], img)
				var sum float64
				for _, v := range img {
					sum += v
				}
				dB[oc] += sum
			}
		}
		// dW += dYᵀ·patches.
		dw := grow(&buf.dw, outC*cols)
		tensor.DenseInto(dw, gtT, col, nil, outC, rows, cols, tensor.ActIdentity)
		for i, v := range dw {
			dW[i] += v
		}
		// dPatches = dY·W over the spent patches, then col2im adds them
		// into dX.
		tensor.DenseInto(col, gt, weight.W.Data(), nil, rows, outC, cols, tensor.ActIdentity)
		blk.overPairs(convGeom.col2im, dxd[lo*inN:], col)
	}
	c.lastX = nil
	return dx, nil
}

// Conv1D is a 1-D convolution over [batch, InC, L] inputs producing
// [batch, OutC, L'] with L' = (L-K)/Stride + 1 (valid padding). It runs
// the shared im2col convolution with h = kh = 1.
type Conv1D struct {
	InC, OutC, K, Stride int
	Weight               *Param // [OutC, InC, K]
	Bias                 *Param // [OutC]

	conv conv
}

// NewConv1D constructs a 1-D convolution with He-uniform init.
func (n *Network) NewConv1D(inC, outC, k, stride int) *Conv1D {
	c := &Conv1D{InC: inC, OutC: outC, K: k, Stride: stride,
		Weight: newParam("weight", outC, inC, k),
		Bias:   newParam("bias", outC),
	}
	initUniform(n.rng, c.Weight.W, kaimingBound(inC*k))
	initUniform(n.rng, c.Bias.W, kaimingBound(inC*k))
	return c
}

// Kind identifies the layer.
func (c *Conv1D) Kind() string {
	return fmt.Sprintf("Conv1D(%d->%d,k=%d,s=%d)", c.InC, c.OutC, c.K, c.Stride)
}

// Params returns the kernel and bias.
func (c *Conv1D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// OutShape maps [InC, L] to [OutC, L'].
func (c *Conv1D) OutShape(in []int) ([]int, error) {
	if len(in) != 2 || in[0] != c.InC {
		return nil, fmt.Errorf("conv1d wants input shape [%d, L], got %v", c.InC, in)
	}
	if c.Stride <= 0 || c.K <= 0 {
		return nil, fmt.Errorf("conv1d has non-positive kernel/stride (%d/%d)", c.K, c.Stride)
	}
	l := in[1]
	if l < c.K {
		return nil, fmt.Errorf("conv1d input length %d < kernel %d", l, c.K)
	}
	return []int{c.OutC, (l-c.K)/c.Stride + 1}, nil
}

// Forward computes the valid cross-correlation (see conv). Inference is
// safe under concurrent callers.
func (c *Conv1D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Rank() != 3 || x.Dim(1) != c.InC {
		return nil, fmt.Errorf("conv1d wants [batch, %d, L], got %v", c.InC, x.Shape())
	}
	sample, err := c.OutShape([]int{x.Dim(1), x.Dim(2)})
	if err != nil {
		return nil, err
	}
	g := convGeom{rank: 3, b: x.Dim(0), inC: c.InC, h: 1, w: x.Dim(2),
		outC: c.OutC, kh: 1, kw: c.K, s: c.Stride, hOut: 1, wOut: sample[1]}
	return c.conv.forward(g, x, c.Weight.W.Data(), c.Bias.W.Data(), train), nil
}

// Backward computes input gradients and accumulates kernel/bias
// gradients from the patches cached by the training forward.
func (c *Conv1D) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	return c.conv.backward("conv1d", grad, c.Weight, c.Bias)
}

func (c *Conv1D) spec() layerSpec {
	return layerSpec{Kind: "conv1d", Ints: []int{c.InC, c.OutC, c.K, c.Stride}}
}

// Conv2D is a 2-D convolution over [batch, InC, H, W] inputs (valid
// padding) producing [batch, OutC, H', W'].
type Conv2D struct {
	InC, OutC, KH, KW, Stride int
	Weight                    *Param // [OutC, InC, KH, KW]
	Bias                      *Param // [OutC]

	conv conv
}

// NewConv2D constructs a 2-D convolution with He-uniform init.
func (n *Network) NewConv2D(inC, outC, kh, kw, stride int) *Conv2D {
	c := &Conv2D{InC: inC, OutC: outC, KH: kh, KW: kw, Stride: stride,
		Weight: newParam("weight", outC, inC, kh, kw),
		Bias:   newParam("bias", outC),
	}
	initUniform(n.rng, c.Weight.W, kaimingBound(inC*kh*kw))
	initUniform(n.rng, c.Bias.W, kaimingBound(inC*kh*kw))
	return c
}

// Kind identifies the layer.
func (c *Conv2D) Kind() string {
	return fmt.Sprintf("Conv2D(%d->%d,k=%dx%d,s=%d)", c.InC, c.OutC, c.KH, c.KW, c.Stride)
}

// Params returns the kernel and bias.
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// OutShape maps [InC, H, W] to [OutC, H', W'].
func (c *Conv2D) OutShape(in []int) ([]int, error) {
	if len(in) != 3 || in[0] != c.InC {
		return nil, fmt.Errorf("conv2d wants input shape [%d, H, W], got %v", c.InC, in)
	}
	if c.Stride <= 0 || c.KH <= 0 || c.KW <= 0 {
		return nil, fmt.Errorf("conv2d has non-positive kernel/stride")
	}
	h, w := in[1], in[2]
	if h < c.KH || w < c.KW {
		return nil, fmt.Errorf("conv2d input %dx%d smaller than kernel %dx%d", h, w, c.KH, c.KW)
	}
	return []int{c.OutC, (h-c.KH)/c.Stride + 1, (w-c.KW)/c.Stride + 1}, nil
}

// Forward computes the valid cross-correlation (see conv). Inference is
// safe under concurrent callers.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Rank() != 4 || x.Dim(1) != c.InC {
		return nil, fmt.Errorf("conv2d wants [batch, %d, H, W], got %v", c.InC, x.Shape())
	}
	sample, err := c.OutShape([]int{x.Dim(1), x.Dim(2), x.Dim(3)})
	if err != nil {
		return nil, err
	}
	g := convGeom{rank: 4, b: x.Dim(0), inC: c.InC, h: x.Dim(2), w: x.Dim(3),
		outC: c.OutC, kh: c.KH, kw: c.KW, s: c.Stride, hOut: sample[1], wOut: sample[2]}
	return c.conv.forward(g, x, c.Weight.W.Data(), c.Bias.W.Data(), train), nil
}

// Backward computes input gradients and accumulates kernel/bias
// gradients from the patches cached by the training forward.
func (c *Conv2D) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	return c.conv.backward("conv2d", grad, c.Weight, c.Bias)
}

func (c *Conv2D) spec() layerSpec {
	return layerSpec{Kind: "conv2d", Ints: []int{c.InC, c.OutC, c.KH, c.KW, c.Stride}}
}

// maxPool is the one max-pool body MaxPool1D and MaxPool2D run: a
// kh x kw window at strides kh and kw over [batch, C, H, W] inputs,
// trailing rows and columns no window covers dropped. The first maximum
// in the window's row-major order wins a tie. MaxPool1D is its h = kh =
// 1 case, as Conv1D is conv's.
type maxPool struct {
	lastArg []int // the training forward's argmax input index per output
	inShape []int
}

// forward pools the contiguous x, b*ch images of h x w, into a new
// tensor of the given shape, recording the argmax indices for backward
// when training.
func (m *maxPool) forward(x *tensor.Tensor, h, w, kh, kw int, shape []int, train bool) *tensor.Tensor {
	hOut, wOut := h/kh, w/kw
	out := tensor.New(shape...)
	xd, od := x.Data(), out.Data()
	var args []int
	if train {
		args = make([]int, len(od))
	}
	parallel.ForRange(x.Dim(0)*x.Dim(1), func(lo, hi int) {
		for rc := lo; rc < hi; rc++ {
			xImg := xd[rc*h*w : (rc+1)*h*w]
			oImg := od[rc*hOut*wOut : (rc+1)*hOut*wOut]
			for oy := 0; oy < hOut; oy++ {
				for ox := 0; ox < wOut; ox++ {
					best, bestIdx := math.Inf(-1), 0
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							idx := (oy*kh+ky)*w + ox*kw + kx
							if v := xImg[idx]; v > best {
								best, bestIdx = v, idx
							}
						}
					}
					oImg[oy*wOut+ox] = best
					if args != nil {
						args[rc*hOut*wOut+oy*wOut+ox] = rc*h*w + bestIdx
					}
				}
			}
		}
	})
	if train {
		m.lastArg = args
		m.inShape = x.Shape()
	}
	return out
}

// backward routes gradients to the argmax positions; kind names the
// layer in errors.
func (m *maxPool) backward(kind string, grad *tensor.Tensor) (*tensor.Tensor, error) {
	if m.lastArg == nil {
		return nil, fmt.Errorf("%s backward without cached forward", kind)
	}
	g := grad.Contiguous()
	gd := g.Data()
	if len(gd) != len(m.lastArg) {
		return nil, fmt.Errorf("%s backward size mismatch", kind)
	}
	dx := tensor.New(m.inShape...)
	dxd := dx.Data()
	for i, src := range m.lastArg {
		dxd[src] += gd[i]
	}
	m.lastArg, m.inShape = nil, nil
	return dx, nil
}

// MaxPool1D pools [batch, C, L] with window K and stride K.
type MaxPool1D struct {
	K int

	pool maxPool
}

// NewMaxPool1D constructs a 1-D max-pool layer with window k.
func NewMaxPool1D(k int) *MaxPool1D { return &MaxPool1D{K: k} }

// Kind identifies the layer.
func (m *MaxPool1D) Kind() string { return fmt.Sprintf("MaxPool1D(%d)", m.K) }

// Params returns nil.
func (m *MaxPool1D) Params() []*Param { return nil }

// OutShape maps [C, L] to [C, L/K].
func (m *MaxPool1D) OutShape(in []int) ([]int, error) {
	if len(in) != 2 {
		return nil, fmt.Errorf("maxpool1d wants [C, L], got %v", in)
	}
	if m.K <= 0 {
		return nil, fmt.Errorf("maxpool1d non-positive window %d", m.K)
	}
	if in[1] < m.K {
		return nil, fmt.Errorf("maxpool1d input length %d < window %d", in[1], m.K)
	}
	return []int{in[0], in[1] / m.K}, nil
}

// Forward takes windowed maxima (see maxPool).
func (m *MaxPool1D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Rank() != 3 {
		return nil, fmt.Errorf("maxpool1d wants [batch, C, L], got %v", x.Shape())
	}
	x = x.Contiguous()
	l := x.Dim(2)
	if l/m.K == 0 {
		return nil, fmt.Errorf("maxpool1d input length %d < window %d", l, m.K)
	}
	return m.pool.forward(x, 1, l, 1, m.K, []int{x.Dim(0), x.Dim(1), l / m.K}, train), nil
}

// Backward routes gradients to the argmax positions.
func (m *MaxPool1D) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	return m.pool.backward("maxpool1d", grad)
}

func (m *MaxPool1D) spec() layerSpec { return layerSpec{Kind: "maxpool1d", Ints: []int{m.K}} }

// MaxPool2D pools [batch, C, H, W] with a KxK window and stride K.
type MaxPool2D struct {
	K int

	pool maxPool
}

// NewMaxPool2D constructs a 2-D max-pool layer with window k.
func NewMaxPool2D(k int) *MaxPool2D { return &MaxPool2D{K: k} }

// Kind identifies the layer.
func (m *MaxPool2D) Kind() string { return fmt.Sprintf("MaxPool2D(%d)", m.K) }

// Params returns nil.
func (m *MaxPool2D) Params() []*Param { return nil }

// OutShape maps [C, H, W] to [C, H/K, W/K].
func (m *MaxPool2D) OutShape(in []int) ([]int, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("maxpool2d wants [C, H, W], got %v", in)
	}
	if m.K <= 0 {
		return nil, fmt.Errorf("maxpool2d non-positive window %d", m.K)
	}
	if in[1] < m.K || in[2] < m.K {
		return nil, fmt.Errorf("maxpool2d input %dx%d < window %d", in[1], in[2], m.K)
	}
	return []int{in[0], in[1] / m.K, in[2] / m.K}, nil
}

// Forward takes windowed maxima (see maxPool).
func (m *MaxPool2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if x.Rank() != 4 {
		return nil, fmt.Errorf("maxpool2d wants [batch, C, H, W], got %v", x.Shape())
	}
	x = x.Contiguous()
	h, w := x.Dim(2), x.Dim(3)
	if h/m.K == 0 || w/m.K == 0 {
		return nil, fmt.Errorf("maxpool2d input %dx%d < window %d", h, w, m.K)
	}
	return m.pool.forward(x, h, w, m.K, m.K, []int{x.Dim(0), x.Dim(1), h / m.K, w / m.K}, train), nil
}

// Backward routes gradients to the argmax positions.
func (m *MaxPool2D) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	return m.pool.backward("maxpool2d", grad)
}

func (m *MaxPool2D) spec() layerSpec { return layerSpec{Kind: "maxpool2d", Ints: []int{m.K}} }
