package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// ErrTrainingStopped is returned by Fit when TrainConfig.Stop requested
// an abort. The network holds whatever weights the last completed
// optimizer step left behind — callers that need an intact model must
// discard it (the continuous-learning controller does exactly that on
// shutdown, so a partially-trained candidate is never gated or
// published).
var ErrTrainingStopped = errors.New("nn: training stopped")

// Dataset pairs model inputs with regression targets. X and Y share their
// leading (sample) dimension.
type Dataset struct {
	X *tensor.Tensor
	Y *tensor.Tensor
}

// NewDataset validates and constructs a dataset.
func NewDataset(x, y *tensor.Tensor) (*Dataset, error) {
	if x.Rank() < 2 || y.Rank() < 2 {
		return nil, fmt.Errorf("nn: dataset wants rank >= 2 tensors, got %v and %v", x.Shape(), y.Shape())
	}
	if x.Dim(0) != y.Dim(0) {
		return nil, fmt.Errorf("nn: dataset sample counts differ: %d vs %d", x.Dim(0), y.Dim(0))
	}
	return &Dataset{X: x.Contiguous(), Y: y.Contiguous()}, nil
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return d.X.Dim(0) }

// Split partitions the dataset into a leading fraction and the remainder
// (paper §V-B: training/validation set plus a held-out test set).
func (d *Dataset) Split(frac float64) (*Dataset, *Dataset, error) {
	if frac <= 0 || frac >= 1 {
		return nil, nil, fmt.Errorf("nn: split fraction %g out of (0,1)", frac)
	}
	n := d.Len()
	k := int(float64(n) * frac)
	if k == 0 || k == n {
		return nil, nil, fmt.Errorf("nn: split of %d samples at %g leaves an empty side", n, frac)
	}
	xa, err := d.X.Narrow(0, 0, k)
	if err != nil {
		return nil, nil, err
	}
	xb, err := d.X.Narrow(0, k, n-k)
	if err != nil {
		return nil, nil, err
	}
	ya, err := d.Y.Narrow(0, 0, k)
	if err != nil {
		return nil, nil, err
	}
	yb, err := d.Y.Narrow(0, k, n-k)
	if err != nil {
		return nil, nil, err
	}
	return &Dataset{X: xa, Y: ya}, &Dataset{X: xb, Y: yb}, nil
}

// Shuffle permutes the samples in place-order (returns a reordered copy)
// with the given seed.
func (d *Dataset) Shuffle(seed int64) (*Dataset, error) {
	n := d.Len()
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	return d.Gather(perm)
}

// gatherParElems is the element count above which GatherInto copies
// rows in parallel.
const gatherParElems = 1 << 16

// GatherInto copies the samples named by idx into dstX and dstY, which
// must be contiguous tensors of shapes [len(idx), xSample...] and
// [len(idx), ySample...]. It is the allocation-free counterpart of
// Gather: the trainer fills one reusable minibatch arena per step
// instead of staging every sample through Index+Stack copies.
func (d *Dataset) GatherInto(dstX, dstY *tensor.Tensor, idx []int) error {
	xs, err := gatherDst(dstX, d.X, len(idx), "x")
	if err != nil {
		return err
	}
	ys, err := gatherDst(dstY, d.Y, len(idx), "y")
	if err != nil {
		return err
	}
	n := d.Len()
	for _, j := range idx {
		if j < 0 || j >= n {
			return fmt.Errorf("nn: gather index %d out of range [0,%d)", j, n)
		}
	}
	xPer, yPer := xs, ys
	xd, yd := d.X.Data(), d.Y.Data()
	dxd, dyd := dstX.Data(), dstY.Data()
	// Small batches copy inline — no closure, no goroutines, no
	// allocation — mirroring the engine's other hot loops.
	if len(idx)*(xPer+yPer) < gatherParElems {
		for i, j := range idx {
			copy(dxd[i*xPer:(i+1)*xPer], xd[j*xPer:(j+1)*xPer])
			copy(dyd[i*yPer:(i+1)*yPer], yd[j*yPer:(j+1)*yPer])
		}
		return nil
	}
	parallel.ForRange(len(idx), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			j := idx[i]
			copy(dxd[i*xPer:(i+1)*xPer], xd[j*xPer:(j+1)*xPer])
			copy(dyd[i*yPer:(i+1)*yPer], yd[j*yPer:(j+1)*yPer])
		}
	})
	return nil
}

// gatherDst validates one GatherInto destination against its source and
// returns the per-sample element count.
func gatherDst(dst, src *tensor.Tensor, rows int, which string) (int, error) {
	if dst == nil || !dst.IsContiguous() {
		return 0, fmt.Errorf("nn: gather %s dst must be contiguous", which)
	}
	if dst.Rank() != src.Rank() || dst.Dim(0) != rows {
		return 0, fmt.Errorf("nn: gather %s dst shape %v, want %d samples of %v", which, dst.Shape(), rows, src.Shape()[1:])
	}
	for i := 1; i < src.Rank(); i++ {
		if dst.Dim(i) != src.Dim(i) {
			return 0, fmt.Errorf("nn: gather %s dst shape %v, want %d samples of %v", which, dst.Shape(), rows, src.Shape()[1:])
		}
	}
	if !src.IsContiguous() {
		return 0, fmt.Errorf("nn: gather %s source must be contiguous", which)
	}
	if src.Dim(0) == 0 {
		return 0, fmt.Errorf("nn: gather from empty %s dataset", which)
	}
	return src.Len() / src.Dim(0), nil
}

// Gather returns a dataset of the given sample indices (a copy).
func (d *Dataset) Gather(idx []int) (*Dataset, error) {
	xs := make([]*tensor.Tensor, len(idx))
	ys := make([]*tensor.Tensor, len(idx))
	for i, j := range idx {
		if j < 0 || j >= d.Len() {
			return nil, fmt.Errorf("nn: gather index %d out of range [0,%d)", j, d.Len())
		}
		xv, err := d.X.Index(0, j)
		if err != nil {
			return nil, err
		}
		yv, err := d.Y.Index(0, j)
		if err != nil {
			return nil, err
		}
		xs[i], ys[i] = xv, yv
	}
	x, err := tensor.Stack(0, xs...)
	if err != nil {
		return nil, err
	}
	y, err := tensor.Stack(0, ys...)
	if err != nil {
		return nil, err
	}
	return &Dataset{X: x, Y: y}, nil
}

// TrainConfig controls Fit. The fields mirror the paper's hyperparameter
// search space (Table V): learning rate, weight decay, dropout (a model
// property), and batch size. Recipe gives the values every trainer
// starts from.
type TrainConfig struct {
	Epochs      int
	BatchSize   int
	LR          float64
	WeightDecay float64
	Optimizer   string // "adam" (default) or "sgd"
	Momentum    float64
	Loss        Loss // default MSE
	Seed        int64
	// Patience stops training after this many epochs without validation
	// improvement; 0 disables early stopping.
	Patience int
	// ValFrac is the fraction of the training data held out for
	// validation when a separate validation set is not given to Fit;
	// 0 selects the default of 0.2.
	ValFrac float64
	Verbose func(epoch int, trainLoss, valLoss float64)
	// Stop, when set, is polled before every minibatch; returning true
	// aborts training promptly with ErrTrainingStopped. This is the
	// cancellation hook for background retrains: a shutdown signal
	// reaches a long Fit at the next batch boundary instead of waiting
	// out the remaining epochs.
	Stop func() bool
}

// Recipe is the one training recipe, for the given epoch budget and
// seed: Adam at batch 64, learning rate 3e-3 and weight decay 1e-4,
// stopping after 8 epochs without a new best validation loss. It is
// the Table V point the campaigns, hpacml-train and the learner's
// retrain start from, and Fit falls back to its batch size and
// learning rate when a config leaves them zero.
func Recipe(epochs int, seed int64) TrainConfig {
	return TrainConfig{
		Epochs:      epochs,
		BatchSize:   64,
		LR:          3e-3,
		WeightDecay: 1e-4,
		Seed:        seed,
		Patience:    8,
	}
}

// History records per-epoch losses. BestVal is the lowest validation
// loss and BestEpoch the epoch that reached it: the network Fit returns
// holds that epoch's weights.
type History struct {
	TrainLoss []float64
	ValLoss   []float64
	BestVal   float64
	BestEpoch int
	Stopped   bool // true if early stopping triggered
}

// Fit trains the network on train, validating on val (which may be nil:
// then ValFrac of train is held out). It returns the training history;
// the network holds the weights of History.BestEpoch, copied back from
// a snapshot taken at each new best validation loss, so Evaluate on val
// reproduces History.BestVal. Only a run whose validation loss never
// drops below +Inf (a NaN-poisoned one) keeps its last weights.
//
// The hot loop is allocation-free in steady state for the engine's
// standard layers: minibatches are gathered into a reusable arena
// (GatherInto), layers stage activations and gradients through their own
// arenas, the loss gradient goes through GradInto, and the optimizer
// updates per-parameter state slots in place. Only the per-epoch shuffle
// and validation pass allocate.
func (n *Network) Fit(train, val *Dataset, cfg TrainConfig) (*History, error) {
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("nn: fit wants positive epochs, got %d", cfg.Epochs)
	}
	recipe := Recipe(cfg.Epochs, cfg.Seed)
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = recipe.BatchSize
	}
	if cfg.LR == 0 {
		cfg.LR = recipe.LR
	}
	if cfg.Loss == nil {
		cfg.Loss = MSE{}
	}
	if val == nil {
		valFrac := cfg.ValFrac
		if valFrac == 0 {
			valFrac = 0.2
		}
		if valFrac <= 0 || valFrac >= 1 {
			return nil, fmt.Errorf("nn: validation fraction %g out of (0,1)", valFrac)
		}
		shuffled, err := train.Shuffle(cfg.Seed)
		if err != nil {
			return nil, err
		}
		if train, val, err = shuffled.Split(1 - valFrac); err != nil {
			return nil, err
		}
	}
	var opt Optimizer
	switch cfg.Optimizer {
	case "", "adam":
		opt = NewAdam(cfg.LR, cfg.WeightDecay)
	case "sgd":
		opt = NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay)
	default:
		return nil, fmt.Errorf("nn: unknown optimizer %q", cfg.Optimizer)
	}

	h := &History{BestVal: math.Inf(1)}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	nSamples := train.Len()
	params := n.Params()
	// best holds the parameters of the best validation epoch so far;
	// it is filled at each new best and copied back before Fit returns.
	size := 0
	for _, p := range params {
		size += p.W.Len()
	}
	best := make([]float64, 0, size)
	gradInto, _ := cfg.Loss.(lossGradInto)
	// Minibatch and loss-gradient arenas, reused across steps. Datasets
	// of rank > maxScratchRank or with non-contiguous storage fall back
	// to the allocating Gather path, which handles any strides.
	var mbX, mbY, gradBuf scratch
	arena := train.X.Rank() <= maxScratchRank && train.Y.Rank() <= maxScratchRank &&
		train.X.IsContiguous() && train.Y.IsContiguous()
	stale := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := rng.Perm(nSamples)
		var epochLoss float64
		var batches int
		for lo := 0; lo < nSamples; lo += cfg.BatchSize {
			if cfg.Stop != nil && cfg.Stop() {
				return h, ErrTrainingStopped
			}
			hi := lo + cfg.BatchSize
			if hi > nSamples {
				hi = nSamples
			}
			var bx, by *tensor.Tensor
			if arena {
				bx = mbX.batchOf(train.X, hi-lo)
				by = mbY.batchOf(train.Y, hi-lo)
				if err := train.GatherInto(bx, by, perm[lo:hi]); err != nil {
					return nil, err
				}
			} else {
				mb, err := train.Gather(perm[lo:hi])
				if err != nil {
					return nil, err
				}
				bx, by = mb.X, mb.Y
			}
			for _, p := range params {
				p.ZeroGrad()
			}
			pred, err := n.ForwardTrain(bx)
			if err != nil {
				return nil, err
			}
			loss, err := cfg.Loss.Value(pred, by)
			if err != nil {
				return nil, err
			}
			var grad *tensor.Tensor
			if gradInto != nil {
				if grad = gradBuf.like(pred); grad != nil {
					if err := gradInto.GradInto(grad, pred, by); err != nil {
						return nil, err
					}
				}
			}
			if grad == nil {
				if grad, err = cfg.Loss.Grad(pred, by); err != nil {
					return nil, err
				}
			}
			if err := n.Backward(grad); err != nil {
				return nil, err
			}
			if err := opt.Step(params); err != nil {
				return nil, err
			}
			epochLoss += loss
			batches++
		}
		epochLoss /= float64(batches)
		valLoss, err := n.Evaluate(val, cfg.Loss)
		if err != nil {
			return nil, err
		}
		h.TrainLoss = append(h.TrainLoss, epochLoss)
		h.ValLoss = append(h.ValLoss, valLoss)
		if cfg.Verbose != nil {
			cfg.Verbose(epoch, epochLoss, valLoss)
		}
		if valLoss < h.BestVal {
			h.BestVal = valLoss
			h.BestEpoch = epoch
			stale = 0
			best = best[:0]
			for _, p := range params {
				best = append(best, p.W.Data()...)
			}
		} else {
			stale++
			if cfg.Patience > 0 && stale >= cfg.Patience {
				h.Stopped = true
				break
			}
		}
	}
	if len(best) > 0 {
		off := 0
		for _, p := range params {
			off += copy(p.W.Data(), best[off:])
		}
	}
	return h, nil
}

// Evaluate returns the mean loss over a dataset in inference mode.
func (n *Network) Evaluate(d *Dataset, loss Loss) (float64, error) {
	if loss == nil {
		loss = MSE{}
	}
	pred, err := n.Forward(d.X)
	if err != nil {
		return 0, err
	}
	return loss.Value(pred, d.Y)
}
