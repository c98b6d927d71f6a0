package hpacml

import (
	"fmt"
	"math"

	"repro/internal/h5"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Int8 calibration fitting: the offline step that turns a capture
// database into a ".quant" sidecar the serving path can trust. It
// mirrors the guardrail's fit step — read the region's captured inputs
// from the shard set, fit on them, save a sidecar beside the model —
// with one addition the guardrail does not need: a mandatory accuracy
// gate. Quantization is a lossy rewrite of the model, so the fit
// replays held-out captures through both the int8 program and the
// float64 reference and refuses to produce a sidecar when the mean
// relative L2 between them exceeds the configured tolerance. The gate
// verdict is stamped into the sidecar, and LocalEngine re-checks it at
// load, so neither a failed fit nor a hand-edited sidecar can put an
// unvetted int8 path into serving.

// QuantFitConfig configures FitQuantFromDB.
type QuantFitConfig struct {
	// Mode is nn.QuantMaxAbs (default) or nn.QuantPercentile; Q is the
	// tail fraction per side in percentile mode.
	Mode string
	Q    float64
	// RTol is the accuracy gate: the fitted int8 path's mean relative
	// L2 against the float64 reference on held-out captures must not
	// exceed it. 0 means the default of 0.05.
	RTol float64
	// Holdout is the trailing fraction of capture rows reserved for the
	// gate (never calibrated on). 0 means the default of 0.2.
	Holdout float64
}

// quantGateMaxRows caps the gate's holdout replay; beyond this the
// error estimate is stable and the fit step should stay cheap.
const quantGateMaxRows = 4096

// FitQuantFromDB fits an int8 calibration for the model from the
// "inputs" dataset of a region's capture database (all shards merged):
// the leading rows calibrate the activation ranges, the trailing
// Holdout fraction replays through the quantized and float64 paths to
// measure the gate error. The returned calibration has the gate verdict
// stamped; if the error exceeds RTol, an error is returned instead and
// no calibration escapes — the caller has nothing to save, which is the
// point.
func FitQuantFromDB(dbPath, region, modelPath string, cfg QuantFitConfig) (*nn.QuantCalib, error) {
	f, err := h5.OpenShards(dbPath)
	if err != nil {
		return nil, err
	}
	x, err := f.Read(region, "inputs")
	if err != nil {
		return nil, err
	}
	net, err := nn.Load(modelPath)
	if err != nil {
		return nil, err
	}
	return FitQuant(net, x, cfg)
}

// FitQuant is FitQuantFromDB on an already-loaded network and capture
// slab: rows along dim 0, model-layout features flattened from the
// rest.
func FitQuant(net *nn.Network, x *tensor.Tensor, cfg QuantFitConfig) (*nn.QuantCalib, error) {
	if x == nil || x.Rank() < 2 || x.Dim(0) < 2 {
		return nil, fmt.Errorf("hpacml: quant fit wants at least 2 capture rows, shaped [rows, features...]")
	}
	rtol := cfg.RTol
	if rtol == 0 {
		rtol = 0.05
	}
	if rtol < 0 || math.IsNaN(rtol) {
		return nil, fmt.Errorf("hpacml: quant gate rtol %g invalid", cfg.RTol)
	}
	holdout := cfg.Holdout
	if holdout == 0 {
		holdout = 0.2
	}
	if holdout <= 0 || holdout >= 1 {
		return nil, fmt.Errorf("hpacml: quant holdout fraction %g out of (0, 1)", cfg.Holdout)
	}
	rows := x.Dim(0)
	features := x.Len() / rows
	nHold := int(float64(rows) * holdout)
	if nHold < 1 {
		nHold = 1
	}
	nCalib := rows - nHold
	if nCalib < 1 {
		return nil, fmt.Errorf("hpacml: %d capture rows leave no calibration split at holdout %g", rows, holdout)
	}
	data := x.Contiguous().Data()
	calibX, err := tensor.Wrap(data[:nCalib*features], nCalib, features)
	if err != nil {
		return nil, err
	}
	calib, err := nn.CalibrateI8(net, calibX, nn.CalibConfig{Mode: cfg.Mode, Q: cfg.Q})
	if err != nil {
		return nil, err
	}
	fwd, err := nn.NewForwardI8(net, calib)
	if err != nil {
		return nil, err
	}
	if nHold > quantGateMaxRows {
		nHold = quantGateMaxRows
	}
	hold := data[nCalib*features : (nCalib+nHold)*features]
	holdX, err := tensor.Wrap(hold, nHold, features)
	if err != nil {
		return nil, err
	}
	ref, err := net.Forward(holdX)
	if err != nil {
		return nil, err
	}
	refData := ref.Contiguous().Data()
	outDim := calib.OutDim
	pred := make([]float64, nHold*outDim)
	if err := fwd.Forward(pred, hold, nHold); err != nil {
		return nil, err
	}
	calib.GateErr = nn.MeanRelL2(pred, refData, nHold, outDim)
	calib.GateRTol = rtol
	if !calib.GatePassed() {
		return nil, fmt.Errorf("hpacml: int8 accuracy gate failed: mean relative L2 %g vs float64 on %d held-out rows exceeds rtol %g",
			calib.GateErr, nHold, rtol)
	}
	return calib, nil
}
