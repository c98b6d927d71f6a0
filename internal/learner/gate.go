package learner

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// The shadow gate: a candidate is evaluated against the currently
// published model on the held-out slice of the capture snapshot —
// records neither saw during training — and publishes iff its error
// there is finite and no worse than the published model's: candErr <=
// pubErr, with no tolerance on top. Captures record what the accurate
// path answered, so both errors measure distance from the truth, and
// a slack would let every generation drift further from it. A
// published model whose own error is NaN is beaten by any finite
// candidate.

// holdoutFrac is the trailing fraction of the shuffled snapshot held
// out for the gate (never trained on).
const holdoutFrac = 0.25

// relErr is the gate's error measure: nn.MeanRelL2, the int8 fit
// gate's metric, of the prediction against the holdout targets. Its
// RMS floor keeps rows whose targets are ~0 (out-of-the-money option
// prices) from dividing by noise. Ensembles evaluate as served — the
// member-mean prediction — so a set is gated all-or-nothing on the
// quantity clients actually receive. Any non-finite prediction
// poisons the result to NaN, which the gate rejects; any other result
// is finite.
func relErr(nets []*nn.Network, holdout *nn.Dataset) (float64, error) {
	if len(nets) == 0 {
		return 0, fmt.Errorf("learner: no networks to evaluate")
	}
	rows := holdout.Len()
	y := holdout.Y.Contiguous().Data()
	mean := make([]float64, len(y))
	for _, net := range nets {
		pred, err := net.Forward(holdout.X)
		if err != nil {
			return 0, fmt.Errorf("learner: gate forward: %w", err)
		}
		pd := pred.Contiguous().Data()
		if len(pd) != len(y) {
			return 0, fmt.Errorf("learner: gate shape mismatch: model yields %d outputs, holdout has %d", len(pd), len(y))
		}
		for i, v := range pd {
			mean[i] += v
		}
	}
	inv := 1 / float64(len(nets))
	for i := range mean {
		mean[i] *= inv
	}
	return nn.MeanRelL2(mean, y, rows, len(y)/rows), nil
}

// stackRecords concatenates per-append capture records into one
// [rows, cols] matrix, treating a rank-1 record as a single row. This
// is the record-paired twin of h5.File.Read: the caller truncates the
// record lists to equal length first, so a snapshot taken mid-set
// (inputs appended, outputs still buffered) never yields an unpaired
// trailing sample.
func stackRecords(recs []*tensor.Tensor) (*tensor.Tensor, error) {
	rows, cols := 0, 0
	for i, r := range recs {
		rr, rc := recordDims(r)
		if i == 0 {
			cols = rc
		} else if rc != cols {
			return nil, fmt.Errorf("learner: capture records disagree on width: %d vs %d", rc, cols)
		}
		rows += rr
	}
	out := tensor.New(rows, cols)
	d := out.Data()
	at := 0
	for _, r := range recs {
		rd := r.Contiguous().Data()
		copy(d[at:at+len(rd)], rd)
		at += len(rd)
	}
	return out, nil
}

// recordDims flattens one capture record to row-major [rows, cols].
func recordDims(t *tensor.Tensor) (rows, cols int) {
	n := len(t.Contiguous().Data())
	if t.Rank() <= 1 {
		return 1, n
	}
	rows = t.Dim(0)
	if rows == 0 {
		return 0, 0
	}
	return rows, n / rows
}
