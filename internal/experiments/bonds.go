package experiments

import (
	"fmt"

	hpacml "repro"

	"repro/internal/benchmarks/bonds"
	"repro/internal/benchmarks/common"
)

// NewBonds builds the Bonds harness, sharing the two-hidden-layer
// architecture family with Binomial Options (Table IV).
func NewBonds(scale Scale) *Harness {
	cfg := bonds.DefaultConfig()
	if scale == ScaleTest {
		cfg.NumBonds = 1024
	}
	in, err := bonds.New(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: bonds config invalid: %v", err))
	}
	n := in.Cfg.NumBonds
	arch, paper := twoLayerSpace(scale)
	return newHarness(&Harness{
		info: common.Info{
			Name:        "bonds",
			Description: "Fixed-rate bond valuation and interest payments under a flat forward curve",
			QoI:         "The accrued interest for each bond",
			Metric:      common.MetricRMSE,
			TotalLoC:    bonds.SourceLoC(),
		},
		arch:       arch,
		paperArch:  paper,
		directives: bonds.Directives,
		bind: []hpacml.Option{
			hpacml.BindInt("NB", n),
			hpacml.BindArray("coupon", in.Coupon, n),
			hpacml.BindArray("rate", in.Rate, n),
			hpacml.BindArray("maturity", in.Maturity, n),
			hpacml.BindArray("settle", in.Settle, n),
			hpacml.BindArray("accrued", in.Accrued, n),
		},
		app: &tabular{
			reset:  in.RandomizeBonds,
			run:    func() error { in.ComputeValuations(); return nil },
			out:    in.Accrued,
			hidden: twoLayerHidden,
		},
	})
}
