package experiments

import (
	"fmt"

	hpacml "repro"

	"repro/internal/benchmarks/binomial"
	"repro/internal/benchmarks/common"
)

// NewBinomial builds the Binomial Options harness with the Table IV
// two-hidden-layer family.
func NewBinomial(scale Scale) *Harness {
	cfg := binomial.DefaultConfig()
	if scale == ScaleTest {
		cfg.NumOptions = 1024
		cfg.Steps = 256
	}
	in, err := binomial.New(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: binomial config invalid: %v", err))
	}
	n := in.Cfg.NumOptions
	arch, paper := twoLayerSpace(scale)
	return newHarness(&Harness{
		info: common.Info{
			Name:        "binomial",
			Description: "American option pricing for a portfolio on a binomial lattice",
			QoI:         "The computed prices",
			Metric:      common.MetricRMSE,
			TotalLoC:    binomial.SourceLoC(),
		},
		arch:       arch,
		paperArch:  paper,
		directives: binomial.Directives,
		bind: []hpacml.Option{
			hpacml.BindInt("NOPT", n),
			hpacml.BindArray("S", in.S, n),
			hpacml.BindArray("X", in.X, n),
			hpacml.BindArray("T", in.T, n),
			hpacml.BindArray("prices", in.Prices, n),
		},
		app: &tabular{
			reset:  in.RandomizeOptions,
			run:    func() error { in.ComputePrices(); return nil },
			out:    in.Prices,
			hidden: twoLayerHidden,
		},
	})
}
