package experiments

import (
	"fmt"

	hpacml "repro"

	"repro/internal/benchmarks/common"
	"repro/internal/benchmarks/minibude"
	"repro/internal/bo"
)

// NewMiniBUDE builds the MiniBUDE harness. The architecture space is the
// Table IV family (hidden-layer count, first hidden size, feature
// multiplier), scaled down at ScaleTest.
func NewMiniBUDE(scale Scale) *Harness {
	cfg := minibude.DefaultConfig()
	if scale == ScaleTest {
		// Fewer poses than the campaign deck but the full interaction
		// density (the real bm1 deck has a 938-atom protein), keeping
		// the kernel compute-bound.
		cfg.NumPoses = 1024
		cfg.ProteinAtoms = 512
		cfg.LigandAtoms = 26
	}
	in, err := minibude.New(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: minibude config invalid: %v", err))
	}

	var hidden1 bo.Param
	var layers bo.Param
	if scale == ScaleFull {
		layers = bo.IntParam{Key: "layers", Min: 2, Max: 12}
		hidden1 = bo.ChoiceParam{Key: "hidden1", Choices: []int{64, 128, 256, 512, 1024, 2048, 4096}}
	} else {
		layers = bo.IntParam{Key: "layers", Min: 2, Max: 4}
		hidden1 = bo.ChoiceParam{Key: "hidden1", Choices: []int{16, 32, 64, 128}}
	}
	n := in.Cfg.NumPoses
	return newHarness(&Harness{
		info: common.Info{
			Name:        "minibude",
			Description: "Virtual screening in molecular docking: empirical-forcefield pose scoring",
			QoI:         "Ligand-protein binding energy for each pose",
			Metric:      common.MetricMAPE,
			TotalLoC:    minibude.SourceLoC(),
		},
		arch: &bo.Space{Params: []bo.Param{
			layers,
			hidden1,
			bo.FloatParam{Key: "feature_mult", Min: 0.1, Max: 0.8},
		}},
		paperArch: []string{
			"Num. Hidden Layers: [2, 12]",
			"Hidden 1 Size: 64, 128, ..., 4096",
			"Feature Multiplier: [0.1, 0.8]",
		},
		directives: minibude.Directives,
		bind: []hpacml.Option{
			hpacml.BindInt("NPOSES", n),
			hpacml.BindArray("poses", in.Poses, n, 6),
			hpacml.BindArray("energies", in.Energies, n),
		},
		app: &tabular{
			reset:  in.RandomizePoses,
			run:    func() error { in.ComputeEnergies(); return nil },
			out:    in.Energies,
			hidden: budeHidden,
		},
	})
}

// budeHidden realizes the Table IV MiniBUDE family: layers hidden
// layers, the first sized hidden1, each following layer shrunk by the
// feature multiplier.
func budeHidden(arch map[string]bo.Value) ([]int, error) {
	layers := arch["layers"].Int
	h1 := arch["hidden1"].Int
	mult := arch["feature_mult"].Float
	if layers < 1 || h1 < 1 {
		return nil, fmt.Errorf("experiments: bad minibude arch %v", arch)
	}
	hidden := make([]int, layers)
	size := float64(h1)
	for i := range hidden {
		if size < 4 {
			size = 4
		}
		hidden[i] = int(size)
		size *= mult
	}
	return hidden, nil
}
