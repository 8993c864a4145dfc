package bench

import (
	"fmt"
	"time"

	"qymera/internal/circuits"
	"qymera/internal/core"
	"qymera/internal/quantum"
	"qymera/internal/sim"
)

func init() {
	register(Experiment{
		// "matrixfusion" is the paper's gate-matrix fusion ablation
		// (§3.2), not the engine's whole-circuit chain fusion.
		ID:    "matrixfusion",
		Paper: "§3.2 'Query Optimization' — gate fusion",
		Desc:  "ablation: SQL backend with matrix fusion off / same-qubits / subset; stages, runtime, intermediate rows",
		Run:   runFusion,
	})
	register(Experiment{
		ID:    "encoding",
		Paper: "§2.2 discussion — integer+bitwise encoding vs arithmetic index math",
		Desc:  "ablation: the paper's bitwise index expressions vs equivalent division/modulo expressions",
		Run:   runEncoding,
	})
}

func fusionWorkloads(opts Options) []*quantum.Circuit {
	if opts.Quick {
		return []*quantum.Circuit{
			circuits.GHZ(8),
			circuits.QFT(5),
			circuits.RandomDense(6, 2, 17),
		}
	}
	return []*quantum.Circuit{
		circuits.GHZ(14),
		circuits.QFT(8),
		circuits.RandomDense(9, 3, 17),
		circuits.HardwareEfficientAnsatz(8, 2, fixedParams(8*2*2)),
	}
}

func fixedParams(n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = 0.1 + 0.05*float64(i)
	}
	return p
}

func runFusion(opts Options) ([]*Table, error) {
	levels := []core.FusionLevel{core.FusionOff, core.FusionSameQubits, core.FusionSubset}
	var tables []*Table
	for _, c := range fusionWorkloads(opts) {
		ref, err := (&sim.StateVector{}).Run(c)
		if err != nil {
			return nil, err
		}
		t := NewTable(fmt.Sprintf("Gate fusion ablation — %s (%d gates)", c.Name(), c.Len()),
			"fusion", "SQL stages", "median time", "max intermediate rows", "fidelity")
		for _, lvl := range levels {
			b := &sim.SQL{Fusion: lvl, SpillDir: opts.SpillDir, Mode: core.MaterializedChain}
			var stats sim.Stats
			var fid float64
			med, err := Median3(func() (time.Duration, error) {
				res, err := b.Run(c)
				if err != nil {
					return 0, err
				}
				stats = res.Stats
				fid = res.State.Fidelity(ref.State)
				return res.Stats.WallTime, nil
			})
			if err != nil {
				return nil, err
			}
			tr, err := core.Translate(c, nil, core.Options{Fusion: lvl})
			if err != nil {
				return nil, err
			}
			t.Addf(lvl.String(), tr.StageCount, FormatDuration(med),
				stats.MaxIntermediateSize, fmt.Sprintf("%.6f", fid))
		}
		tables = append(tables, t)
	}
	return tables, nil
}

func runEncoding(opts Options) ([]*Table, error) {
	var tables []*Table
	for _, c := range fusionWorkloads(opts) {
		ref, err := (&sim.StateVector{}).Run(c)
		if err != nil {
			return nil, err
		}
		t := NewTable(fmt.Sprintf("Index encoding ablation — %s (%d gates)", c.Name(), c.Len()),
			"encoding", "median time", "fidelity")
		for _, enc := range []core.Encoding{core.EncodingBitwise, core.EncodingArithmetic} {
			b := &sim.SQL{Encoding: enc, SpillDir: opts.SpillDir}
			var fid float64
			med, err := Median3(func() (time.Duration, error) {
				res, err := b.Run(c)
				if err != nil {
					return 0, err
				}
				fid = res.State.Fidelity(ref.State)
				return res.Stats.WallTime, nil
			})
			if err != nil {
				return nil, err
			}
			t.Addf(enc.String(), FormatDuration(med), fmt.Sprintf("%.6f", fid))
		}
		tables = append(tables, t)
	}
	return tables, nil
}
