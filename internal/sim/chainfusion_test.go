package sim

import (
	"testing"

	"qymera/internal/circuits"
	"qymera/internal/core"
	"qymera/internal/quantum"
)

// TestSQLChainFusionBitIdenticalAmplitudes asserts whole-circuit
// fusion's invariant at the simulation level: the sql-chain backend
// produces bitwise-identical amplitudes with chain fusion on and off,
// across worker counts and kernels on/off (fusion off when kernels are
// off — the statements still chain through CTEs and must
// stay exact).
func TestSQLChainFusionBitIdenticalAmplitudes(t *testing.T) {
	workloads := []struct {
		name string
		c    *quantum.Circuit
	}{
		{"ghz", circuits.GHZ(10)},
		{"qft", circuits.QFT(6)},
		// 2^14 nonzero amplitudes: interior chain stages span several
		// morsels, exercising the fused two-phase morsel path.
		{"parity", circuits.ParitySuperposition(14)},
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			var ref *quantum.State
			for _, chain := range []string{"off", "on"} {
				for _, kernels := range []string{"on", "off"} {
					for _, workers := range []int{1, 4} {
						b := &SQL{
							Mode:        core.MaterializedChain,
							ChainFusion: chain,
							Kernels:     kernels,
							Parallelism: workers,
						}
						res, err := b.Run(wl.c)
						if err != nil {
							t.Fatalf("chain=%s kernels=%s workers=%d: %v", chain, kernels, workers, err)
						}
						if ref == nil {
							ref = res.State
							continue
						}
						if err := statesBitIdentical(ref, res.State); err != nil {
							t.Fatalf("chain=%s kernels=%s workers=%d: %v", chain, kernels, workers, err)
						}
					}
				}
			}
		})
	}
}

// TestSQLChainFusionSpillDecline: under a tight memory budget the
// fused statement must decline to spilling stage-at-a-time execution
// and still complete with amplitudes matching the unconstrained run up
// to bit identity.
func TestSQLChainFusionSpillDecline(t *testing.T) {
	c := circuits.ParitySuperposition(14)
	ref, err := (&SQL{Mode: core.MaterializedChain, ChainFusion: "on", Parallelism: 4}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&SQL{
		Mode:         core.MaterializedChain,
		ChainFusion:  "on",
		Parallelism:  4,
		MemoryBudget: 1 << 20,
		SpillDir:     t.TempDir(),
	}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SpilledRows == 0 {
		t.Fatal("budgeted run did not spill; budget too generous for the test")
	}
	if err := statesBitIdentical(ref.State, res.State); err != nil {
		t.Fatalf("spilling chain run diverged: %v", err)
	}
}
