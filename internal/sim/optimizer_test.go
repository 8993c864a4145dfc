package sim

import (
	"testing"

	"qymera/internal/circuits"
	"qymera/internal/core"
	"qymera/internal/quantum"
)

// TestSQLOptimizerBitIdenticalAmplitudes asserts the cost-based
// optimizer's correctness invariant at the simulation level: the SQL
// backend produces bitwise-identical amplitudes with the optimizer on
// and off, on both storage layouts, at one and at four workers, in both
// translation modes. The optimizer's one order-sensitive rewrite, CTE
// inlining, is guarded away from plans with float accumulation (see
// internal/sqlengine/optimize.go), so plan shape changes but amplitude
// bits never do.
func TestSQLOptimizerBitIdenticalAmplitudes(t *testing.T) {
	workloads := []struct {
		name string
		c    *quantum.Circuit
		mode core.Mode
	}{
		{"ghz", circuits.GHZ(12), core.SingleQuery},
		{"qft", circuits.QFT(7), core.SingleQuery},
		// 2^15 nonzero amplitudes: spans several morsels, so the
		// parallel runs exercise pre-sized aggregation and scan hints.
		{"parity", circuits.ParitySuperposition(15), core.SingleQuery},
		{"qft-chain", circuits.QFT(6), core.MaterializedChain},
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			var ref *quantum.State
			for _, optimizer := range []string{"on", "off"} {
				for _, layout := range []string{"columnar", "row"} {
					for _, workers := range []int{1, 4} {
						res, err := (&SQL{Mode: wl.mode, Optimizer: optimizer, Layout: layout, Parallelism: workers}).Run(wl.c)
						if err != nil {
							t.Fatalf("optimizer=%s layout=%s workers=%d: %v", optimizer, layout, workers, err)
						}
						if ref == nil {
							ref = res.State
							continue
						}
						if err := statesBitIdentical(ref, res.State); err != nil {
							t.Fatalf("optimizer=%s layout=%s workers=%d: %v", optimizer, layout, workers, err)
						}
					}
				}
			}
		})
	}
}

// TestSQLOptimizerBitIdenticalUnderBudget covers the out-of-core plan
// choices (grace pre-choice, serial-vs-parallel gather gate): under a
// tight shared budget the amplitudes must still match the unlimited
// reference bit for bit.
func TestSQLOptimizerBitIdenticalUnderBudget(t *testing.T) {
	c := circuits.ParitySuperposition(13)
	refRes, err := (&SQL{}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, optimizer := range []string{"on", "off"} {
		res, err := (&SQL{Optimizer: optimizer, MemoryBudget: 1 << 20, SpillDir: t.TempDir(), Parallelism: 2}).Run(c)
		if err != nil {
			t.Fatalf("optimizer=%s: %v", optimizer, err)
		}
		if err := statesBitIdentical(refRes.State, res.State); err != nil {
			t.Fatalf("optimizer=%s under budget: %v", optimizer, err)
		}
	}
}
