package sim

import (
	"testing"

	"qymera/internal/circuits"
	"qymera/internal/core"
	"qymera/internal/quantum"
	"qymera/internal/sqlengine"
)

// TestSQLKernelBitIdenticalAmplitudes asserts the kernel tier's
// correctness invariant at the simulation level: the SQL backend
// produces bitwise-identical amplitudes with kernels on and off, on
// both storage layouts, at one and at four workers, with the optimizer
// on and off, in both translation modes. The fused loop replays the
// interpreted engine's accumulation and emission order exactly (see
// internal/sqlengine/kernel.go), so only throughput changes.
func TestSQLKernelBitIdenticalAmplitudes(t *testing.T) {
	workloads := []struct {
		name string
		c    *quantum.Circuit
		mode core.Mode
	}{
		{"ghz", circuits.GHZ(12), core.SingleQuery},
		{"qft", circuits.QFT(7), core.SingleQuery},
		// 2^15 nonzero amplitudes: spans several morsels, so the
		// parallel runs exercise the kernel's two-phase morsel path.
		{"parity", circuits.ParitySuperposition(15), core.SingleQuery},
		{"qft-chain", circuits.QFT(6), core.MaterializedChain},
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			var ref *quantum.State
			for _, kernels := range []string{"on", "off"} {
				for _, layout := range []string{"columnar", "row"} {
					for _, workers := range []int{1, 4} {
						for _, optimizer := range []string{"on", "off"} {
							b := &SQL{Mode: wl.mode, Kernels: kernels, Optimizer: optimizer, Layout: layout, Parallelism: workers}
							res, err := b.Run(wl.c)
							if err != nil {
								t.Fatalf("kernels=%s layout=%s workers=%d optimizer=%s: %v", kernels, layout, workers, optimizer, err)
							}
							if ref == nil {
								ref = res.State
								continue
							}
							if err := statesBitIdentical(ref, res.State); err != nil {
								t.Fatalf("kernels=%s layout=%s workers=%d optimizer=%s: %v", kernels, layout, workers, optimizer, err)
							}
						}
					}
				}
			}
		})
	}
}

// TestSQLKernelCacheRidesPlanCache: compiled kernels are shared per
// process, so once a parameter sweep's first point has lowered each
// gate-stage shape, later points — on a backend with a PlanCache and on
// one without — compile nothing and reuse every program.
func TestSQLKernelCacheRidesPlanCache(t *testing.T) {
	cache := NewPlanCache(8)
	sweep := func(b *SQL, point int) {
		t.Helper()
		params := make([]float64, 6*2)
		for i := range params {
			params[i] = 0.1 + 0.2*float64(point) + 0.01*float64(i)
		}
		if _, err := b.Run(circuits.HardwareEfficientAnsatz(3, 2, params)); err != nil {
			t.Fatal(err)
		}
	}
	sweep(&SQL{Cache: cache, Parallelism: 1}, 0)
	sqlengine.ResetKernelCounters()
	for point := 1; point < 4; point++ {
		sweep(&SQL{Cache: cache, Parallelism: 1}, point)
		sweep(&SQL{Parallelism: 1}, point)
	}
	kc := sqlengine.KernelCounters()
	if kc["executions"] == 0 {
		t.Fatal("kernel never executed during the sweep")
	}
	if kc["compiles"] != 0 || kc["cache_hits"] == 0 {
		t.Fatalf("later sweep points recompiled instead of reusing the process's kernels: %v", kc)
	}
	if cache.Kernels() != sqlengine.ProcessKernelCache() || cache.Kernels().Len() == 0 {
		t.Fatal("the plan cache's kernels are not the process-wide cache")
	}
}
