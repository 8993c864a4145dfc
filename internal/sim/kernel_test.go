package sim

import (
	"fmt"
	"math"
	"testing"

	"qymera/internal/circuits"
	"qymera/internal/core"
	"qymera/internal/quantum"
	"qymera/internal/sqlengine"
)

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
	sweep(&SQL{Cache: cache}, 0)
	sqlengine.ResetKernelCounters()
	for point := 1; point < 4; point++ {
		sweep(&SQL{Cache: cache}, point)
		sweep(&SQL{}, point)
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

// TestKernelsUnderBudget: under a bounded budget the kernel tier stays
// on — each gate-stage kernel and fused chain reserves its working set
// and declines to the spilling interpreter only when the budget refuses
// it. A run that declined nothing more than the unbounded run (whose
// declines are structural, such as a plain copy statement) executes
// the unbounded run's serial schedule, so its amplitudes are
// bit-identical to it; a run that declined more stages still agrees
// with the state vector. Every run gives all its reservations back.
func TestKernelsUnderBudget(t *testing.T) {
	angles := make([]float64, 3*8*2)
	for i := range angles {
		angles[i] = 0.37*float64(i) + 0.11
	}
	workloads := []struct {
		name string
		c    *quantum.Circuit
	}{
		{"superpos12", circuits.EqualSuperposition(12)},
		{"ghz16", circuits.GHZ(16)},
		{"qft10", circuits.QFT(10)},
		{"w12", circuits.WState(12)},
		{"dense10x4", circuits.RandomDense(10, 4, 7)},
		{"ansatz8x3", circuits.HardwareEfficientAnsatz(8, 3, angles)},
	}
	const floor192 = 192<<10 + 192<<10/4 // limit + working floor
	for _, wl := range workloads {
		ref, err := (&StateVector{}).Run(wl.c)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []core.Mode{core.SingleQuery, core.MaterializedChain} {
			before := sqlengine.KernelCounters()["fallbacks"]
			unbounded, err := (&SQL{Mode: mode}).Run(wl.c)
			if err != nil {
				t.Fatal(err)
			}
			structural := sqlengine.KernelCounters()["fallbacks"] - before
			for _, limit := range []int64{64 << 10, 192 << 10, 1 << 20, 1 << 30} {
				name := fmt.Sprintf("%s/mode=%d/limit=%d", wl.name, mode, limit)
				t.Run(name, func(t *testing.T) {
					budget := sqlengine.NewMemBudget(limit)
					before := sqlengine.KernelCounters()["fallbacks"]
					res, err := (&SQL{Mode: mode, Budget: budget, SpillDir: t.TempDir()}).Run(wl.c)
					if err != nil {
						t.Fatal(err)
					}
					declines := sqlengine.KernelCounters()["fallbacks"] - before - structural
					if used := budget.Used(); used != 0 {
						t.Fatalf("budget still holds %d bytes after the run", used)
					}
					if declines == 0 {
						if err := statesBitIdentical(unbounded.State, res.State); err != nil {
							t.Fatalf("no kernel declined, yet the run differs from the unbounded one: %v", err)
						}
					} else if f := ref.State.Fidelity(res.State); math.Abs(f-1) > 1e-9 {
						t.Fatalf("fidelity with the state vector %.12f after %d declines", f, declines)
					}
					if wl.name == "superpos12" && mode == core.SingleQuery && limit == 192<<10 {
						if declines != 0 {
							t.Fatalf("H^⊗12 at 192 KiB: %d kernel declines, want 0", declines)
						}
						if peak := budget.Peak(); peak > floor192 {
							t.Fatalf("H^⊗12 at 192 KiB peaked at %d bytes, above limit + working floor %d", peak, floor192)
						}
					}
				})
			}
		}
	}
}

// denseQFT12PeakBound caps the budgeted high-water mark of one QFT-12
// job. The result store and its copy for the caller fit well under it;
// a final ORDER BY s that buffered the 4,096 result rows boxed would
// add about 480 KB on top and fail it.
const denseQFT12PeakBound = 400_000

// TestDenseQFT12PeakBytes: the top-level gate-stage kernel emits its
// dense result in key order, so the final sort streams the rows instead
// of buffering them.
func TestDenseQFT12PeakBytes(t *testing.T) {
	res, err := (&SQL{}).Run(circuits.QFT(12))
	if err != nil {
		t.Fatal(err)
	}
	if peak := res.Stats.PeakBytes; peak > denseQFT12PeakBound {
		t.Fatalf("QFT-12 peak = %d B, bound %d B", peak, denseQFT12PeakBound)
	}
}
