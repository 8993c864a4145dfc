package sim

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"qymera/internal/circuits"
	"qymera/internal/core"
	"qymera/internal/quantum"
	"qymera/internal/sqlengine"
)

// testCircuits is the cross-validation suite: every backend must produce
// the same state on each of these.
func testCircuits() []*quantum.Circuit {
	return []*quantum.Circuit{
		circuits.GHZ(2),
		circuits.GHZ(5),
		circuits.EqualSuperposition(4),
		circuits.ParityCheck([]bool{true, false, true}),
		circuits.ParitySuperposition(3),
		circuits.QFT(4),
		circuits.WState(4),
		circuits.BernsteinVazirani([]bool{true, true, false}),
		circuits.Grover(3, 5),
		circuits.RandomDense(4, 3, 11),
		circuits.RandomSparse(5, 40, 13),
		circuits.HardwareEfficientAnsatz(3, 2, []float64{.1, .2, .3, .4, .5, .6, .7, .8, .9, 1.0, 1.1, 1.2}),
	}
}

func allBackends(t *testing.T) []Backend {
	return []Backend{
		&StateVector{},
		&Sparse{},
		&SQL{SpillDir: t.TempDir()},
		&SQL{Mode: core.MaterializedChain, SpillDir: t.TempDir()},
		&SQL{Fusion: core.FusionSubset, SpillDir: t.TempDir()},
		&SQL{Encoding: core.EncodingArithmetic, SpillDir: t.TempDir()},
	}
}

// TestBackendsAgree runs every backend on every circuit and demands
// fidelity 1 with the dense reference.
func TestBackendsAgree(t *testing.T) {
	for _, c := range testCircuits() {
		ref, err := (&StateVector{}).Run(c)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.Name(), err)
		}
		for _, b := range allBackends(t) {
			res, err := b.Run(c)
			if err != nil {
				t.Fatalf("%s on %s: %v", c.Name(), b.Name(), err)
			}
			f := res.State.Fidelity(ref.State)
			if math.Abs(f-1) > 1e-9 {
				t.Errorf("%s on %s: fidelity = %v\nref:  %s\ngot:  %s",
					c.Name(), b.Name(), f, ref.State.FormatKet(), res.State.FormatKet())
			}
			if math.Abs(res.State.Norm()-1) > 1e-9 {
				t.Errorf("%s on %s: norm = %v", c.Name(), b.Name(), res.State.Norm())
			}
		}
	}
}

func TestStateVectorBudget(t *testing.T) {
	// 2^20 amplitudes * 16 B = 16 MiB; a 1 MiB budget must refuse.
	sv := &StateVector{MemoryBudget: 1 << 20}
	_, err := sv.Run(circuits.GHZ(20))
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("err = %v, want budget error", err)
	}
	// 16 qubits fit in 1 MiB + change.
	sv2 := &StateVector{MemoryBudget: 2 << 20}
	if _, err := sv2.Run(circuits.GHZ(16)); err != nil {
		t.Fatalf("16 qubits should fit: %v", err)
	}
}

func TestSparseBudget(t *testing.T) {
	// Dense circuit on 12 qubits: 4096 entries * 48 B ≈ 197 KB; a 10 KB
	// budget must refuse, while GHZ (2 entries) sails through.
	sp := &Sparse{MemoryBudget: 10 * 1024}
	if _, err := sp.Run(circuits.EqualSuperposition(12)); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("dense err = %v, want budget error", err)
	}
	if _, err := sp.Run(circuits.GHZ(40)); err != nil {
		t.Fatalf("GHZ-40 sparse should fit: %v", err)
	}
}

func TestSQLBudgetSpillVsFail(t *testing.T) {
	dense := circuits.EqualSuperposition(10)
	// With spilling the run completes out-of-core.
	spill := &SQL{MemoryBudget: 16 * 1024, SpillDir: t.TempDir()}
	res, err := spill.Run(dense)
	if err != nil {
		t.Fatalf("spilling run failed: %v", err)
	}
	if res.Stats.SpilledRows == 0 {
		t.Fatal("expected spilled rows under a 16 KB budget")
	}
	if res.State.Len() != 1024 {
		t.Fatalf("support = %d", res.State.Len())
	}
	// With spilling disabled it must fail with the shared sentinel.
	noSpill := &SQL{MemoryBudget: 16 * 1024, DisableSpill: true}
	if _, err := noSpill.Run(dense); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("err = %v, want budget error", err)
	}
}

// TestSQLBudgetErrorByType: budget exhaustion is recognised by error
// identity, not by message text. A real DisableSpill exhaustion maps to
// ErrMemoryBudget (and still wraps the engine's ErrBudget); an unrelated
// engine error that merely quotes the phrase does not.
func TestSQLBudgetErrorByType(t *testing.T) {
	_, err := (&SQL{MemoryBudget: 16 * 1024, DisableSpill: true}).Run(circuits.EqualSuperposition(10))
	if !errors.Is(err, ErrMemoryBudget) || !errors.Is(err, sqlengine.ErrBudget) {
		t.Fatalf("err = %v, want ErrMemoryBudget wrapping sqlengine.ErrBudget", err)
	}

	db, err := sqlengine.Open(sqlengine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, qerr := db.Query("SELECT 'memory budget exceeded' & 1")
	if qerr == nil || !strings.Contains(qerr.Error(), "memory budget exceeded") {
		t.Fatalf("want an engine error quoting the phrase, got %v", qerr)
	}
	if err := wrapBudget(fmt.Errorf("sql backend: %w", qerr)); errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("non-budget error %q mapped to ErrMemoryBudget", err)
	}
}

func TestSQLHugeSparseCircuit(t *testing.T) {
	// 60 qubits are far beyond any dense simulator, but GHZ keeps the
	// relational state at ≤ 2 rows after every stage.
	c := circuits.GHZ(60)
	res, err := (&SQL{SpillDir: t.TempDir()}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.State.Len() != 2 {
		t.Fatalf("support = %d", res.State.Len())
	}
	all1 := uint64(1)<<60 - 1
	inv := 1 / math.Sqrt2
	if math.Abs(real(res.State.Amplitude(all1))-inv) > 1e-9 {
		t.Fatalf("amp = %v", res.State.Amplitude(all1))
	}
}

func TestSQLInitialState(t *testing.T) {
	// X on qubit 0 starting from |01⟩ returns to |00⟩.
	c := quantum.NewCircuit(2).X(0)
	b := &SQL{Initial: quantum.BasisState(2, 1)}
	res, err := b.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.State.Probability(0) < 0.999 {
		t.Fatalf("state = %s", res.State.FormatKet())
	}
}

func TestSQLStatsPopulated(t *testing.T) {
	res, err := (&SQL{Mode: core.MaterializedChain}).Run(circuits.GHZ(4))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Backend != "sql-chain" || st.GateCount != 4 || st.FinalNonzeros != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MaxIntermediateSize < 2 {
		t.Fatalf("max intermediate = %d", st.MaxIntermediateSize)
	}
	if st.WallTime <= 0 {
		t.Fatal("wall time not measured")
	}
}

func TestStateVectorRejectsTooWide(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panic: %v", r)
		}
	}()
	_, err := (&StateVector{}).Run(circuits.GHZ(40))
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("err = %v", err)
	}
}

func TestPruningKeepsExactZeros(t *testing.T) {
	// H then H returns to |0⟩; the |1⟩ amplitude must be pruned, not
	// kept as a 1e-17 artifact.
	c := quantum.NewCircuit(1).H(0).H(0)
	for _, b := range []Backend{&Sparse{}, &SQL{}} {
		res, err := b.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if res.State.Len() != 1 {
			t.Fatalf("%s: support = %d (%s)", b.Name(), res.State.Len(), res.State.FormatKet())
		}
	}
}
