package sim

import (
	"context"
	"testing"

	"qymera/internal/circuits"
	"qymera/internal/core"
	"qymera/internal/obs"
	"qymera/internal/quantum"
	"qymera/internal/sqlengine"
)

// TestSQLChainFusionBitIdenticalAmplitudes asserts whole-circuit
// fusion's invariant at the simulation level: the sql-chain backend,
// which runs the fused statement list, produces amplitudes
// bitwise-identical to the unfused statement list (tr.Statements())
// run one statement at a time on a fresh engine, from a context with
// and without a trace span.
func TestSQLChainFusionBitIdenticalAmplitudes(t *testing.T) {
	workloads := []struct {
		name string
		c    *quantum.Circuit
	}{
		{"ghz", circuits.GHZ(10)},
		{"qft", circuits.QFT(6)},
		// 2^14 nonzero amplitudes: interior chain stages span several
		// cancellation strides of the fused loop.
		{"parity", circuits.ParitySuperposition(14)},
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			ref := unfusedState(t, wl.c)
			for _, traced := range []bool{false, true} {
				ctx := context.Background()
				if traced {
					ctx = obs.WithSpan(ctx, obs.NewTrace("job", obs.SampleDefault).Root())
				}
				res, err := (&SQL{Mode: core.MaterializedChain}).RunContext(ctx, wl.c)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if err := statesBitIdentical(ref, res.State); err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
			}
		})
	}
}

// unfusedState runs c's MaterializedChain translation as the unfused
// statement list, one CREATE TABLE AS per stage, on a fresh engine and
// returns the state its final query reads.
func unfusedState(t *testing.T, c *quantum.Circuit) *quantum.State {
	t.Helper()
	tr, err := core.Translate(c, nil, core.Options{Mode: core.MaterializedChain, PruneEps: pruneEpsDefault})
	if err != nil {
		t.Fatal(err)
	}
	db, err := sqlengine.Open(sqlengine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, stmt := range tr.Statements() {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := db.Query(tr.Query)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	state := quantum.NewState(c.NumQubits())
	for {
		row, ok, err := rs.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return state
		}
		state.Set(uint64(row[0].I), complex(row[1].F, row[2].F))
	}
}

// TestSQLChainFusionSpillDecline: under a tight memory budget the
// fused statement must decline to spilling stage-at-a-time execution
// and still complete with amplitudes matching the unconstrained run up
// to bit identity.
func TestSQLChainFusionSpillDecline(t *testing.T) {
	c := circuits.ParitySuperposition(14)
	ref, err := (&SQL{Mode: core.MaterializedChain}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&SQL{
		Mode:         core.MaterializedChain,
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
