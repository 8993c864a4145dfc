package sqlengine

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// refDenseBound is denseBound's reference, from the keys' minimum and
// maximum: -1 for a negative key, else the smallest all-ones mask
// covering the maximum with every f(out) ORed in, or -1 once that
// reaches denseCap.
func refDenseBound(keys, gOut []int64) int64 {
	lo, hi := keys[0], keys[0]
	for _, k := range keys {
		lo, hi = min(lo, k), max(hi, k)
	}
	if lo < 0 {
		return -1
	}
	var m int64
	for m < hi {
		m = m<<1 | 1
	}
	for _, out := range gOut {
		m |= out
	}
	if m >= denseCap {
		return -1
	}
	return m
}

// bindBottom plans query on db, materializes what its chain's bottom
// stage reads, and binds the chain, as runKernel does before a run.
func bindBottom(t *testing.T, db *DB, query string) *boundGate {
	t.Helper()
	stmt, _, err := ParseStatement(query)
	if err != nil {
		t.Fatal(err)
	}
	ctx := db.newExecCtx(context.Background(), nil)
	root, _, p, err := db.buildPlan(ctx, stmt.(*SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.release)
	p.bind(root)
	plan, reason := compileChain(db.env, root, false)
	if plan == nil {
		t.Fatalf("chain did not compile: %s", reason)
	}
	if err := p.materializeAll(plan.stages[0].kern.join.left); err != nil {
		t.Fatal(err)
	}
	bound, reason := bindChain(plan)
	if bound == nil {
		t.Fatalf("chain did not bind: %s", reason)
	}
	return bound
}

// gateStageOver is gateStageQuery (no HAVING) with src as the state
// table, optionally under ORDER BY s.
func gateStageOver(src string, orderBy bool) string {
	q := strings.ReplaceAll(gateStageQuery(false), "t0", src)
	if orderBy {
		q += "\nORDER BY s"
	}
	return q
}

// stateKeys reads the state keys of from: a table, optionally with a
// WHERE clause.
func stateKeys(t *testing.T, db *DB, from string) []int64 {
	t.Helper()
	var keys []int64
	for _, row := range queryAll(t, db, "SELECT s FROM "+from) {
		keys = append(keys, row[0].I)
	}
	return keys
}

// TestDenseBoundFromKeys pins the dense key bound the kernel derives
// from the keys it is about to scan: equal to the min/max reference on
// every key set, present over every kind of store a stage reads
// (CTAS, DELETE and UPDATE rewrites, an interpreter-materialized CTE),
// and, where it makes a run dense, bit-identical to the interpreter.
func TestDenseBoundFromKeys(t *testing.T) {
	t.Run("reference", func(t *testing.T) {
		prog := &kernelProg{gOutFn: func(_, out int64) int64 { return out }}
		sets := map[string][]int64{
			"zero":     {0},
			"single":   {37},
			"negative": {3, 12, -1, 7},
		}
		for _, k := range []uint{1, 2, 7, 10, 21, 22, 40} {
			sets[fmt.Sprintf("2^%d-1", k)] = []int64{0, 1<<k - 1}
			sets[fmt.Sprintf("2^%d", k)] = []int64{1 << k, 3}
		}
		rng := rand.New(rand.NewSource(42))
		for n := range 8 {
			keys := make([]int64, 1+rng.Intn(64))
			limit := int64(1) << (1 + rng.Intn(24))
			for j := range keys {
				keys[j] = rng.Int63n(limit)
			}
			sets[fmt.Sprintf("random%d", n)] = keys
		}
		for name, keys := range sets {
			for _, gOut := range [][]int64{nil, {0, 1}, {0, 4, 16}, {1 << 22}} {
				want := refDenseBound(keys, gOut)
				if got := denseBound(keyOr(keys), prog, gOut); got != want {
					t.Errorf("%s, f(out) %v: denseBound = %d, want %d", name, gOut, got, want)
				}
			}
		}
	})

	// Every f(out) of the gate table h is 0 or 1.
	gOut := []int64{0, 1}
	binds := func(t *testing.T, db *DB, query, table string) {
		t.Helper()
		bound := bindBottom(t, db, query)
		if want := refDenseBound(stateKeys(t, db, table), gOut); bound.denseHi != want || !bound.dense() {
			t.Fatalf("over %s: denseHi = %d (dense %v), want %d", table, bound.denseHi, bound.dense(), want)
		}
	}
	t.Run("ctas", func(t *testing.T) {
		db := newOptDB(t, Config{})
		setupGateStage(t, db, 300)
		mustExec(t, db, "CREATE TABLE t1 AS "+gateStageQuery(false))
		binds(t, db, gateStageOver("t1", false), "t1")
	})
	t.Run("delete", func(t *testing.T) {
		db := newOptDB(t, Config{})
		setupGateStage(t, db, 300)
		mustExec(t, db, "DELETE FROM t0 WHERE s >= 40")
		binds(t, db, gateStageOver("t0", false), "t0")
	})
	t.Run("update", func(t *testing.T) {
		db := newOptDB(t, Config{})
		setupGateStage(t, db, 300)
		mustExec(t, db, "UPDATE t0 SET s = s + 700 WHERE s < 8")
		binds(t, db, gateStageOver("t0", false), "t0")
	})

	// The bottom stage reads a CTE that no kernel matches, so the
	// interpreter materializes it.
	const cte = "WITH c AS (SELECT s, r, i FROM t0 WHERE s <> 5)\n"
	for _, orderBy := range []bool{false, true} {
		t.Run(fmt.Sprintf("cte/order_by=%v", orderBy), func(t *testing.T) {
			query := cte + gateStageOver("c", orderBy)
			var digests [2]string
			for k, kernels := range []bool{false, true} {
				db := withKernels(newOptDB(t, Config{}), kernels)
				setupGateStage(t, db, 300)
				if kernels {
					keys := stateKeys(t, db, "t0 WHERE s <> 5")
					if bound := bindBottom(t, db, query); bound.denseHi != refDenseBound(keys, gOut) || !bound.dense() {
						t.Fatalf("over the CTE: denseHi = %d (dense %v), want %d", bound.denseHi, bound.dense(), refDenseBound(keys, gOut))
					}
				}
				before := KernelCounters()["chain_executions"]
				rows := queryAll(t, db, query)
				if ran := KernelCounters()["chain_executions"] - before; kernels != (ran > 0) {
					t.Fatalf("kernels %v: %d chain runs", kernels, ran)
				}
				if len(rows) != 300 {
					t.Fatalf("got %d rows, want 300", len(rows))
				}
				digests[k] = rowsBits(rows)
			}
			if digests[0] != digests[1] {
				t.Fatal("dense kernel run over a CTE is not bit-identical to the interpreter")
			}
		})
	}
}
