package sqlengine

import (
	"context"
	"strings"
	"testing"

	"qymera/internal/circuits"
	"qymera/internal/core"
)

// The final ORDER BY s of a translated circuit is skipped when the
// store under it proves, from its appended rows, that s is already
// ascending — which a dense top-level gate-stage kernel under that sort
// arranges by emitting in key order. These tests pin where the elision
// applies and where the sort must still run, with results bit-identical
// to the interpreted engine either way.

const sortElidedMark = "[elided: input already in key order]"

// openProgram runs a translated program's set-up statements on a fresh
// engine and returns it, ready for the final query.
func openProgram(t *testing.T, p cachedProgram, cfg Config, kernels bool) *DB {
	t.Helper()
	db := withKernels(newOptDB(t, cfg), kernels)
	for _, s := range p.stmts {
		mustExec(t, db, s)
	}
	return db
}

// analyzeSort runs q under EXPLAIN ANALYZE and reports whether the sort
// was elided.
func analyzeSort(t *testing.T, db *DB, q string) bool {
	t.Helper()
	plan, err := db.ExplainAnalyze(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "Sort ") {
		t.Fatalf("plan has no sort:\n%s", plan)
	}
	return strings.Contains(plan, sortElidedMark)
}

// TestSortElidedOverKeyOrderedKernel: QFT-10 with ORDER BY s under the
// kernel tier elides the sort — EXPLAIN ANALYZE marks it, plain EXPLAIN
// is unchanged — and the rows equal the interpreted engine's bit for
// bit, unbudgeted and under a budget that makes a buffered sort of the
// 1,024 result rows spill. The budget leaves the kernel room to run
// dense: far below it the kernel declines to the interpreter, whose
// sort runs. A 20,000-row gate stage elides its sort the same way.
func TestSortElidedOverKeyOrderedKernel(t *testing.T) {
	p := translateProgram(t, circuits.QFT(10), core.SingleQuery, true)
	const budget = 160 << 10
	for _, bounded := range []bool{false, true} {
		var digests [2]string
		for i, kernels := range []bool{false, true} {
			var cfg Config
			if bounded {
				cfg.MemoryBudget, cfg.SpillDir = budget, t.TempDir()
			}
			db := openProgram(t, p, cfg, kernels)
			spilled := db.Stats().SpilledRows
			digests[i] = rowsBits(queryAll(t, db, p.query))
			sortSpilled := db.Stats().SpilledRows > spilled
			elided := analyzeSort(t, db, p.query)
			if elided != kernels {
				t.Fatalf("bounded=%v kernels=%v: sort elided = %v", bounded, kernels, elided)
			}
			if bounded && !kernels && !sortSpilled {
				t.Fatalf("the budget is too loose to make the interpreted sort spill")
			}
			if bounded && kernels && sortSpilled {
				t.Fatalf("the kernel run spilled %d rows", db.Stats().SpilledRows-spilled)
			}
			plan, err := db.Explain(p.query)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(plan, sortElidedMark) {
				t.Fatalf("plain EXPLAIN marks the sort elided:\n%s", plan)
			}
		}
		if digests[0] != digests[1] {
			t.Fatalf("bounded=%v: kernel rows differ from the interpreted engine", bounded)
		}
	}
	// A 20,000-row gate stage spans three cancellation strides; its
	// dense run emits in key order all the same.
	q := gateStageQuery(false) + " ORDER BY s"
	var digests [2]string
	for i, kernels := range []bool{false, true} {
		db := withKernels(newOptDB(t, Config{}), kernels)
		setupGateStage(t, db, 20000)
		digests[i] = rowsBits(queryAll(t, db, q))
		if elided := analyzeSort(t, db, q); elided != kernels {
			t.Fatalf("20000 rows, kernels=%v: sort elided = %v", kernels, elided)
		}
	}
	if digests[0] != digests[1] {
		t.Fatal("20000 rows: kernel rows differ from the interpreted engine")
	}
}

// TestFinalResultSizedExactly: the final ORDER BY s of QFT-12 reads
// rows whose count the engine knows before it runs the query (knownRows
// through the sort down to the kernel's output store), so the result's
// typed vectors are allocated once at exactly its 4,096 rows and never
// regrow.
func TestFinalResultSizedExactly(t *testing.T) {
	p := translateProgram(t, circuits.QFT(12), core.SingleQuery, true)
	db := openProgram(t, p, Config{}, true)
	rs, err := db.Query(p.query)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if n := rs.store.Len(); n != 4096 {
		t.Fatalf("result rows = %d, want 4096", n)
	}
	if len(rs.store.cols) == 0 {
		t.Fatal("no typed column to check")
	}
	for i, c := range rs.store.cols {
		var capacity int
		switch c.kind {
		case colInt:
			capacity = cap(c.ints)
		case colFloat:
			capacity = cap(c.floats)
		default:
			t.Fatalf("column %s: kind %v, want int64 or float64", rs.Columns[i], c.kind)
		}
		if capacity != 4096 {
			t.Errorf("column %s: capacity %d, want exactly 4096", rs.Columns[i], capacity)
		}
	}
}

// TestSortStillRuns: every ORDER BY the kernel does not emit in key
// order keeps its sort, and the rows stay bit-identical to the
// interpreted engine.
func TestSortStillRuns(t *testing.T) {
	qft := translateProgram(t, circuits.QFT(8), core.SingleQuery, true)
	// GHZ-16's two live rows accumulate hashed. X on the top qubit
	// makes their first-seen order descend (32768, then 32767), so a
	// hashed run emitting in key order would show as an elided sort.
	ghz := translateProgram(t, circuits.GHZ(16).X(15), core.SingleQuery, true)
	for _, tc := range []struct {
		name  string
		setup func(*testing.T, *DB)
		prog  cachedProgram
		query string
	}{
		{name: "desc", prog: qft, query: strings.Replace(qft.query, "ORDER BY s", "ORDER BY s DESC", 1)},
		{name: "non-key column", prog: qft, query: strings.Replace(qft.query, "ORDER BY s", "ORDER BY r", 1)},
		{name: "hashed accumulator", prog: ghz, query: ghz.query},
		// A 20,000-row stage spans three morsels (the cancel-poll
		// stride); key order across them must not pass for DESC.
		{name: "morsel mode", setup: func(t *testing.T, db *DB) { setupGateStage(t, db, 20000) },
			query: gateStageQuery(false) + " ORDER BY s DESC"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var digests [2]string
			for i, kernels := range []bool{false, true} {
				var db *DB
				if tc.setup != nil {
					db = withKernels(newOptDB(t, Config{}), kernels)
					tc.setup(t, db)
				} else {
					db = openProgram(t, tc.prog, Config{}, kernels)
				}
				digests[i] = rowsBits(queryAll(t, db, tc.query))
				if analyzeSort(t, db, tc.query) {
					t.Fatalf("kernels=%v: sort elided", kernels)
				}
			}
			if digests[0] != digests[1] {
				t.Fatal("kernel rows differ from the interpreted engine")
			}
		})
	}
}

// TestSortElisionTrustsAppendedRows: the order bit is the store's own —
// a table appended in key order skips the sort, one appended out of
// order or holding a NULL key sorts, and every answer is sorted.
func TestSortElisionTrustsAppendedRows(t *testing.T) {
	for _, tc := range []struct {
		name, values string
		elided       bool
	}{
		{"ascending", "(1, 'a'), (2, 'b'), (2, 'c'), (5, 'd')", true},
		{"out of order", "(2, 'b'), (1, 'a'), (5, 'd'), (2, 'c')", false},
		{"null key", "(1, 'a'), (NULL, 'b'), (5, 'd')", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := newOptDB(t, Config{})
			mustExec(t, db, "CREATE TABLE t (k INTEGER, v TEXT)")
			mustExec(t, db, "INSERT INTO t VALUES "+tc.values)
			const q = "SELECT k, v FROM t ORDER BY k"
			if got := analyzeSort(t, db, q); got != tc.elided {
				t.Fatalf("sort elided = %v, want %v", got, tc.elided)
			}
			rows := queryAll(t, db, q)
			for i := 1; i < len(rows); i++ {
				if CompareTotal(rows[i-1][0], rows[i][0]) > 0 {
					t.Fatalf("rows out of order: %v", rows)
				}
			}
			if tc.elided && (rows[1][1].S != "b" || rows[2][1].S != "c") {
				t.Fatalf("tied keys reordered: %v", rows)
			}
		})
	}
}
