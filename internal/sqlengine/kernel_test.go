package sqlengine

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"qymera/internal/circuits"
	"qymera/internal/core"
	"qymera/internal/quantum"
)

// The kernel tier's contract is bitwise identity: for every
// configuration the fused gate-stage loop must produce exactly the
// amplitudes the interpreted batch executor produces — same float64
// bits, same row order. These tests drive both paths over the same
// data and compare digests built from the raw bit patterns.

// kernelStateRows renders n state rows with varied, sign-mixed
// amplitudes (a pure power-of-two pattern would hide rounding-order
// bugs because every sum is exact).
func kernelStateRows(n int) []string {
	rows := make([]string, 0, n)
	for k := 0; k < n; k++ {
		r := 1.0 / float64(k+3)
		if k%3 == 1 {
			r = -r
		}
		i := float64(k%7-3) * 0.1251
		rows = append(rows, fmt.Sprintf("(%d, %v, %v)", k, r, i))
	}
	return rows
}

// setupGateStage loads the standard gate-stage schema: state table t0
// with n rows and a 2x2 Hadamard-like gate table h.
func setupGateStage(t *testing.T, db *DB, n int) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE t0 (s INTEGER, r REAL, i REAL)")
	mustExec(t, db, "CREATE TABLE h (in_s INTEGER, out_s INTEGER, r REAL, i REAL)")
	mustExec(t, db, "INSERT INTO h VALUES (0,0,0.7071067811865476,0.1),(0,1,0.7071067811865476,0.0),(1,0,0.7071067811865476,-0.2),(1,1,-0.7071067811865476,0.0)")
	rows := kernelStateRows(n)
	for len(rows) > 0 {
		chunk := rows
		if len(chunk) > 512 {
			chunk = chunk[:512]
		}
		mustExec(t, db, "INSERT INTO t0 VALUES "+strings.Join(chunk, ","))
		rows = rows[len(chunk):]
	}
}

func gateStageQuery(having bool) string {
	q := `SELECT ((t0.s & ~1) | h.out_s) AS s,
       SUM((t0.r * h.r) - (t0.i * h.i)) AS r,
       SUM((t0.r * h.i) + (t0.i * h.r)) AS i
FROM t0 JOIN h ON h.in_s = (t0.s & 1)
GROUP BY ((t0.s & ~1) | h.out_s)`
	if having {
		q += "\nHAVING ((SUM((t0.r * h.r) - (t0.i * h.i)) * SUM((t0.r * h.r) - (t0.i * h.i))) + (SUM((t0.r * h.i) + (t0.i * h.r)) * SUM((t0.r * h.i) + (t0.i * h.r)))) > 0.0001"
	}
	return q
}

// rowsBits digests result rows down to their exact bit patterns, so
// two digests are equal iff the results are bitwise identical in the
// same order.
// withKernels sets db's kernel hook. With it off every plan runs on
// the batch interpreter, and chain fusion (which sits on the kernel
// tier) never engages: the bit-identity reference the kernel tests
// compare against. Open always turns kernels on; only tests turn them
// off.
func withKernels(db *DB, on bool) *DB {
	db.env.kernels = on
	return db
}

func rowsBits(rows []Row) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%d:%016x:%016x\n", r[0].I, math.Float64bits(r[1].F), math.Float64bits(r[2].F))
	}
	return b.String()
}

// TestKernelDifferentialMatrix is the bit-identity gate: kernel on vs
// off over a state within one cancellation stride and one spanning
// three (morselRows), and HAVING pruning on/off. Every cell must agree
// with its kernels-off twin bit for bit, including row order. The cell
// names keep the "columnar", "w=1" and "opt=on" labels: every cell
// runs the columnar store on one goroutine with the optimizer.
func TestKernelDifferentialMatrix(t *testing.T) {
	for _, n := range []int{300, 20000} {
		for _, having := range []bool{false, true} {
			name := fmt.Sprintf("n=%d/columnar/w=1/opt=on/having=%v", n, having)
			t.Run(name, func(t *testing.T) {
				var digests [2]string
				for i, kernels := range []bool{false, true} {
					db := withKernels(newOptDB(t, Config{}), kernels)
					setupGateStage(t, db, n)
					before := KernelCounters()["executions"]
					rows := queryAll(t, db, gateStageQuery(having))
					if want := 2 * ((n + 1) / 2); !having && len(rows) != want {
						t.Fatalf("got %d rows, want %d", len(rows), want)
					}
					ran := KernelCounters()["executions"] - before
					if kernels && ran == 0 {
						t.Fatal("kernel did not execute on the columnar fast path")
					}
					if !kernels && ran != 0 {
						t.Fatal("kernel executed with kernels off")
					}
					digests[i] = rowsBits(rows)
				}
				if digests[0] != digests[1] {
					t.Fatal("kernel output is not bit-identical to the interpreted engine")
				}
			})
		}
	}
}

// TestKernelWholeCircuitBitIdentical asserts the kernel tier's
// invariant over whole translated circuits: each program (the fused
// statement list the SQL backend runs, then its final query) yields
// bitwise-identical amplitudes with the kernel hook on and off, in
// both translation modes.
func TestKernelWholeCircuitBitIdentical(t *testing.T) {
	for _, wl := range []struct {
		name string
		c    *quantum.Circuit
		mode core.Mode
	}{
		{"ghz", circuits.GHZ(12), core.SingleQuery},
		{"qft", circuits.QFT(7), core.SingleQuery},
		// 2^15 nonzero amplitudes, and a dense 2^14-row QFT: states
		// spanning several cancellation strides (morselRows).
		{"parity", circuits.ParitySuperposition(15), core.SingleQuery},
		{"qft14", circuits.QFT(14), core.SingleQuery},
		{"qft-chain", circuits.QFT(6), core.MaterializedChain},
	} {
		t.Run(wl.name, func(t *testing.T) {
			p := translateProgram(t, wl.c, wl.mode, true)
			var ref string
			for _, kernels := range []bool{false, true} {
				got, _, err := p.run(Config{}, kernels)
				if err != nil {
					t.Fatalf("kernels=%v: %v", kernels, err)
				}
				if ref == "" {
					ref = got
				} else if got != ref {
					t.Fatal("amplitudes with kernels differ from the interpreter")
				}
			}
		})
	}
}

// TestKernelPreservesEmissionOrder runs without ORDER BY: the kernel
// must replay the interpreted engine's group emission order exactly,
// not just its values.
func TestKernelPreservesEmissionOrder(t *testing.T) {
	for _, n := range []int{1000, 20000} {
		var digests [2]string
		for i, kernels := range []bool{false, true} {
			db := withKernels(newOptDB(t, Config{}), kernels)
			setupGateStage(t, db, n)
			digests[i] = rowsBits(queryAll(t, db, gateStageQuery(false)))
		}
		if digests[0] != digests[1] {
			t.Fatalf("n=%d: emission order differs between kernel and interpreted paths", n)
		}
	}
}

// TestKernelExplainAnnotation: a matching plan is annotated in EXPLAIN
// at both the header and the fused core node.
func TestKernelExplainAnnotation(t *testing.T) {
	db := newOptDB(t, Config{})
	setupGateStage(t, db, 64)
	plan, err := db.Explain(gateStageQuery(true))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "kernel: "+kernelAnnotation) {
		t.Fatalf("header missing kernel line:\n%s", plan)
	}
	if !strings.Contains(plan, "[kernel="+kernelAnnotation+"]") {
		t.Fatalf("core node missing kernel annotation:\n%s", plan)
	}
}

// TestKernelCacheReuse: repeating a structurally identical query must
// hit the kernel cache instead of re-lowering, including across
// engine instances sharing one KernelCache.
func TestKernelCacheReuse(t *testing.T) {
	shared := NewKernelCache(8)
	ResetKernelCounters()
	for run := 0; run < 2; run++ {
		db := newOptDB(t, Config{KernelCache: shared})
		setupGateStage(t, db, 64)
		for i := 0; i < 3; i++ {
			queryAll(t, db, gateStageQuery(false))
		}
	}
	kc := KernelCounters()
	if kc["compiles"] != 1 {
		t.Fatalf("compiles = %d, want 1 (cache should absorb repeats)", kc["compiles"])
	}
	if kc["cache_hits"] != 5 {
		t.Fatalf("cache_hits = %d, want 5", kc["cache_hits"])
	}
	if shared.Len() != 1 {
		t.Fatalf("cache entries = %d, want 1", shared.Len())
	}
}

// TestKernelCacheEvictsLeastRecentlyUsed: overflowing the kernel cache
// drops only the program used longest ago, not the whole working set.
func TestKernelCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := NewKernelCache(2)
	a, b := &kernelProg{}, &kernelProg{}
	c.store("a", a)
	c.store("b", b)
	if p, ok := c.lookup([]byte("a")); !ok || p != a {
		t.Fatal("program a missing before overflow")
	}
	c.store("c", &kernelProg{})
	if _, ok := c.lookup([]byte("b")); ok {
		t.Fatal("the least recently used program b survived the overflow")
	}
	if p, ok := c.lookup([]byte("a")); !ok || p != a {
		t.Fatal("the recently used program a was evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d programs, capacity 2", c.Len())
	}
}

// explainKernelLine extracts the "kernel: ..." header line.
func explainKernelLine(t *testing.T, plan string) string {
	t.Helper()
	for _, ln := range strings.Split(plan, "\n") {
		if strings.HasPrefix(ln, "kernel: ") {
			return ln
		}
	}
	t.Fatalf("no kernel line in plan:\n%s", plan)
	return ""
}

// TestKernelFallbackReasons drives one query per matcher-decline
// reason and checks both the EXPLAIN header and that execution takes
// the interpreted path (producing correct results regardless).
func TestKernelFallbackReasons(t *testing.T) {
	sum := "SUM((t0.r * h.r) - (t0.i * h.i))"
	cases := []struct {
		name   string
		off    bool // run with the kernel hook off
		query  string
		reason string
	}{
		{
			name:   "disabled",
			off:    true,
			query:  gateStageQuery(false),
			reason: "kernel: off",
		},
		{
			name:   "no-gate-stage",
			query:  "SELECT s, r, i FROM t0",
			reason: "kernel: fallback (" + kfNoGateStage + ")",
		},
		{
			name: "project-shape",
			query: `SELECT ((t0.s & ~1) | h.out_s) AS s, ` + sum + ` AS r
FROM t0 JOIN h ON h.in_s = (t0.s & 1) GROUP BY ((t0.s & ~1) | h.out_s)`,
			reason: "kernel: fallback (" + kfProjectShape + ")",
		},
		{
			name: "agg-shape",
			query: `SELECT ((t0.s & ~1) | h.out_s) AS s, ` + sum + ` AS r, AVG(t0.i) AS i
FROM t0 JOIN h ON h.in_s = (t0.s & 1) GROUP BY ((t0.s & ~1) | h.out_s)`,
			reason: "kernel: fallback (" + kfAggShape + ")",
		},
		{
			name: "distinct-agg",
			query: `SELECT ((t0.s & ~1) | h.out_s) AS s, ` + sum + ` AS r, SUM(DISTINCT t0.i) AS i
FROM t0 JOIN h ON h.in_s = (t0.s & 1) GROUP BY ((t0.s & ~1) | h.out_s)`,
			reason: "kernel: fallback (" + kfDistinctAgg + ")",
		},
		{
			name: "having-shape",
			query: gateStageQuery(false) + `
HAVING ` + sum + ` > 0.5`,
			reason: "kernel: fallback (" + kfHavingShape + ")",
		},
		{
			name: "join-shape",
			query: `SELECT ((t0.s & ~1) | h.out_s) AS s,
       SUM((t0.r * h.r) - (t0.i * h.i)) AS r,
       SUM((t0.r * h.i) + (t0.i * h.r)) AS i
FROM t0 JOIN h ON h.in_s < (t0.s & 1)
GROUP BY ((t0.s & ~1) | h.out_s)`,
			reason: "kernel: fallback (" + kfJoinShape + ")",
		},
		{
			name: "scan-shape",
			query: `SELECT ((u.s & ~1) | h.out_s) AS s,
       SUM((u.r * h.r) - (u.i * h.i)) AS r,
       SUM((u.r * h.i) + (u.i * h.r)) AS i
FROM (SELECT s, r, i FROM t0 WHERE t0.r > 0.0) u JOIN h ON h.in_s = (u.s & 1)
GROUP BY ((u.s & ~1) | h.out_s)`,
			reason: "kernel: fallback (" + kfScanShape + ")",
		},
		{
			name: "unsupported-expr",
			query: `SELECT ((t0.s & ~1) | h.out_s) AS s,
       SUM((t0.r * h.r) - (t0.i * h.i)) AS r,
       SUM((t0.r * h.i) + (t0.i * h.r)) AS i
FROM t0 JOIN h ON h.in_s = (t0.s % 0)
GROUP BY ((t0.s & ~1) | h.out_s)`,
			reason: "kernel: fallback (" + kfUnsupported + ")",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := withKernels(newOptDB(t, Config{}), !tc.off)
			setupGateStage(t, db, 64)
			plan, err := db.Explain(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			if got := explainKernelLine(t, plan); got != tc.reason {
				t.Fatalf("kernel line = %q, want %q\n%s", got, tc.reason, plan)
			}
			if strings.Contains(plan, "[kernel=") {
				t.Fatalf("declined plan still annotated:\n%s", plan)
			}
			// The query must still run correctly on the fallback path,
			// without a kernel execution.
			before := KernelCounters()["executions"]
			queryAll(t, db, tc.query)
			if ran := KernelCounters()["executions"] - before; ran != 0 {
				t.Fatalf("declined plan executed a kernel (%d)", ran)
			}
		})
	}
}

// TestKernelFallbackColumnTypes: a NULL amplitude defeats the typed
// vector bind — a runtime (not structural) decline, so EXPLAIN still
// advertises the kernel but execution falls back and stays correct.
func TestKernelFallbackColumnTypes(t *testing.T) {
	var digests [2]string
	for i, kernels := range []bool{false, true} {
		db := withKernels(newOptDB(t, Config{}), kernels)
		setupGateStage(t, db, 64)
		mustExec(t, db, "INSERT INTO t0 VALUES (64, NULL, 0.5)")
		before := KernelCounters()["fallback_"+kfColumnTypes]
		rows := queryAll(t, db, gateStageQuery(false)+" ORDER BY s")
		if kernels {
			if got := KernelCounters()["fallback_"+kfColumnTypes] - before; got != 1 {
				t.Fatalf("column-types fallback counter = %d, want 1", got)
			}
		}
		digests[i] = rowsBits(rows)
	}
	if digests[0] != digests[1] {
		t.Fatal("fallback path output differs from interpreted engine")
	}
}

// budgetedGateStageDB opens an engine whose budget holds the
// setupGateStage tables plus slack bytes (measured on an unbounded
// probe engine first), and loads the tables into it.
func budgetedGateStageDB(t *testing.T, cfg Config, n int, slack int64) (*DB, *MemBudget) {
	t.Helper()
	probe := NewMemBudget(0)
	pcfg := cfg
	pcfg.Budget = probe
	setupGateStage(t, newOptDB(t, pcfg), n)
	budget := NewMemBudget(probe.Used() + slack)
	cfg.Budget, cfg.SpillDir = budget, t.TempDir()
	db := newOptDB(t, cfg)
	setupGateStage(t, db, n)
	return db, budget
}

// TestKernelFallbackBudget: under a bounded budget the kernel reserves
// its working set at run time. A budget too small for the accumulator
// is a run-time (not structural) decline — EXPLAIN still advertises the
// kernel, EXPLAIN ANALYZE reports the decline, execution counts
// fallback_budget-limited and stays bit-identical to the interpreter.
// A budget with room runs the kernel and gives every byte back.
func TestKernelFallbackBudget(t *testing.T) {
	const n = 64
	q := gateStageQuery(false) + " ORDER BY s"
	for _, tc := range []struct {
		name  string
		slack int64
		runs  bool
	}{
		{"refused", 1 << 10, false},
		{"reserved", 64 << 10, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var digests [2]string
			for i, kernels := range []bool{false, true} {
				db, budget := budgetedGateStageDB(t, Config{}, n, tc.slack)
				withKernels(db, kernels)
				setup := budget.Used()
				before := db.KernelCounters()
				digests[i] = rowsBits(queryAll(t, db, q))
				kc := db.KernelCounters()
				if used := budget.Used(); used != setup {
					t.Fatalf("budget holds %d bytes after the query, %d before", used, setup)
				}
				if !kernels {
					continue
				}
				declined := kc["fallback_"+kfBudgetLimited] - before["fallback_"+kfBudgetLimited]
				ran := kc["executions"] - before["executions"]
				if tc.runs && (ran != 1 || declined != 0) || !tc.runs && (ran != 0 || declined != 1) {
					t.Fatalf("executions %d, budget-limited fallbacks %d, want run=%v (counters: %v)", ran, declined, tc.runs, kc)
				}
				plan, err := db.Explain(q)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := explainKernelLine(t, plan), "kernel: "+kernelAnnotation; got != want {
					t.Fatalf("EXPLAIN kernel line = %q, want %q", got, want)
				}
				plan, err = db.ExplainAnalyze(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				want := "kernel: gate-stage (analyzed)"
				if !tc.runs {
					want = "kernel: fallback (" + kfBudgetLimited + ", at run time)"
				}
				if got := explainKernelLine(t, plan); got != want {
					t.Fatalf("EXPLAIN ANALYZE kernel line = %q, want %q\n%s", got, want, plan)
				}
			}
			if digests[0] != digests[1] {
				t.Fatal("budgeted kernel run differs from the interpreted engine")
			}
		})
	}
}

// TestKernelExplainAnalyze: EXPLAIN ANALYZE no longer declines the
// kernel — the matcher walks through the instrumentation wrappers, the
// fused loop runs, and the header reports the kernel's own stats
// (rows in/out, wall time) instead of silently falling back.
func TestKernelExplainAnalyze(t *testing.T) {
	db := newOptDB(t, Config{})
	setupGateStage(t, db, 64)
	before := KernelCounters()["executions"]
	plan, err := db.ExplainAnalyze(context.Background(), gateStageQuery(false))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := explainKernelLine(t, plan), "kernel: gate-stage (analyzed)"; got != want {
		t.Fatalf("kernel line = %q, want %q\n%s", got, want, plan)
	}
	if ran := KernelCounters()["executions"] - before; ran != 1 {
		t.Fatalf("EXPLAIN ANALYZE ran %d kernel executions, want 1", ran)
	}
	if !strings.Contains(plan, "kernel actual: rows_in=64 ") {
		t.Fatalf("missing kernel actual stats line:\n%s", plan)
	}
	if !strings.Contains(plan, "[kernel output: "+kernelAnnotation+"]") {
		t.Fatalf("kernel output scan not marked in plan:\n%s", plan)
	}
}

// TestKernelCTASCollectsStats: the kernel's output store feeds the
// same statistics collector as the interpreted path, so CTAS over a
// gate stage yields fresh stats without ANALYZE.
func TestKernelCTASCollectsStats(t *testing.T) {
	db := newOptDB(t, Config{})
	setupGateStage(t, db, 64)
	before := KernelCounters()["executions"]
	mustExec(t, db, "CREATE TABLE t1 AS "+gateStageQuery(false))
	if ran := KernelCounters()["executions"] - before; ran != 1 {
		t.Fatalf("CTAS did not run the kernel (%d executions)", ran)
	}
	ts := db.lookupTable("t1").store.stats
	if ts == nil || ts.rows != 64 {
		t.Fatalf("stats after kernel CTAS: %+v", ts)
	}
	if c := ts.col(0); !c.intSeen || c.intMin != 0 || c.intMax != 63 {
		t.Fatalf("kernel CTAS stats min/max = [%d, %d]", c.intMin, c.intMax)
	}
}
