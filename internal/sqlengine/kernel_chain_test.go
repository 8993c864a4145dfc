package sqlengine

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"qymera/internal/circuits"
	"qymera/internal/core"
	"qymera/internal/obs"
)

// Whole-circuit chain fusion tests. The contract is the kernel tier's,
// extended across stages: a fused K-stage chain must produce exactly
// the store stage-at-a-time execution produces by materializing every
// intermediate — same float64 bits, same row order — while provably
// never materializing the interior stages. The stage-at-a-time
// reference is the unfused statement list: one CREATE TABLE AS per
// stage (stageAtATime).

// chainStageBody renders one translated gate-stage SELECT reading
// state from src (a table or an earlier CTE).
func chainStageBody(src string, having bool) string {
	q := fmt.Sprintf(`SELECT ((%[1]s.s & ~1) | h.out_s) AS s,
       SUM((%[1]s.r * h.r) - (%[1]s.i * h.i)) AS r,
       SUM((%[1]s.r * h.i) + (%[1]s.i * h.r)) AS i
FROM %[1]s JOIN h ON h.in_s = (%[1]s.s & 1)
GROUP BY ((%[1]s.s & ~1) | h.out_s)`, src)
	if having {
		q += fmt.Sprintf("\nHAVING ((SUM((%[1]s.r * h.r) - (%[1]s.i * h.i)) * SUM((%[1]s.r * h.r) - (%[1]s.i * h.i))) + (SUM((%[1]s.r * h.i) + (%[1]s.i * h.r)) * SUM((%[1]s.r * h.i) + (%[1]s.i * h.r)))) > 0.0001", src)
	}
	return q
}

// chainQuery builds a K-stage chained gate query as a single WITH
// statement: c1 reads t0, each ck reads c(k-1), and the main query
// reads the last stage — the shape core.Translation.FusedStatements
// emits for a run of consecutive gate stages.
func chainQuery(stages int, having bool) string {
	var b strings.Builder
	b.WriteString("WITH ")
	src := "t0"
	for k := 1; k <= stages; k++ {
		if k > 1 {
			b.WriteString(",\n")
		}
		fmt.Fprintf(&b, "c%d AS (\n%s\n)", k, chainStageBody(src, having))
		src = fmt.Sprintf("c%d", k)
	}
	fmt.Fprintf(&b, "\nSELECT s, r, i FROM %s", src)
	return b.String()
}

// stageAtATime runs chainQuery(stages, having) as the unfused
// statement list does: one CREATE TABLE AS per stage, so every
// intermediate is materialized and no statement holds a chain to fuse.
// It returns the query reading the last stage's table.
func stageAtATime(t *testing.T, db *DB, stages int, having bool) string {
	t.Helper()
	src := "t0"
	for k := 1; k <= stages; k++ {
		dst := fmt.Sprintf("c%d", k)
		mustExec(t, db, "CREATE TABLE "+dst+" AS "+chainStageBody(src, having))
		src = dst
	}
	return "SELECT s, r, i FROM " + src
}

// TestChainFusionEngages is the smoke gate: the fused path must
// actually run (chain counters move) and agree bit for bit with the
// stage-at-a-time engine, in both aggregation regimes.
//
// Counter accounting: the optimizer inlines the last CTE into the
// trivial final SELECT (a non-sensitive single-use reference), whose
// core tops the chain: one kernel run covers all K stages and elides
// the K-1 tables below the top.
func TestChainFusionEngages(t *testing.T) {
	const stages = 4
	for _, n := range []int{300, 20000} { // within one cancellation stride, and three
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			ref := newOptDB(t, Config{})
			setupGateStage(t, ref, n)
			want := rowsBits(queryAll(t, ref, stageAtATime(t, ref, stages, false)))

			db := newOptDB(t, Config{})
			setupGateStage(t, db, n)
			rows := queryAll(t, db, chainQuery(stages, false))
			if len(rows) == 0 {
				t.Fatal("chain produced no rows")
			}
			kc := db.KernelCounters()
			if kc["chain_executions"] != 1 {
				t.Fatalf("chain_executions = %d, want 1 (counters: %v)", kc["chain_executions"], kc)
			}
			if kc["chain_stages"] != stages {
				t.Fatalf("chain_stages = %d, want %d", kc["chain_stages"], stages)
			}
			if kc["chain_elided"] != stages-1 {
				t.Fatalf("chain_elided = %d, want %d", kc["chain_elided"], stages-1)
			}
			if kc["executions"] != stages {
				t.Fatalf("executions = %d, want %d", kc["executions"], stages)
			}
			if rowsBits(rows) != want {
				t.Fatal("fused chain is not bit-identical to stage-at-a-time execution")
			}
		})
	}
}

// TestFinalStageJoinsChain: a translated circuit's final stage runs
// inside the chain, so one kernel run covers every stage — in
// single-query mode, where the final SELECT's core tops the chain, and
// as a materialized-chain CTAS, whose root tops it — and the amplitudes
// are bit-identical to the stage statements run one CTAS at a time on
// the interpreter.
func TestFinalStageJoinsChain(t *testing.T) {
	c := circuits.QFT(12)
	ref := translateProgram(t, c, core.MaterializedChain, false)
	want, _, err := ref.run(Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []core.Mode{core.SingleQuery, core.MaterializedChain} {
		t.Run(mode.String(), func(t *testing.T) {
			tr, err := core.Translate(c, nil, core.Options{Mode: mode, PruneEps: 1e-12})
			if err != nil {
				t.Fatal(err)
			}
			db := newOptDB(t, Config{})
			for _, s := range tr.FusedStatements() {
				mustExec(t, db, s)
			}
			rows := queryAll(t, db, tr.Query)
			kc := db.KernelCounters()
			n := int64(tr.StageCount)
			if kc["chain_executions"] != 1 || kc["chain_stages"] != n || kc["executions"] != n || kc["chain_elided"] != n-1 {
				t.Fatalf("want one kernel run over all %d stages (counters: %v)", n, kc)
			}
			if rowsBits(rows) != want {
				t.Fatal("chain is not bit-identical to one CTAS per stage")
			}
		})
	}
}

// TestChainFusionDifferentialMatrix is the S3 bit-identity gate: the
// fused chain against stage-at-a-time execution, crossed with state
// size and HAVING pruning, run from a context with and without a
// sampled trace span. Every cell must be bitwise identical to its
// stage-at-a-time twin, including row order. The cell names keep the
// "columnar", "w=1" and "enc=on" labels: every cell runs the columnar
// store, plain vectors only, on one goroutine.
func TestChainFusionDifferentialMatrix(t *testing.T) {
	const stages = 3
	for _, n := range []int{300, 20000} {
		for _, having := range []bool{false, true} {
			name := fmt.Sprintf("n=%d/columnar/w=1/enc=on/having=%v", n, having)
			t.Run(name, func(t *testing.T) {
				ref := newOptDB(t, Config{})
				setupGateStage(t, ref, n)
				want := rowsBits(queryAll(t, ref, stageAtATime(t, ref, stages, having)))
				for _, traced := range []bool{false, true} {
					db := newOptDB(t, Config{})
					setupGateStage(t, db, n)
					ctx := context.Background()
					tr := obs.NewTrace("chain", obs.SampleDefault)
					if traced {
						ctx = obs.WithSpan(ctx, tr.Root())
					}
					rs, err := db.QueryContext(ctx, chainQuery(stages, having))
					if err != nil {
						t.Fatal(err)
					}
					rows, err := rs.All()
					rs.Close()
					if err != nil {
						t.Fatal(err)
					}
					if kc := db.KernelCounters(); kc["chain_executions"] != 1 {
						t.Fatalf("traced=%v: chain fusion did not engage (counters: %v)", traced, kc)
					}
					if traced != (len(tr.Snapshot().Children) > 0) {
						t.Fatalf("traced=%v: trace shape %s", traced, tr.Snapshot().Shape())
					}
					if rowsBits(rows) != want {
						t.Fatalf("traced=%v: fused chain is not bit-identical to stage-at-a-time execution", traced)
					}
				}
			})
		}
	}
}

// TestChainFusionBudgetDecline: under a bounded budget the chain
// reserves its buffers and accumulator stage by stage. A budget that
// cannot hold a later stage's working set refuses it mid-chain: the
// chain releases everything, counts budget-limited, and the statement
// falls back to shorter chains — still through kernels where their
// smaller working sets fit (a shorter chain below the refused stage,
// chains of one) — bit-identical to stage-at-a-time execution under
// the same budget. A budget with room runs the whole chain,
// bit-identical to the unbounded engine.
func TestChainFusionBudgetDecline(t *testing.T) {
	const stages, n = 4, 300
	// A refused stage may run on the spilling interpreter, which emits
	// groups in another order. Every group of this gate sums exactly two
	// terms onto 0.0, so only the row order can change: ORDER BY pins it.
	q := chainQuery(stages, false) + " ORDER BY s"
	unbounded := newOptDB(t, Config{})
	setupGateStage(t, unbounded, n)
	want := rowsBits(queryAll(t, unbounded, q))
	for _, tc := range []struct {
		name  string
		slack int64
		fused bool
	}{
		{"refused", 32 << 10, false},
		{"reserved", 256 << 10, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, _ := budgetedGateStageDB(t, Config{}, n, tc.slack)
			unfused := rowsBits(queryAll(t, ref, stageAtATime(t, ref, stages, false)+" ORDER BY s"))

			db, budget := budgetedGateStageDB(t, Config{}, n, tc.slack)
			setup := budget.Used()
			got := rowsBits(queryAll(t, db, q))
			if used := budget.Used(); used != setup {
				t.Fatalf("budget holds %d bytes after the query, %d before", used, setup)
			}
			kc := db.KernelCounters()
			if tc.fused {
				if kc["chain_executions"] != 1 || kc["chain_stages"] != stages || kc["fallback_"+kfBudgetLimited] != 0 {
					t.Fatalf("chain did not fuse within the budget (counters: %v)", kc)
				}
			} else {
				if kc["fallback_"+kfBudgetLimited] == 0 || kc["chain_stages"] >= stages {
					t.Fatalf("want the full chain refused and counted (counters: %v)", kc)
				}
				if kc["executions"] == 0 {
					t.Fatalf("stage-at-a-time execution ran no kernel (counters: %v)", kc)
				}
			}
			if got != unfused {
				t.Fatal("budgeted chain is not bit-identical to stage-at-a-time execution under the same budget")
			}
			if tc.fused && got != want {
				t.Fatal("chain fused under a budget is not bit-identical to the unbounded engine")
			}
		})
	}
}

// TestChainFusionElidesIntermediates proves the interior stages never
// touch storage: the budget high-water mark of a fused deep chain stays
// far below the stage-at-a-time run, which holds every intermediate
// stage store.
func TestChainFusionElidesIntermediates(t *testing.T) {
	const stages, n = 6, 20000
	peak := func(fused bool) int64 {
		budget := NewMemBudget(0) // unlimited, but still tracks the high-water mark
		db := newOptDB(t, Config{Budget: budget})
		setupGateStage(t, db, n)
		base := budget.Peak() // t0 + gate table
		if !fused {
			mustExec(t, db, "CREATE TABLE final AS "+stageAtATime(t, db, stages, false))
			return budget.Peak() - base
		}
		mustExec(t, db, "CREATE TABLE final AS "+chainQuery(stages, false))
		if kc := db.KernelCounters(); kc["chain_elided"] != stages-1 {
			t.Fatalf("chain_elided = %d, want %d", kc["chain_elided"], stages-1)
		}
		return budget.Peak() - base
	}
	fused, unfused := peak(true), peak(false)
	if fused >= unfused {
		t.Fatalf("fused peak %d >= stage-at-a-time peak %d: intermediates were materialized", fused, unfused)
	}
	// Six stages hold five intermediate stores; fused holds only the
	// chain output. The gap must be structural, not noise.
	if fused*2 >= unfused {
		t.Fatalf("fused peak %d not structurally below stage-at-a-time peak %d", fused, unfused)
	}
}

// TestChainFusionSharedCTEUnfused: a WITH list where only a suffix
// links into a chain (the first CTE is referenced twice) must fuse what
// it can — or decline entirely — and stay bit-identical to
// stage-at-a-time execution either way.
func TestChainFusionSharedCTEUnfused(t *testing.T) {
	const n = 1000
	const join = " c2.s AS s, c2.r AS r, c2.i AS i FROM c2 JOIN c1 ON c1.s = c2.s"
	q := `WITH c1 AS (
` + chainStageBody("t0", false) + `
), c2 AS (
` + chainStageBody("c1", false) + `
)
SELECT` + join
	ref := newOptDB(t, Config{})
	setupGateStage(t, ref, n)
	stageAtATime(t, ref, 2, false)
	db := newOptDB(t, Config{})
	setupGateStage(t, db, n)
	if rowsBits(queryAll(t, db, q)) != rowsBits(queryAll(t, ref, "SELECT"+join)) {
		t.Fatal("shared-CTE plan differs from stage-at-a-time execution")
	}
}

// TestChainStopsAtWrappedCTE: a CTE whose subplan wraps its gate-stage
// core (here in ORDER BY … LIMIT) cannot feed the stage above it in
// memory — the chain would drop the wrapper — so the chain stops above
// it, and the result matches the interpreter's bit for bit.
func TestChainStopsAtWrappedCTE(t *testing.T) {
	q := "WITH c1 AS (\n" + chainStageBody("t0", false) + "\nORDER BY s LIMIT 5\n), c2 AS (\n" +
		chainStageBody("c1", false) + "\n), c3 AS (\n" + chainStageBody("c2", false) + "\n)\nSELECT s, r, i FROM c3 ORDER BY s"
	var digests [2]string
	for i, kernels := range []bool{false, true} {
		db := withKernels(newOptDB(t, Config{}), kernels)
		setupGateStage(t, db, 300)
		digests[i] = rowsBits(queryAll(t, db, q))
		if kc := db.KernelCounters(); kernels && kc["chain_stages"] != 3 {
			t.Fatalf("want c2 and c3 chained and c1 run alone (counters: %v)", kc)
		}
	}
	if digests[0] != digests[1] {
		t.Fatal("chain over a wrapped CTE differs from the interpreter")
	}
}

// TestChainExplainAnnotation: EXPLAIN previews the chain the kernel
// tier would run — one annotation, on the header and on the top core —
// and EXPLAIN ANALYZE reports the run's actual stage and row counts.
func TestChainExplainAnnotation(t *testing.T) {
	db := newOptDB(t, Config{})
	setupGateStage(t, db, 1000)
	q := chainQuery(4, false)

	plan, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "kernel: "+chainAnnotation(4)+"\n") || strings.Count(plan, "[kernel="+chainAnnotation(4)+"]") != 1 {
		t.Fatalf("EXPLAIN missing chain annotation:\n%s", plan)
	}

	rows := queryAll(t, db, "EXPLAIN ANALYZE "+q)
	var text strings.Builder
	for _, r := range rows {
		text.WriteString(r[0].String())
		text.WriteString("\n")
	}
	if !strings.Contains(text.String(), "kernel: "+chainAnnotation(4)+" (analyzed)\nkernel actual: "+chainAnnotation(4)) {
		t.Fatalf("EXPLAIN ANALYZE missing chain actuals:\n%s", text.String())
	}

	// A lone stage is a chain of one.
	plan, err = db.Explain(gateStageQuery(false))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "kernel: "+chainAnnotation(1)+"\n") {
		t.Fatalf("EXPLAIN of a one-stage query is not a chain of one:\n%s", plan)
	}
}

// TestOutputKernelBitIdentity drives the three translated output-layer
// query shapes (norm, qubit probability, marginal distribution) with
// kernels on and off: results must match bit for bit, and no kernel
// takes them — the interpreter runs them under both settings, from the
// empty table to one spanning three cancellation strides.
func TestOutputKernelBitIdentity(t *testing.T) {
	queries := []struct {
		name string
		sql  string
	}{
		{"norm", "SELECT SUM((t0.r * t0.r) + (t0.i * t0.i)) AS norm2 FROM t0"},
		{"qubitprob", "SELECT COALESCE(SUM((t0.r * t0.r) + (t0.i * t0.i)), 0.0) AS p FROM t0 WHERE ((t0.s >> 2) & 1) = 1"},
		{"qubitprob_bit0", "SELECT COALESCE(SUM((t0.r * t0.r) + (t0.i * t0.i)), 0.0) AS p FROM t0 WHERE (t0.s & 1) = 1"},
		{"marginal", "SELECT ((((t0.s >> 1) & 1) << 1) | ((t0.s >> 3) & 1)) AS m, SUM((t0.r * t0.r) + (t0.i * t0.i)) AS p FROM t0 GROUP BY ((((t0.s >> 1) & 1) << 1) | ((t0.s >> 3) & 1)) ORDER BY m"},
		{"marginal_noorder", "SELECT (t0.s & 3) AS m, SUM((t0.r * t0.r) + (t0.i * t0.i)) AS p FROM t0 GROUP BY (t0.s & 3)"},
	}
	for _, n := range []int{0, 300, 20000} { // empty (COALESCE default), small, large
		for _, q := range queries {
			t.Run(fmt.Sprintf("n=%d/%s", n, q.name), func(t *testing.T) {
				var digests [2]string
				for i, kernels := range []bool{false, true} {
					db := withKernels(newOptDB(t, Config{}), kernels)
					setupGateStage(t, db, n)
					rows := queryAll(t, db, q.sql)
					var b strings.Builder
					for _, r := range rows {
						for _, v := range r {
							if v.T == TypeFloat {
								fmt.Fprintf(&b, "f%016x|", math.Float64bits(v.F))
							} else {
								fmt.Fprintf(&b, "%v:%s|", v.T, v.String())
							}
						}
						b.WriteString("\n")
					}
					digests[i] = b.String()
					if kc := db.KernelCounters(); kc["executions"] != 0 {
						t.Fatalf("kernels=%v: a kernel ran an output query (counters: %v)", kernels, kc)
					}
				}
				if digests[0] != digests[1] {
					t.Fatalf("kernels on differs from off:\non:\n%s\noff:\n%s", digests[1], digests[0])
				}
			})
		}
	}
}

// TestOutputKernelExplainAnnotation: EXPLAIN reports that the
// interpreter runs the output-layer queries — a kernel fallback with
// kernels on, "kernel: off" with kernels off.
func TestOutputKernelExplainAnnotation(t *testing.T) {
	db := newOptDB(t, Config{})
	setupGateStage(t, db, 1000)

	cases := []struct {
		name string
		sql  string
	}{
		{"norm", "SELECT SUM((t0.r * t0.r) + (t0.i * t0.i)) AS norm2 FROM t0"},
		{"qubitprob", "SELECT COALESCE(SUM((t0.r * t0.r) + (t0.i * t0.i)), 0.0) AS p FROM t0 WHERE ((t0.s >> 2) & 1) = 1"},
		{"marginal", "SELECT (t0.s & 3) AS m, SUM((t0.r * t0.r) + (t0.i * t0.i)) AS p FROM t0 GROUP BY (t0.s & 3) ORDER BY m"},
		{"avg_declines", "SELECT AVG(t0.r) FROM t0"},
		{"expr_declines", "SELECT SUM(t0.r) + 1.0 FROM t0"},
	}
	const want = "kernel: fallback ("
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plan, err := db.Explain(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(plan, want) {
				t.Fatalf("EXPLAIN missing %q:\n%s", want, plan)
			}
		})
	}

	off := withKernels(newOptDB(t, Config{}), false)
	setupGateStage(t, off, 1000)
	plan, err := off.Explain(cases[0].sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "kernel: off") {
		t.Fatalf("EXPLAIN with kernels off does not say so:\n%s", plan)
	}
}

// TestCounterScopePerDB is the S1 regression: two engine instances
// must keep independent counter scopes — kernel work on one is
// invisible in the other's per-DB counters while the process-wide
// aggregate still sees everything.
func TestCounterScopePerDB(t *testing.T) {
	active := newOptDB(t, Config{})
	idle := newOptDB(t, Config{})
	setupGateStage(t, active, 1000)

	globalBefore := KernelCounters()["executions"]
	queryAll(t, active, gateStageQuery(false))

	if got := active.KernelCounters()["executions"]; got == 0 {
		t.Fatal("active DB recorded no kernel executions")
	}
	for k, v := range idle.KernelCounters() {
		if v != 0 {
			t.Fatalf("idle DB counter %s = %d, want 0 (cross-DB contamination)", k, v)
		}
	}
	if sc := active.StorageCounters(); len(sc) != 0 {
		t.Fatalf("deprecated StorageCounters = %v, want an empty map", sc)
	}
	if got := KernelCounters()["executions"] - globalBefore; got == 0 {
		t.Fatal("process-wide aggregate missed the execution")
	}
}
