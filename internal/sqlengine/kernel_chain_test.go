package sqlengine

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// Whole-circuit chain fusion tests. The contract is the kernel tier's,
// extended across stages: a fused K-stage chain must produce exactly
// the store the interpreted (or single-stage-kernel) engine produces
// by materializing every intermediate — same float64 bits, same row
// order — while provably never materializing the interior stages.

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

// TestChainFusionEngages is the smoke gate: the fused path must
// actually run (chain counters move) and agree bit for bit with the
// stage-at-a-time engine, in both aggregation regimes.
//
// Counter accounting: the optimizer inlines the last CTE into the
// trivial final SELECT (a non-sensitive single-use reference), so a
// K-stage chain normalizes to K-1 fused CTE stages plus one top-level
// single-stage kernel over the chain's output — executions counts all
// K, the chain counters cover K-1.
func TestChainFusionEngages(t *testing.T) {
	const stages = 4
	for _, n := range []int{300, 20000} { // serial vs morsel-parallel interior stages
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			var digests [2]string
			for i, fusion := range []string{"off", "on"} {
				db := newOptDB(t, Config{Parallelism: 4, Fusion: fusion})
				setupGateStage(t, db, n)
				rows := queryAll(t, db, chainQuery(stages, false))
				if len(rows) == 0 {
					t.Fatal("chain produced no rows")
				}
				digests[i] = rowsBits(rows)
				kc := db.KernelCounters()
				if fusion == "on" {
					if kc["chain_executions"] != 1 {
						t.Fatalf("chain_executions = %d, want 1 (counters: %v)", kc["chain_executions"], kc)
					}
					if kc["chain_stages"] != stages-1 {
						t.Fatalf("chain_stages = %d, want %d", kc["chain_stages"], stages-1)
					}
					if kc["chain_elided"] != stages-2 {
						t.Fatalf("chain_elided = %d, want %d", kc["chain_elided"], stages-2)
					}
					if kc["executions"] != stages {
						t.Fatalf("executions = %d, want %d (chain + top-level kernel)", kc["executions"], stages)
					}
				} else if kc["chain_executions"] != 0 {
					t.Fatalf("fusion off but chain_executions = %d", kc["chain_executions"])
				}
			}
			if digests[0] != digests[1] {
				t.Fatal("fused chain is not bit-identical to stage-at-a-time execution")
			}
		})
	}
}

// TestChainFusionDifferentialMatrix is the S3 bit-identity gate:
// fusion on/off crossed with worker count, storage layout, compressed
// encodings, sampled tracing, and HAVING pruning. Every cell must be
// bitwise identical to its fusion-off twin, including row order. The
// row layout and tracing cells also verify a clean decline (fusion
// requires the columnar kernel tier).
func TestChainFusionDifferentialMatrix(t *testing.T) {
	const stages = 3
	for _, n := range []int{300, 20000} {
		for _, layout := range []string{"columnar", "row"} {
			for _, workers := range []int{1, 4} {
				for _, enc := range []string{"on", "off"} {
					for _, having := range []bool{false, true} {
						name := fmt.Sprintf("n=%d/%s/w=%d/enc=%s/having=%v", n, layout, workers, enc, having)
						t.Run(name, func(t *testing.T) {
							var digests [2]string
							for i, fusion := range []string{"off", "on"} {
								db := newOptDB(t, Config{
									Layout:      layout,
									Parallelism: workers,
									Encodings:   enc,
									Tracing:     "on",
									Fusion:      fusion,
								})
								setupGateStage(t, db, n)
								rows := queryAll(t, db, chainQuery(stages, having))
								digests[i] = rowsBits(rows)
								kc := db.KernelCounters()
								ran := kc["chain_executions"]
								if fusion == "on" && layout == "columnar" && ran != 1 {
									t.Fatalf("chain fusion did not engage on the columnar path (counters: %v)", kc)
								}
								if (fusion == "off" || layout == "row") && ran != 0 {
									t.Fatalf("chain fusion engaged unexpectedly (fusion=%s layout=%s)", fusion, layout)
								}
							}
							if digests[0] != digests[1] {
								t.Fatal("fused chain is not bit-identical to stage-at-a-time execution")
							}
						})
					}
				}
			}
		}
	}
}

// TestChainFusionBudgetDecline: under a bounded budget the fused chain
// reserves its buffers and accumulator stage by stage. A budget that
// cannot hold the last stage's working set refuses it mid-chain: the
// chain releases everything, counts chain-budget-limited once, and the
// statement runs stage-at-a-time — still through kernels where their
// smaller working sets fit (a shorter chain below the refused stage,
// single stages) — bit-identical to fusion off under the same budget. A budget with room runs the whole chain,
// bit-identical to the unbounded engine.
func TestChainFusionBudgetDecline(t *testing.T) {
	const stages, n = 4, 300
	// A refused stage may run on the spilling interpreter, which emits
	// groups in another order. Every group of this gate sums exactly two
	// terms onto 0.0, so only the row order can change: ORDER BY pins it.
	q := chainQuery(stages, false) + " ORDER BY s"
	unbounded := newOptDB(t, Config{Parallelism: 4})
	setupGateStage(t, unbounded, n)
	want := rowsBits(queryAll(t, unbounded, q))
	for _, tc := range []struct {
		name  string
		slack int64
		fused bool
	}{
		{"refused", 45 << 10, false},
		{"reserved", 256 << 10, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var digests [2]string
			for i, fusion := range []string{"off", "on"} {
				db, budget := budgetedGateStageDB(t, Config{Parallelism: 4, Fusion: fusion}, n, tc.slack)
				setup := budget.Used()
				digests[i] = rowsBits(queryAll(t, db, q))
				if used := budget.Used(); used != setup {
					t.Fatalf("budget holds %d bytes after the query, %d before", used, setup)
				}
				kc := db.KernelCounters()
				if fusion == "off" {
					if kc["chain_executions"] != 0 || kc["fallback_"+kfChainBudgetLimited] != 0 {
						t.Fatalf("chain counters moved with fusion off: %v", kc)
					}
					continue
				}
				if tc.fused {
					if kc["chain_executions"] != 1 || kc["fallback_"+kfChainBudgetLimited] != 0 {
						t.Fatalf("chain did not fuse within the budget (counters: %v)", kc)
					}
					continue
				}
				if kc["fallback_"+kfChainBudgetLimited] != 1 || kc["chain_stages"] >= stages-1 {
					t.Fatalf("want the full chain refused, counted once (counters: %v)", kc)
				}
				if kc["executions"] == 0 {
					t.Fatalf("stage-at-a-time execution ran no kernel (counters: %v)", kc)
				}
			}
			if digests[0] != digests[1] {
				t.Fatal("budgeted chain is not bit-identical to fusion off under the same budget")
			}
			if tc.fused && digests[1] != want {
				t.Fatal("chain fused under a budget is not bit-identical to the unbounded engine")
			}
		})
	}
}

// TestChainFusionElidesIntermediates proves the interior stages never
// touch storage: with fusion on, the budget high-water mark of a deep
// chain stays far below the stage-at-a-time run, which must hold every
// intermediate stage store live until the statement ends.
func TestChainFusionElidesIntermediates(t *testing.T) {
	const stages, n = 6, 20000
	peak := func(fusion string) int64 {
		budget := NewMemBudget(0) // unlimited, but still tracks the high-water mark
		db := newOptDB(t, Config{Parallelism: 4, Fusion: fusion, Budget: budget})
		setupGateStage(t, db, n)
		base := budget.Peak() // t0 + gate table
		mustExec(t, db, "CREATE TABLE final AS "+chainQuery(stages, false))
		kc := db.KernelCounters()
		if fusion == "on" && kc["chain_elided"] != stages-2 {
			t.Fatalf("chain_elided = %d, want %d", kc["chain_elided"], stages-2)
		}
		return budget.Peak() - base
	}
	fused, unfused := peak("on"), peak("off")
	if fused >= unfused {
		t.Fatalf("fused peak %d >= stage-at-a-time peak %d: intermediates were materialized", fused, unfused)
	}
	// Six stages hold five intermediate stores; fused holds only the
	// chain output. The gap must be structural, not noise.
	if fused*2 >= unfused {
		t.Fatalf("fused peak %d not structurally below stage-at-a-time peak %d", fused, unfused)
	}
}

// TestChainFusionPartialChain: a WITH list where only a suffix links
// into a chain (the first CTE is referenced twice) must fuse what it
// can — or decline entirely — and stay bit-identical either way.
func TestChainFusionSharedCTEUnfused(t *testing.T) {
	const n = 1000
	q := `WITH c1 AS (
` + chainStageBody("t0", false) + `
), c2 AS (
` + chainStageBody("c1", false) + `
)
SELECT c2.s AS s, c2.r AS r, c2.i AS i FROM c2 JOIN c1 ON c1.s = c2.s`
	var digests [2]string
	for i, fusion := range []string{"off", "on"} {
		db := newOptDB(t, Config{Parallelism: 4, Fusion: fusion})
		setupGateStage(t, db, n)
		digests[i] = rowsBits(queryAll(t, db, q))
	}
	if digests[0] != digests[1] {
		t.Fatal("shared-CTE plan differs between fusion on and off")
	}
}

// TestChainExplainAnnotation: EXPLAIN previews the chain the fusion
// tier would run, and EXPLAIN ANALYZE reports the fused execution's
// actual stage and row counts.
func TestChainExplainAnnotation(t *testing.T) {
	db := newOptDB(t, Config{Parallelism: 2})
	setupGateStage(t, db, 1000)
	q := chainQuery(4, false) // normalizes to a 3-stage chain + top-level kernel

	plan, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "kernel: "+chainAnnotation(3)+" + "+kernelAnnotation) {
		t.Fatalf("EXPLAIN missing chain annotation:\n%s", plan)
	}

	rows := queryAll(t, db, "EXPLAIN ANALYZE "+q)
	var text strings.Builder
	for _, r := range rows {
		text.WriteString(r[0].String())
		text.WriteString("\n")
	}
	if !strings.Contains(text.String(), "kernel chain actual: "+chainAnnotation(3)) {
		t.Fatalf("EXPLAIN ANALYZE missing chain actuals:\n%s", text.String())
	}

	// Fusion off: the same plan previews as a plain gate stage.
	off := newOptDB(t, Config{Parallelism: 2, Fusion: "off"})
	setupGateStage(t, off, 1000)
	plan, err = off.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "gate-chain") {
		t.Fatalf("EXPLAIN shows a chain with fusion off:\n%s", plan)
	}
}

// TestOutputKernelBitIdentity drives the three translated output-layer
// query shapes (norm, qubit probability, marginal distribution) with
// kernels on and off; results must match bit for bit and the compiled
// path must actually run.
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
	for _, n := range []int{0, 300, 20000} { // empty (COALESCE default), serial, morsel
		for _, q := range queries {
			t.Run(fmt.Sprintf("n=%d/%s", n, q.name), func(t *testing.T) {
				var digests [2]string
				for i, kernels := range []string{"off", "on"} {
					db := newOptDB(t, Config{Parallelism: 4, Kernels: kernels})
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
					kc := db.KernelCounters()
					if kernels == "on" && kc["output_executions"] == 0 {
						t.Fatalf("output kernel did not run (counters: %v)", kc)
					}
					if kernels == "off" && kc["output_executions"] != 0 {
						t.Fatal("output kernel ran with kernels off")
					}
				}
				if digests[0] != digests[1] {
					t.Fatalf("output kernel differs from interpreter:\nkernel:\n%s\ninterp:\n%s", digests[1], digests[0])
				}
			})
		}
	}
}

// TestOutputKernelDeclines: shapes the output kernel must leave to the
// interpreter (CASE expectation values, AVG, expressions over the
// aggregate) still produce correct results and never count an output
// execution.
func TestOutputKernelDeclines(t *testing.T) {
	queries := []string{
		"SELECT SUM(((t0.r * t0.r) + (t0.i * t0.i)) * (CASE WHEN ((t0.s >> 1) & 1) = 0 THEN 1.0 ELSE -1.0 END)) AS ez FROM t0",
		"SELECT AVG(t0.r) FROM t0",
		"SELECT SUM(t0.r) + 1.0 FROM t0",
		"SELECT SUM(t0.s) FROM t0", // integer sum: engine keeps an int accumulator
		"SELECT (t0.s & 3) AS m, SUM((t0.r * t0.r) + (t0.i * t0.i)) AS p FROM t0 GROUP BY (t0.s & 3) ORDER BY m DESC",
	}
	db := newOptDB(t, Config{Parallelism: 4})
	setupGateStage(t, db, 1000)
	for _, q := range queries {
		queryAll(t, db, q)
	}
	if kc := db.KernelCounters(); kc["output_executions"] != 0 {
		t.Fatalf("output kernel handled an unsupported shape (counters: %v)", kc)
	}
}

// TestOutputKernelExplainAnnotation: EXPLAIN previews which output
// queries the compiled output-aggregate kernel will take, mirroring
// the runtime gates (shape match, in-memory ColStore, compile).
func TestOutputKernelExplainAnnotation(t *testing.T) {
	db := newOptDB(t, Config{Parallelism: 2})
	setupGateStage(t, db, 1000)

	cases := []struct {
		name string
		sql  string
		want string // "" means no output-kernel annotation
	}{
		{"norm", "SELECT SUM((t0.r * t0.r) + (t0.i * t0.i)) AS norm2 FROM t0", outputAnnotationScalar},
		{"qubitprob", "SELECT COALESCE(SUM((t0.r * t0.r) + (t0.i * t0.i)), 0.0) AS p FROM t0 WHERE ((t0.s >> 2) & 1) = 1", outputAnnotationScalar},
		{"marginal", "SELECT (t0.s & 3) AS m, SUM((t0.r * t0.r) + (t0.i * t0.i)) AS p FROM t0 GROUP BY (t0.s & 3) ORDER BY m", outputAnnotationGroup},
		{"avg_declines", "SELECT AVG(t0.r) FROM t0", ""},
		{"expr_declines", "SELECT SUM(t0.r) + 1.0 FROM t0", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plan, err := db.Explain(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case c.want != "" && !strings.Contains(plan, "kernel: "+c.want):
				t.Fatalf("EXPLAIN missing output-kernel annotation %q:\n%s", c.want, plan)
			case c.want == "" && strings.Contains(plan, "output-agg"):
				t.Fatalf("EXPLAIN claims an output kernel for an unsupported shape:\n%s", plan)
			}
		})
	}

	// Kernels off: the annotation must not appear at all.
	off := newOptDB(t, Config{Parallelism: 2, Kernels: "off"})
	setupGateStage(t, off, 1000)
	plan, err := off.Explain(cases[0].sql)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "output-agg") {
		t.Fatalf("EXPLAIN shows an output kernel with kernels off:\n%s", plan)
	}
}

// TestCounterScopePerDB is the S1 regression: two engine instances
// must keep independent counter scopes — kernel work on one is
// invisible in the other's per-DB counters while the process-wide
// aggregate still sees everything.
func TestCounterScopePerDB(t *testing.T) {
	active := newOptDB(t, Config{Parallelism: 2})
	idle := newOptDB(t, Config{Parallelism: 2})
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
	for k, v := range idle.StorageCounters() {
		if v != 0 {
			t.Fatalf("idle DB storage counter %s = %d, want 0", k, v)
		}
	}
	if got := KernelCounters()["executions"] - globalBefore; got == 0 {
		t.Fatal("process-wide aggregate missed the execution")
	}
}
