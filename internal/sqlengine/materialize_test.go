package sqlengine

import (
	"context"
	"errors"
	"regexp"
	"strings"
	"testing"

	"qymera/internal/obs"
)

// Planning is a pure function of the statement and the statistics: it
// lowers CTE materialization to materializeNodes and executes nothing.
// These tests pin that split and the one-tree property it buys —
// EXPLAIN, EXPLAIN ANALYZE and tracing all see the tree that runs.

// cteNodes collects every materializeNode of a plan, at any depth.
func cteNodes(n planNode) []*materializeNode {
	if m, ok := n.(*materializeNode); ok {
		return append([]*materializeNode{m}, cteNodes(m.child)...)
	}
	var out []*materializeNode
	for _, c := range planChildren(n) {
		out = append(out, cteNodes(c)...)
	}
	return out
}

// TestPlanningExecutesNothing plans a 4-CTE gate chain through
// buildPlan without opening it: no kernel ran or compiled, no CTE store
// exists, and the budget holds exactly what it held before. Executing
// the same plan afterwards runs today's chain: K-1 fused stages plus
// the top-level stage.
func TestPlanningExecutesNothing(t *testing.T) {
	const stages = 4
	budget := NewMemBudget(0) // unlimited, but tracks every reservation
	db := newOptDB(t, Config{Budget: budget})
	setupGateStage(t, db, 1000)
	stmt, _, err := ParseStatement(chainQuery(stages, false))
	if err != nil {
		t.Fatal(err)
	}
	used := budget.Used()
	ctx := db.newExecCtx(context.Background(), nil)
	root, _, p, err := db.buildPlan(ctx, stmt.(*SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	defer p.release()
	kc := db.KernelCounters()
	for _, k := range []string{"executions", "chain_executions", "compiles", "cache_hits"} {
		if kc[k] != 0 {
			t.Fatalf("planning moved kernel counter %s to %d (counters: %v)", k, kc[k], kc)
		}
	}
	ctes := cteNodes(root)
	if len(ctes) != stages-1 {
		t.Fatalf("plan holds %d CTE nodes, want %d", len(ctes), stages-1)
	}
	for _, m := range ctes {
		if m.res.store != nil {
			t.Fatalf("planning materialized CTE %s", m.name)
		}
	}
	if got := budget.Used(); got != used {
		t.Fatalf("planning reserved %d bytes", got-used)
	}

	store, err := p.execute(root, false)
	if err != nil {
		t.Fatal(err)
	}
	store.Release()
	kc = db.KernelCounters()
	if kc["chain_executions"] != 1 || kc["chain_stages"] != stages-1 || kc["executions"] != stages {
		t.Fatalf("execution ran chain_executions=%d chain_stages=%d executions=%d, want 1, %d, %d",
			kc["chain_executions"], kc["chain_stages"], kc["executions"], stages-1, stages)
	}
}

var (
	estSuffixRE    = regexp.MustCompile(` \(est_rows=[^)]*\)`)
	actualSuffixRE = regexp.MustCompile(` actual_rows=\d+`)
)

// operatorLines strips an EXPLAIN [ANALYZE] rendering down to its
// operator lines, without the estimate and actual-row annotations.
func operatorLines(plan string) []string {
	var out []string
	for _, l := range strings.Split(strings.TrimRight(plan, "\n"), "\n") {
		switch {
		case strings.HasPrefix(l, "output:"), strings.HasPrefix(l, "executor:"), strings.HasPrefix(l, "storage:"),
			strings.HasPrefix(l, "optimizer:"), strings.HasPrefix(l, "kernel"), strings.HasPrefix(l, "actual:"):
			continue
		}
		out = append(out, actualSuffixRE.ReplaceAllString(estSuffixRE.ReplaceAllString(l, ""), ""))
	}
	return out
}

// TestExplainAnalyzeShowsTheTreeThatRuns: EXPLAIN ANALYZE instruments
// and runs the very tree EXPLAIN prints, MaterializeCTE subplans
// included, so with the kernel tier off the two agree line for line
// once the estimate and actual-row annotations are stripped — and the
// CTE subplans that ran carry actual row counts. With kernels on, the
// fused chain still reports its own actuals.
func TestExplainAnalyzeShowsTheTreeThatRuns(t *testing.T) {
	queries := map[string]string{}
	for _, tc := range goldenCases {
		if tc.name == "cte_shared" || tc.name == "gate_chain" {
			queries[tc.name] = tc.query
		}
	}
	off := withKernels(goldenDB(t, Config{}), false)
	for name, q := range queries {
		t.Run(name, func(t *testing.T) {
			// Analyze first: execution freezes (and encodes) the tables,
			// which the scans' layout annotations then show in both.
			analyzed, err := off.ExplainAnalyze(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := off.Explain(q)
			if err != nil {
				t.Fatal(err)
			}
			want, got := operatorLines(plan), operatorLines(analyzed)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("EXPLAIN ANALYZE runs another tree.\n--- EXPLAIN\n%s\n--- EXPLAIN ANALYZE\n%s", plan, analyzed)
			}
			lines := strings.Split(analyzed, "\n")
			counted := false
			for i, l := range lines[:len(lines)-1] {
				if strings.Contains(l, "MaterializeCTE") && strings.Contains(lines[i+1], "actual_rows=") {
					counted = true
				}
			}
			if !counted {
				t.Fatalf("no MaterializeCTE subplan carries actual_rows:\n%s", analyzed)
			}
		})
	}
	on := goldenDB(t, Config{})
	analyzed, err := on.ExplainAnalyze(context.Background(), queries["gate_chain"])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(analyzed, "kernel chain actual: "+chainAnnotation(3)) {
		t.Fatalf("EXPLAIN ANALYZE lost the fused chain's actuals:\n%s", analyzed)
	}
}

// TestTraceSeparatesPlanFromExecution: a traced chained query records
// no kernel work under its "plan" span — the chain kernel runs after
// planning ends, under "execute" — and the CTE references appear as
// cte:<name> operator spans under "execute": with fusion on only the
// chain top (its subplan ran inside the kernel), with fusion off every
// stage, each nested in the stage that reads it. The fusion=off cell
// runs the interpreter, which never fuses.
func TestTraceSeparatesPlanFromExecution(t *testing.T) {
	for _, fusion := range []string{"on", "off"} {
		t.Run("fusion="+fusion, func(t *testing.T) {
			db := withKernels(newOptDB(t, Config{}), fusion == "on")
			setupGateStage(t, db, 1000)
			tr := obs.NewTrace("job", obs.SampleFull)
			rs, err := db.QueryContext(obs.WithSpan(context.Background(), tr.Root()), chainQuery(4, false))
			if err != nil {
				t.Fatal(err)
			}
			rs.Close()
			snap := tr.Snapshot()
			if len(snap.Children) != 1 || snap.Children[0].Name != "select" {
				t.Fatalf("trace shape %s, want one select span", snap.Shape())
			}
			var plan, exec *obs.SpanJSON
			for i, c := range snap.Children[0].Children {
				switch c.Name {
				case "plan":
					plan = &snap.Children[0].Children[i]
				case "execute":
					exec = &snap.Children[0].Children[i]
				}
			}
			if plan == nil || exec == nil {
				t.Fatalf("trace shape %s, want plan and execute spans", snap.Shape())
			}
			plan.Walk(func(sp obs.SpanJSON) {
				if sp.Name != "plan" {
					t.Fatalf("plan span has a %s descendant: %s", sp.Name, snap.Shape())
				}
			})
			var chains int
			ctes := map[string]bool{}
			exec.Walk(func(sp obs.SpanJSON) {
				switch {
				case sp.Name == "kernel-chain":
					chains++
					if sp.StartUs < plan.StartUs+plan.DurationUs {
						t.Fatalf("kernel-chain started at %dµs, before planning ended at %dµs", sp.StartUs, plan.StartUs+plan.DurationUs)
					}
				case strings.HasPrefix(sp.Name, "cte:"):
					ctes[sp.Name] = true
				}
			})
			wantChains, want := 1, map[string]bool{"cte:c3": true}
			if fusion == "off" {
				wantChains, want = 0, map[string]bool{"cte:c1": true, "cte:c2": true, "cte:c3": true}
			}
			if chains != wantChains || len(ctes) != len(want) {
				t.Fatalf("execute span: %d kernel-chain spans, CTE spans %v; want %d, %v (%s)", chains, ctes, wantChains, want, snap.Shape())
			}
			for name := range want {
				if !ctes[name] {
					t.Fatalf("missing %s span under execute: %s", name, snap.Shape())
				}
			}
		})
	}
}

// TestKernelDisableSpillTightBudget: with spilling disabled a kernel
// holds its working-set reservation while its output store reserves
// batch by batch, where the interpreter force-reserves its hash table
// inside the working floor. At the smallest budget (to 1 KiB) under
// which the interpreter completes a gate stage or a fused chain, the
// kernel tier must complete it too — running, not declining — and
// bit-identically.
func TestKernelDisableSpillTightBudget(t *testing.T) {
	for _, tc := range []struct {
		name string
		q    string
		n    int
	}{
		{"gate/n=64", gateStageQuery(false), 64},
		{"gate/n=1000", gateStageQuery(false), 1000},
		{"chain/n=64", chainQuery(4, false), 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(kernels bool, slack int64) (string, int64, error) {
				db, _ := budgetedGateStageDB(t, Config{DisableSpill: true}, tc.n, slack)
				withKernels(db, kernels)
				rs, err := db.Query(tc.q)
				if err != nil {
					return "", 0, err
				}
				defer rs.Close()
				rows, err := rs.All()
				return rowsBits(rows), db.KernelCounters()["executions"], err
			}
			lo, hi := int64(0), int64(1<<20)
			want, _, err := run(false, hi)
			if err != nil {
				t.Fatalf("interpreter fails with %d bytes of slack: %v", hi, err)
			}
			for hi-lo > 1<<10 {
				mid := (lo + hi) / 2
				if _, _, err := run(false, mid); err == nil {
					hi = mid
				} else if errors.Is(err, ErrBudget) {
					lo = mid
				} else {
					t.Fatal(err)
				}
			}
			got, ran, err := run(true, hi)
			if err != nil {
				t.Fatalf("kernels fail where the interpreter completes (slack %d): %v", hi, err)
			}
			if ran == 0 {
				t.Fatalf("kernels declined at slack %d", hi)
			}
			if got != want {
				t.Fatal("kernel result differs from the interpreter's")
			}
		})
	}
}
