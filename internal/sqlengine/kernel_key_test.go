package sqlengine

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"qymera/internal/circuits"
	"qymera/internal/core"
	"qymera/internal/quantum"
)

// The kernel cache keys a compiled gate-stage program by bytes that
// appendGateStageKey appends in place. The string-rendering key below
// is the reference: the tests hold the two byte-equal, so a program is
// shared by exactly the stages whose canonical forms agree.

// canonicalExprString renders an expression with column references
// replaced by their resolved slot index, so that "T0.s" and "s" (when
// unambiguous) compare equal for GROUP BY matching.
func canonicalExprString(e Expr, schema planSchema) string {
	switch n := e.(type) {
	case *ColumnRef:
		if idx, err := schema.resolveColumn(n.Table, n.Name); err == nil {
			return "#c" + strconv.Itoa(idx)
		}
		return "?unresolved:" + strings.ToLower(n.Deparse())
	case *BinaryExpr:
		return "(" + canonicalExprString(n.L, schema) + " " + n.Op + " " + canonicalExprString(n.R, schema) + ")"
	case *UnaryExpr:
		return "(" + n.Op + " " + canonicalExprString(n.X, schema) + ")"
	case *FuncCall:
		parts := make([]string, len(n.Args))
		for i, a := range n.Args {
			parts[i] = canonicalExprString(a, schema)
		}
		d := ""
		if n.Distinct {
			d = "DISTINCT "
		}
		if n.Star {
			return n.Name + "(*)"
		}
		return n.Name + "(" + d + strings.Join(parts, ",") + ")"
	case *CaseExpr:
		var b strings.Builder
		b.WriteString("CASE")
		if n.Operand != nil {
			b.WriteString(" " + canonicalExprString(n.Operand, schema))
		}
		for _, w := range n.Whens {
			b.WriteString(" WHEN " + canonicalExprString(w.When, schema))
			b.WriteString(" THEN " + canonicalExprString(w.Then, schema))
		}
		if n.Else != nil {
			b.WriteString(" ELSE " + canonicalExprString(n.Else, schema))
		}
		b.WriteString(" END")
		return b.String()
	case *IsNullExpr:
		s := canonicalExprString(n.X, schema) + " IS "
		if n.Not {
			s += "NOT "
		}
		return s + "NULL"
	case *InExpr:
		parts := make([]string, len(n.List))
		for i, x := range n.List {
			parts[i] = canonicalExprString(x, schema)
		}
		s := canonicalExprString(n.X, schema)
		if n.Not {
			s += " NOT"
		}
		return s + " IN (" + strings.Join(parts, ",") + ")"
	case *BetweenExpr:
		s := canonicalExprString(n.X, schema)
		if n.Not {
			s += " NOT"
		}
		return s + " BETWEEN " + canonicalExprString(n.Lo, schema) + " AND " + canonicalExprString(n.Hi, schema)
	case *CastExpr:
		return "CAST(" + canonicalExprString(n.X, schema) + " AS " + n.To.String() + ")"
	case *Literal:
		return e.Deparse()
	case *ParamRef:
		return "?" + strconv.Itoa(n.Index)
	}
	return e.Deparse()
}

// gateStageCacheKey is the reference rendering of appendGateStageKey.
func gateStageCacheKey(core *projectNode, agg *aggNode, having *filterNode, join *joinNode, gateScan *storeScanNode, nLeft, nRight int) string {
	leftSchema := join.left.schema()
	joinSchema := append(append(planSchema{}, leftSchema...), gateScan.cols...)
	var b strings.Builder
	b.WriteString("v1|nl=")
	b.WriteString(strconv.Itoa(nLeft))
	b.WriteString("|nr=")
	b.WriteString(strconv.Itoa(nRight))
	b.WriteString("|in=")
	b.WriteString(canonicalExprString(join.leftKeys[0], leftSchema))
	b.WriteString("|rk=")
	b.WriteString(canonicalExprString(join.rightKeys[0], gateScan.cols))
	b.WriteString("|out=")
	b.WriteString(canonicalExprString(agg.groupBy[0], joinSchema))
	b.WriteString("|s0=")
	b.WriteString(canonicalExprString(agg.aggs[0].Arg, joinSchema))
	b.WriteString("|s1=")
	b.WriteString(canonicalExprString(agg.aggs[1].Arg, joinSchema))
	b.WriteString("|hv=")
	if having != nil {
		b.WriteString(canonicalExprString(having.pred, agg.schema()))
	} else {
		b.WriteString("-")
	}
	return b.String()
}

// keyedStage is one gate-stage core of a planned statement, with the
// operands its cache key is built from.
type keyedStage struct {
	core     *projectNode
	agg      *aggNode
	having   *filterNode
	join     *joinNode
	gateScan *storeScanNode
}

// key is the stage's cache key, appended; refKey is the reference
// rendering, built from the same operands.
func (s keyedStage) key() []byte {
	return appendGateStageKey(nil, s.agg, s.having, s.join, s.gateScan)
}

func (s keyedStage) refKey() string {
	return gateStageCacheKey(s.core, s.agg, s.having, s.join, s.gateScan, len(s.join.left.schema()), len(s.gateScan.cols))
}

// plannedStages plans sel on db and returns every gate-stage core in
// the plan, CTE subplans included, top-down.
func plannedStages(t *testing.T, db *DB, sel *SelectStmt) []keyedStage {
	t.Helper()
	node, _, p, err := db.buildPlan(db.newExecCtx(context.Background(), nil), sel)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.release)
	var out []keyedStage
	seen := map[*materializeNode]bool{}
	var visit func(n planNode)
	visit = func(n planNode) {
		if m, ok := n.(*materializeNode); ok {
			if !seen[m] {
				seen[m] = true
				visit(m.child)
			}
			return
		}
		if core, ok := n.(*projectNode); ok {
			if agg, having := coreAggOf(core); agg != nil {
				join, ok := unwrapStat(agg.child).(*joinNode)
				if ok && len(join.leftKeys) == 1 && len(agg.groupBy) == 1 && len(agg.aggs) == 2 {
					if gate := scanOf(join.right); gate != nil {
						out = append(out, keyedStage{core: core, agg: agg, having: having, join: join, gateScan: gate})
					}
				}
			}
		}
		for _, c := range planChildren(n) {
			visit(c)
		}
	}
	visit(node)
	return out
}

// keyCircuits are the circuits whose every stage key is checked: the
// benchmark's dense, floor and sweep shapes, and a superposition.
func keyCircuits() []struct {
	name string
	c    *quantum.Circuit
} {
	angles := make([]float64, 10*4*2)
	for i := range angles {
		angles[i] = 0.05 + 0.031*float64(i)
	}
	return []struct {
		name string
		c    *quantum.Circuit
	}{
		{"qft12", circuits.QFT(12)},
		{"ghz16", circuits.GHZ(16)},
		{"hea10x4", circuits.HardwareEfficientAnsatz(10, 4, angles)},
		{"h12", circuits.EqualSuperposition(12)},
	}
}

// TestGateStageKeyMatchesReference: for every gate stage of QFT-12,
// GHZ-16, HEA(10,4) and H^⊗12, in both translation modes and with
// pruning on and off, the appended key is byte-equal to the reference
// rendering; and a real run stores only keys the reference produces.
func TestGateStageKeyMatchesReference(t *testing.T) {
	for _, tc := range keyCircuits() {
		for _, mode := range []core.Mode{core.SingleQuery, core.MaterializedChain} {
			for _, eps := range []float64{0, 1e-10} {
				name := tc.name + "/" + mode.String()
				if eps > 0 {
					name += "/prune"
				}
				t.Run(name, func(t *testing.T) {
					tr, err := core.Translate(tc.c, nil, core.Options{Mode: mode, PruneEps: eps})
					if err != nil {
						t.Fatal(err)
					}
					cache := NewKernelCache(0)
					db := newOptDB(t, Config{KernelCache: cache})
					ref := map[string]bool{}
					var stages int
					check := func(sel *SelectStmt) {
						for _, st := range plannedStages(t, db, sel) {
							stages++
							got, want := st.key(), st.refKey()
							if string(got) != want {
								t.Fatalf("key differs:\n got %s\nwant %s", got, want)
							}
							ref[want] = true
						}
					}
					for _, s := range tr.FusedStatements() {
						stmt, _, err := ParseStatement(s)
						if err != nil {
							t.Fatal(err)
						}
						if ct, ok := stmt.(*CreateTableStmt); ok && ct.AsSelect != nil {
							check(ct.AsSelect)
						}
						mustExec(t, db, s)
					}
					stmt, _, err := ParseStatement(tr.Query)
					if err != nil {
						t.Fatal(err)
					}
					check(stmt.(*SelectStmt))
					queryAll(t, db, tr.Query)

					if stages < tr.StageCount {
						t.Fatalf("checked %d stages, want at least %d", stages, tr.StageCount)
					}
					cache.lru.mu.Lock()
					defer cache.lru.mu.Unlock()
					if len(cache.lru.m) == 0 {
						t.Fatal("the run cached no kernel program")
					}
					for k := range cache.lru.m {
						if !ref[k] {
							t.Errorf("the run cached a key the reference never rendered: %s", k)
						}
					}
				})
			}
		}
	}
}

// TestGateStageKeyLookupAllocs: building and looking up a warm key,
// pruned or not, allocates nothing.
func TestGateStageKeyLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	for _, eps := range []float64{0, 1e-10} {
		tr, err := core.Translate(circuits.QFT(4), nil, core.Options{PruneEps: eps})
		if err != nil {
			t.Fatal(err)
		}
		db := newOptDB(t, Config{})
		for _, s := range tr.Setup {
			mustExec(t, db, s)
		}
		stmt, _, err := ParseStatement(tr.Query)
		if err != nil {
			t.Fatal(err)
		}
		stages := plannedStages(t, db, stmt.(*SelectStmt))
		if len(stages) == 0 {
			t.Fatal("no gate stage planned")
		}
		cache := NewKernelCache(0)
		prog := &kernelProg{}
		for _, st := range stages {
			cache.store(string(st.key()), prog)
		}
		allocs := testing.AllocsPerRun(50, func() {
			for _, st := range stages {
				if p, _ := lookupGateProgram(cache, st.agg, st.having, st.join, st.gateScan); p != prog {
					t.Fatal("warm key missed")
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("prune=%g: warm key build and lookup allocated %.1f times per run", eps, allocs)
		}
	}
}

// TestAppendCanonicalExprMatchesReference: over every expression form,
// appending against a two-part schema renders what the reference
// renders against the concatenated schema — resolved, unresolved and
// ambiguous columns alike.
func TestAppendCanonicalExprMatchesReference(t *testing.T) {
	left := planSchema{{table: "t0", name: "s"}, {table: "t0", name: "r"}, {table: "t0", name: "i"}}
	right := planSchema{{table: "h", name: "in_s"}, {table: "h", name: "out_s"}, {table: "h", name: "r"}, {table: "h", name: "i"}}
	joined := append(append(planSchema{}, left...), right...)
	srcs := []string{
		"(T0.s & ~1)", "((T0.s & ~1) | H.out_s)", "(s & ~1)", "r", "t0.r", "H.R", "missing", "h.missing",
		"SUM((T0.r * H.r) - (T0.i * H.i))", "SUM(DISTINCT r)", "COUNT(*)", "-s", "~s", "NOT (s = 1)",
		"CASE WHEN s > 0 THEN t0.r ELSE 0 END", "CASE s WHEN 0 THEN h.r END", "CAST(s AS REAL)",
		"s IS NULL", "s IS NOT NULL", "s IN (1, 2)", "s NOT IN (1, 2)", "s BETWEEN 1 AND 2",
		"s NOT BETWEEN 1 AND 2", "? + s", "'it''s'", "NULL", "TRUE", "2.5e-300", "1.0000000000000001e-20",
		"-9223372036854775807", "(((t0.r * t0.r) + (t0.i * t0.i)) > 1e-12)", "abs(s - 3)",
	}
	for _, src := range srcs {
		e := parseExprForTest(t, src)
		if got, want := string(appendCanonicalExpr(nil, e, keySchema{left, right})), canonicalExprString(e, joined); got != want {
			t.Errorf("%s: two-part rendering %q, reference %q", src, got, want)
		}
		if got, want := string(appendCanonicalExpr(nil, e, keySchema{left: joined})), canonicalExprString(e, joined); got != want {
			t.Errorf("%s: one-part rendering %q, reference %q", src, got, want)
		}
	}
}
