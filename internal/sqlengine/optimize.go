package sqlengine

import "sync/atomic"

// Rule-driven logical rewriting.
//
// The optimizer transforms the logical IR in two phases:
//
//  1. dead-CTE elimination and single-use CTE inlining
//  2. constant folding over every expression
//
// It chooses no plan by cost and estimates nothing: the one row-count
// dependent decision, the grace-join pre-choice, and every pre-size hint
// are bound from sizes the engine knows exactly (planner.bind,
// knownRows).
//
// Bit-neutrality contract. Simulated amplitudes must be bitwise
// identical to those of the plan as written (every CTE materialized,
// no expression folded), so every rewrite is classified by whether it can perturb floating-point accumulation
// order. The engine's aggregation adds its input rows one at a time,
// in arrival order, into one accumulator per group. Therefore:
//
//   - Always safe: constant folding (same evaluation code).
//   - Order-sensitive: CTE inlining (the consumer's aggregation reads
//     the CTE's subplan instead of its materialized store, and the rule
//     does not prove the arrival order unchanged). It applies only when no
//     ancestor aggregation uses an accumulation-order-sensitive
//     aggregate (SUM/TOTAL/AVG); COUNT/MIN/MAX and DISTINCT are
//     insensitive. The translated gate queries aggregate amplitudes
//     with SUM, so their per-stage plans keep the exact as-written
//     execution schedule by construction.

// optimizer counters, exposed through OptimizerCounters() and the
// service /metrics endpoint. Package-level because a simulation service
// runs many short-lived engine instances.
var optCounters struct {
	plansOptimized atomic.Int64
	cteInlined     atomic.Int64
	cteDead        atomic.Int64
	constFolded    atomic.Int64
}

// OptimizerCounters snapshots the cumulative optimizer rule counters
// (monotonic across all engine instances in the process).
func OptimizerCounters() map[string]int64 {
	return map[string]int64{
		"plans_optimized": optCounters.plansOptimized.Load(),
		"cte_inlined":     optCounters.cteInlined.Load(),
		"cte_dead":        optCounters.cteDead.Load(),
		"const_folded":    optCounters.constFolded.Load(),
	}
}

// optimizeLogical applies the rewrite rules to a statement's logical
// plan. defs are the statement's CTE definitions (for dead-CTE
// accounting).
func optimizeLogical(root logicalNode, defs []*cteDef) logicalNode {
	root = inlineCTEs(root, false)
	// Inline inside the CTEs that stay materialized too. References
	// always point at earlier definitions, so walking the defs in
	// reverse order settles each consumer's inlining before its
	// producers are visited. Inlining inside a materialized CTE starts
	// from sensitive=false: it cannot change the CTE's own output rows
	// or order, only its internal pipeline, which the local walk guards.
	for i := len(defs) - 1; i >= 0; i-- {
		if d := defs[i]; d.uses > 0 && !d.inline {
			d.plan = inlineCTEs(d.plan, false)
		}
	}
	for _, d := range defs {
		switch {
		case d.uses == 0:
			optCounters.cteDead.Add(1)
		case !d.inline:
			foldNode(d.plan)
		}
	}
	foldNode(root)
	optCounters.plansOptimized.Add(1)
	return root
}

// --- Phase 1: CTE inlining -------------------------------------------

// sensitiveAggs reports whether an aggregation's accumulation depends on
// input order: SUM/TOTAL/AVG accumulate floats in order; COUNT/MIN/MAX
// are associative-commutative and DISTINCT (aggs == nil) keeps
// first-seen order.
func sensitiveAggs(aggs []aggCall) bool {
	for _, a := range aggs {
		switch a.Name {
		case "COUNT", "MIN", "MAX":
		default:
			return true
		}
	}
	return false
}

// inlineCTEs replaces single-use CTE references with their subplans.
// sensitive tracks whether an order-sensitive aggregation sits above the
// current position (see the bit-neutrality contract above).
func inlineCTEs(n logicalNode, sensitive bool) logicalNode {
	switch t := n.(type) {
	case *lCTERef:
		if t.cte.uses == 1 && !sensitive {
			t.cte.inline = true
			optCounters.cteInlined.Add(1)
			inlined := &lAlias{child: inlineCTEs(t.cte.plan, sensitive), table: t.qual, names: t.cte.cols}
			return inlined
		}
		return t
	case *lAgg:
		t.child = inlineCTEs(t.child, sensitive || sensitiveAggs(t.aggs))
		return t
	case *lFilter:
		t.child = inlineCTEs(t.child, sensitive)
		return t
	case *lProject:
		t.child = inlineCTEs(t.child, sensitive)
		return t
	case *lStrip:
		t.child = inlineCTEs(t.child, sensitive)
		return t
	case *lJoin:
		t.left = inlineCTEs(t.left, sensitive)
		t.right = inlineCTEs(t.right, sensitive)
		return t
	case *lSort:
		t.child = inlineCTEs(t.child, sensitive)
		return t
	case *lLimit:
		t.child = inlineCTEs(t.child, sensitive)
		return t
	case *lAlias:
		t.child = inlineCTEs(t.child, sensitive)
		return t
	}
	return n
}

// --- Phase 2: constant folding ---------------------------------------

// foldable reports whether e is a pure literal expression: no column or
// parameter references and no aggregate calls. All scalar functions in
// the engine are deterministic.
func foldable(e Expr) bool {
	ok := true
	walkExpr(e, func(x Expr) {
		switch f := x.(type) {
		case *ColumnRef, *ParamRef:
			ok = false
		case *FuncCall:
			if isAggregateName(f.Name) {
				ok = false
			}
		}
	})
	return ok
}

// foldExpr replaces pure-literal subexpressions with their value,
// evaluated through the same compiled-expression code the executor
// uses, so folding cannot change semantics. Expressions that error at
// fold time (division by zero) are left for the executor to report.
func foldExpr(e Expr) Expr {
	if e == nil {
		return nil
	}
	if _, isLit := e.(*Literal); isLit {
		return e
	}
	folded := rebuildExpr(e, foldExpr)
	if !foldable(folded) {
		return folded
	}
	c, err := compileExpr(folded, &compileCtx{resolver: planSchema(nil)})
	if err != nil {
		return folded
	}
	v, err := c(nil)
	if err != nil {
		return folded
	}
	optCounters.constFolded.Add(1)
	return &Literal{Val: v}
}

// foldExprs returns the folded slice in a new backing array: a logical
// node's expression slice may be the parsed statement's own (lAgg's
// groupBy is SelectStmt.GroupBy), and the statement cache shares that
// AST across executions, so folding must never write through it.
func foldExprs(es []Expr) []Expr {
	if len(es) == 0 {
		return es
	}
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = foldExpr(e)
	}
	return out
}

// foldNode folds every expression the node evaluates.
func foldNode(n logicalNode) {
	switch t := n.(type) {
	case *lFilter:
		t.pred = foldExpr(t.pred)
	case *lProject:
		t.exprs = foldExprs(t.exprs)
	case *lJoin:
		t.leftKeys = foldExprs(t.leftKeys)
		t.rightKeys = foldExprs(t.rightKeys)
		t.residual = foldExpr(t.residual)
	case *lAgg:
		t.groupBy = foldExprs(t.groupBy)
		for i := range t.aggs {
			if t.aggs[i].Arg != nil {
				t.aggs[i].Arg = foldExpr(t.aggs[i].Arg)
			}
		}
	case *lSort:
		for i := range t.keys {
			t.keys[i].expr = foldExpr(t.keys[i].expr)
		}
	}
	for _, c := range lchildren(n) {
		foldNode(c)
	}
}
