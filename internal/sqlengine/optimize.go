package sqlengine

import (
	"math"
	"sync/atomic"
)

// Rule-driven logical rewriting and cost estimation.
//
// The optimizer transforms the logical IR in three phases:
//
//  1. dead-CTE elimination and single-use CTE inlining
//  2. constant folding over every expression
//  3. cost estimation (table statistics from stats.go) and hash-table
//     pre-sizing hints; planner.bind re-derives the hints from exact
//     store sizes before execution
//
// Bit-neutrality contract. Simulated amplitudes must be bitwise
// identical to those of the plan as written (every CTE materialized,
// no expression folded), so every rewrite is classified by whether it can perturb floating-point accumulation
// order. The engine's aggregation adds its input rows one at a time,
// in arrival order, into one accumulator per group. Therefore:
//
//   - Always safe: constant folding (same evaluation code) and
//     pre-sizing hints.
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
	plansWithStats atomic.Int64
	cteInlined     atomic.Int64
	cteDead        atomic.Int64
	constFolded    atomic.Int64
}

// OptimizerCounters snapshots the cumulative optimizer rule counters
// (monotonic across all engine instances in the process).
func OptimizerCounters() map[string]int64 {
	return map[string]int64{
		"plans_optimized":  optCounters.plansOptimized.Load(),
		"plans_with_stats": optCounters.plansWithStats.Load(),
		"cte_inlined":      optCounters.cteInlined.Load(),
		"cte_dead":         optCounters.cteDead.Load(),
		"const_folded":     optCounters.constFolded.Load(),
	}
}

const (
	// defaultFilterSel is the selectivity of a predicate the model cannot
	// analyze.
	defaultFilterSel = 1.0 / 3
	// defaultEqSel is the selectivity of an equality with no distinct
	// statistics.
	defaultEqSel = 0.1
	// pruneHavingSel is the survival fraction assumed for the translated
	// zero-amplitude pruning HAVING clause ((r*r + i*i) > eps²): most
	// nonzero amplitudes survive.
	pruneHavingSel = 0.95
	// hintCap bounds hash-table pre-sizing hints: a badly wrong
	// overestimate may waste at most a ~12 MB map allocation.
	hintCap = 1 << 18
)

// optimizer carries the per-statement rewrite context.
type optimizer struct {
	env      *storageEnv
	sawStats bool
}

// optimizeLogical applies the rewrite rules and cost-based annotations
// to a statement's logical plan. defs are the statement's CTE
// definitions (for dead-CTE accounting).
func optimizeLogical(root logicalNode, defs []*cteDef, env *storageEnv) logicalNode {
	o := &optimizer{env: env}
	root = o.inlineCTEs(root, false)
	// Inline inside the CTEs that stay materialized too. References
	// always point at earlier definitions, so walking the defs in
	// reverse order settles each consumer's inlining before its
	// producers are visited. Inlining inside a materialized CTE starts
	// from sensitive=false: it cannot change the CTE's own output rows
	// or order, only its internal pipeline, which the local walk guards.
	for i := len(defs) - 1; i >= 0; i-- {
		if d := defs[i]; d.uses > 0 && !d.inline {
			d.plan = o.inlineCTEs(d.plan, false)
		}
	}
	// Fold and estimate the materialized CTE plans first, so references
	// see their estimates.
	for _, d := range defs {
		switch {
		case d.uses == 0:
			optCounters.cteDead.Add(1)
		case !d.inline:
			o.foldNode(d.plan)
			o.estimateNode(d.plan)
			o.choose(d.plan)
		}
	}
	o.foldNode(root)
	o.estimateNode(root)
	o.choose(root)
	optCounters.plansOptimized.Add(1)
	if o.sawStats {
		optCounters.plansWithStats.Add(1)
	}
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
func (o *optimizer) inlineCTEs(n logicalNode, sensitive bool) logicalNode {
	switch t := n.(type) {
	case *lCTERef:
		if t.cte.uses == 1 && !sensitive {
			t.cte.inline = true
			optCounters.cteInlined.Add(1)
			inlined := &lAlias{child: o.inlineCTEs(t.cte.plan, sensitive), table: t.qual, names: t.cte.cols, est: newNodeEst()}
			return inlined
		}
		return t
	case *lAgg:
		t.child = o.inlineCTEs(t.child, sensitive || sensitiveAggs(t.aggs))
		return t
	case *lFilter:
		t.child = o.inlineCTEs(t.child, sensitive)
		return t
	case *lProject:
		t.child = o.inlineCTEs(t.child, sensitive)
		return t
	case *lStrip:
		t.child = o.inlineCTEs(t.child, sensitive)
		return t
	case *lJoin:
		t.left = o.inlineCTEs(t.left, sensitive)
		t.right = o.inlineCTEs(t.right, sensitive)
		return t
	case *lSort:
		t.child = o.inlineCTEs(t.child, sensitive)
		return t
	case *lLimit:
		t.child = o.inlineCTEs(t.child, sensitive)
		return t
	case *lAlias:
		t.child = o.inlineCTEs(t.child, sensitive)
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
func (o *optimizer) foldNode(n logicalNode) {
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
		o.foldNode(c)
	}
}

// --- Phase 3: cost estimation ----------------------------------------

// colStatsFor resolves the statistics of a (table, column) reference by
// walking down to the base scan that produces it.
func (o *optimizer) colStatsFor(n logicalNode, table, name string) (*colStats, int64) {
	switch t := n.(type) {
	case *lScan:
		idx, err := t.lschema().resolveColumn(table, name)
		if err != nil {
			return nil, 0
		}
		ts := t.meta.store.stats
		if ts == nil {
			return nil, 0
		}
		o.sawStats = true
		return ts.col(idx), ts.rows
	case *lFilter:
		return o.colStatsFor(t.child, table, name)
	case *lStrip:
		return o.colStatsFor(t.child, table, name)
	case *lSort:
		return o.colStatsFor(t.child, table, name)
	case *lLimit:
		return o.colStatsFor(t.child, table, name)
	case *lAlias:
		as := t.lschema()
		idx, err := as.resolveColumn(table, name)
		if err != nil {
			return nil, 0
		}
		cc := t.child.lschema()[idx]
		if cc.table == "" && cc.name == "" {
			return nil, 0
		}
		return o.colStatsFor(t.child, cc.table, cc.name)
	case *lProject:
		idx, err := t.cols.resolveColumn(table, name)
		if err != nil {
			return nil, 0
		}
		if cr, ok := t.exprs[idx].(*ColumnRef); ok {
			return o.colStatsFor(t.child, cr.Table, cr.Name)
		}
		return nil, 0
	case *lJoin:
		if cs, rows := o.colStatsFor(t.left, table, name); cs != nil {
			return cs, rows
		}
		return o.colStatsFor(t.right, table, name)
	case *lCTERef:
		idx, err := t.cols.resolveColumn(table, name)
		if err != nil {
			return nil, 0
		}
		ps := t.cte.plan.lschema()
		if idx >= len(ps) {
			return nil, 0
		}
		cc := ps[idx]
		return o.colStatsFor(t.cte.plan, cc.table, cc.name)
	}
	return nil, 0
}

// exprDistinct estimates the number of distinct values e takes over n's
// output, or 0 when unknown.
func (o *optimizer) exprDistinct(n logicalNode, e Expr) float64 {
	cr, ok := e.(*ColumnRef)
	if !ok {
		return 0
	}
	cs, _ := o.colStatsFor(n, cr.Table, cr.Name)
	if cs == nil {
		return 0
	}
	return cs.distinct()
}

// litValue unwraps a literal operand.
func litValue(e Expr) (Value, bool) {
	if l, ok := e.(*Literal); ok {
		return l.Val, true
	}
	return Value{}, false
}

// isNormPrunePredicate recognizes the translated zero-amplitude pruning
// shape ((x*x) + (y*y)) > eps² emitted by core.Translate's HAVING.
func isNormPrunePredicate(e Expr) bool {
	b, ok := e.(*BinaryExpr)
	if !ok || (b.Op != ">" && b.Op != ">=") {
		return false
	}
	if _, isLit := litValue(b.R); !isLit {
		return false
	}
	sum, ok := b.L.(*BinaryExpr)
	if !ok || sum.Op != "+" {
		return false
	}
	isSquare := func(x Expr) bool {
		m, ok := x.(*BinaryExpr)
		return ok && m.Op == "*" && m.L.Deparse() == m.R.Deparse()
	}
	return isSquare(sum.L) && isSquare(sum.R)
}

// selectivity estimates the fraction of n's rows that satisfy conjunct c.
func (o *optimizer) selectivity(n logicalNode, c Expr) float64 {
	clamp := func(s float64) float64 {
		return math.Min(1, math.Max(0.0001, s))
	}
	switch t := c.(type) {
	case *Literal:
		if b, known := t.Val.Bool(); known {
			if b {
				return 1
			}
			return 0.0001
		}
		return defaultFilterSel
	case *UnaryExpr:
		if t.Op == "NOT" {
			return clamp(1 - o.selectivity(n, t.X))
		}
	case *IsNullExpr:
		if cr, ok := t.X.(*ColumnRef); ok {
			if cs, rows := o.colStatsFor(n, cr.Table, cr.Name); cs != nil && rows > 0 {
				f := cs.nullFraction(rows)
				if t.Not {
					f = 1 - f
				}
				return clamp(f)
			}
		}
		if t.Not {
			return clamp(0.9)
		}
		return clamp(0.1)
	case *InExpr:
		if d := o.exprDistinct(n, t.X); d > 0 {
			s := float64(len(t.List)) / d
			if t.Not {
				s = 1 - s
			}
			return clamp(s)
		}
		s := float64(len(t.List)) * defaultEqSel
		if t.Not {
			s = 1 - s
		}
		return clamp(s)
	case *BetweenExpr:
		if cr, ok := t.X.(*ColumnRef); ok {
			cs, _ := o.colStatsFor(n, cr.Table, cr.Name)
			lo, lok := litValue(t.Lo)
			hi, hok := litValue(t.Hi)
			if cs != nil && cs.intSeen && lok && hok && lo.T == TypeInt && hi.T == TypeInt {
				s := intRangeFraction(cs, lo.I, hi.I)
				if t.Not {
					s = 1 - s
				}
				return clamp(s)
			}
		}
		if t.Not {
			return clamp(0.75)
		}
		return clamp(0.25)
	case *BinaryExpr:
		switch t.Op {
		case "AND":
			return clamp(o.selectivity(n, t.L) * o.selectivity(n, t.R))
		case "OR":
			a, b := o.selectivity(n, t.L), o.selectivity(n, t.R)
			return clamp(a + b - a*b)
		case "=", "==":
			if d := o.exprDistinct(n, t.L); d > 0 {
				return clamp(1 / d)
			}
			if d := o.exprDistinct(n, t.R); d > 0 {
				return clamp(1 / d)
			}
			return defaultEqSel
		case "!=", "<>":
			if d := o.exprDistinct(n, t.L); d > 0 {
				return clamp(1 - 1/d)
			}
			return clamp(1 - defaultEqSel)
		case "<", "<=", ">", ">=":
			if isNormPrunePredicate(t) {
				return pruneHavingSel
			}
			cr, crOK := t.L.(*ColumnRef)
			lit, litOK := litValue(t.R)
			op := t.Op
			if !crOK {
				// literal <op> column: mirror.
				if cr2, ok2 := t.R.(*ColumnRef); ok2 {
					if lit2, lok2 := litValue(t.L); lok2 {
						cr, lit, crOK, litOK = cr2, lit2, true, true
						switch op {
						case "<":
							op = ">"
						case "<=":
							op = ">="
						case ">":
							op = "<"
						case ">=":
							op = "<="
						}
					}
				}
			}
			if crOK && litOK && lit.T == TypeInt {
				if cs, _ := o.colStatsFor(n, cr.Table, cr.Name); cs != nil && cs.intSeen {
					var s float64
					switch op {
					case "<":
						s = intRangeFraction(cs, cs.intMin, lit.I-1)
					case "<=":
						s = intRangeFraction(cs, cs.intMin, lit.I)
					case ">":
						s = intRangeFraction(cs, lit.I+1, cs.intMax)
					case ">=":
						s = intRangeFraction(cs, lit.I, cs.intMax)
					}
					return clamp(s)
				}
			}
			return defaultFilterSel
		}
	}
	return defaultFilterSel
}

// intRangeFraction interpolates how much of [min..max] the query range
// [lo..hi] covers, assuming a uniform distribution.
func intRangeFraction(cs *colStats, lo, hi int64) float64 {
	if hi < lo {
		return 0
	}
	if lo < cs.intMin {
		lo = cs.intMin
	}
	if hi > cs.intMax {
		hi = cs.intMax
	}
	if hi < lo {
		return 0
	}
	width := float64(cs.intMax-cs.intMin) + 1
	return (float64(hi-lo) + 1) / width
}

// estimateNode fills the est annotation of n's subtree and returns the
// estimated output rows.
func (o *optimizer) estimateNode(n logicalNode) float64 {
	est := n.estimate()
	if est.rows >= 0 {
		return est.rows
	}
	rows, cost := 0.0, 0.0
	switch t := n.(type) {
	case *lOneRow:
		rows, cost = 1, 1
	case *lScan:
		base := float64(t.meta.store.Len())
		if t.meta.store.stats != nil {
			o.sawStats = true
		}
		rows, cost = base, base
	case *lCTERef:
		rows = o.estimateNode(t.cte.plan)
		cost = rows
	case *lFilter:
		in := o.estimateNode(t.child)
		rows = in * o.selectivity(t.child, t.pred)
		cost = t.child.estimate().cost + in*0.1
	case *lProject:
		rows = o.estimateNode(t.child)
		cost = t.child.estimate().cost + rows*0.1*float64(len(t.exprs))
	case *lStrip:
		rows = o.estimateNode(t.child)
		cost = t.child.estimate().cost
	case *lAlias:
		rows = o.estimateNode(t.child)
		cost = t.child.estimate().cost
	case *lJoin:
		lr := o.estimateNode(t.left)
		rr := o.estimateNode(t.right)
		if len(t.leftKeys) > 0 {
			rows = lr * rr
			for i := range t.leftKeys {
				d := math.Max(o.exprDistinct(t.left, t.leftKeys[i]), o.exprDistinct(t.right, t.rightKeys[i]))
				if d <= 0 {
					d = math.Max(1, math.Max(lr, rr))
				}
				rows /= d
			}
		} else {
			rows = lr * rr // cross / nested loop
		}
		if t.residual != nil {
			rows *= defaultFilterSel
		}
		if t.joinType == "LEFT" && rows < lr {
			rows = lr
		}
		cost = t.left.estimate().cost + t.right.estimate().cost + rr + lr + rows
	case *lAgg:
		in := o.estimateNode(t.child)
		if len(t.groupBy) == 0 {
			rows = 1
		} else {
			groups := 1.0
			known := true
			for _, g := range t.groupBy {
				d := o.exprDistinct(t.child, g)
				if d <= 0 {
					known = false
					break
				}
				groups *= d
			}
			if !known {
				groups = in / 2
			}
			rows = math.Max(1, math.Min(in, groups))
		}
		cost = t.child.estimate().cost + 2*in + rows
	case *lSort:
		rows = o.estimateNode(t.child)
		cost = t.child.estimate().cost + rows*math.Log2(rows+2)
	case *lLimit:
		rows = o.estimateNode(t.child)
		if lim, ok := litValue(t.limit); ok && lim.T == TypeInt && float64(lim.I) < rows {
			rows = float64(lim.I)
		}
		cost = t.child.estimate().cost
	}
	est.rows = rows
	est.cost = cost
	return rows
}

// estRowBytes approximates the in-memory bytes of one row of a schema.
func estRowBytes(width int) float64 { return float64(48*width + 24) }

// --- Phase 3b: pre-sizing hints --------------------------------------

// hintForBudget clamps a cardinality estimate into a hash-table
// pre-sizing hint, bounded by the memory budget so a bad estimate
// cannot over-allocate.
func hintForBudget(rows float64, budget *MemBudget) int64 {
	if rows <= 0 || math.IsInf(rows, 0) || math.IsNaN(rows) {
		return 0
	}
	h := int64(rows)
	if h > hintCap {
		h = hintCap
	}
	if limit := budget.Limit(); limit > 0 && h > limit/64 {
		h = limit / 64
	}
	return h
}

func (o *optimizer) hintFor(rows float64) int64 { return hintForBudget(rows, o.env.budget) }

// exprIntLike reports whether a single-column hash key is expected to
// take the int64-keyed fast path. The hash tables split single-column
// keys into an int64 map (integer-like values) and a string map;
// pre-sizing always lands on the int64 map, so a key the statistics
// prove to be TEXT must not carry a hint (it would allocate a large map
// that never holds an entry). Unknown columns and computed expressions
// default to integer-like: the translated gate queries key on bitwise
// index math.
func (o *optimizer) exprIntLike(n logicalNode, e Expr) bool {
	switch t := e.(type) {
	case *ColumnRef:
		if cs, rows := o.colStatsFor(n, t.Table, t.Name); cs != nil && rows > 0 {
			return cs.intSeen || cs.nulls == rows
		}
		return true
	case *Literal:
		return t.Val.T != TypeText
	}
	return true
}

// choose walks the estimated tree setting the hash-table pre-sizing
// hints of every join and aggregation.
func (o *optimizer) choose(n logicalNode) {
	switch t := n.(type) {
	case *lAgg:
		t.hintable = len(t.groupBy) != 1 || o.exprIntLike(t.child, t.groupBy[0])
		if t.hintable {
			t.groupHint = o.hintFor(t.est.rows)
		}
	case *lJoin:
		t.hintable = len(t.rightKeys) != 1 || o.exprIntLike(t.right, t.rightKeys[0])
		if t.hintable {
			t.buildHint = o.hintFor(t.right.estimate().rows)
		}
	}
	for _, c := range lchildren(n) {
		o.choose(c)
	}
}
