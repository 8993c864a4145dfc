package sqlengine

import (
	"math"
	"sync/atomic"
)

// Rule-driven logical rewriting and cost-based physical planning.
//
// The optimizer transforms the logical IR in phases:
//
//  1. dead-CTE elimination and single-use CTE inlining
//  2. constant folding over every expression
//  3. conjunct splitting (AND trees become individual filter conjuncts)
//  4. predicate pushdown (through projections, aliases, strips, group
//     keys, and join sides, down into scans)
//  5. projection pruning (dead-column elimination into scans — with the
//     columnar store, pruned columns are never decoded)
//  6. cost estimation (table statistics from stats.go) and the physical
//     choices: hash-join build side, streaming vs grace strategy,
//     join-chain reordering, and hash-table pre-sizing hints
//
// Bit-neutrality contract. Simulated amplitudes must be bitwise
// identical with the optimizer on and off, so every rewrite is
// classified by whether it can perturb floating-point accumulation
// order. The engine's aggregation runs the morsel-parallel schedule at
// every worker count, merging per-morsel partial sums in morsel order;
// morsel boundaries are a pure function of the aggregation input's
// *base store*. Therefore:
//
//   - Always safe: constant folding (same evaluation code), conjunct
//     splitting, predicate pushdown and projection pruning (the set and
//     order of surviving rows per morsel is unchanged — filters commute
//     with the probe pipeline), pre-sizing hints, and the serial-vs-
//     parallel gather gate (per-morsel gather order equals serial
//     order).
//   - Order-sensitive: CTE inlining (changes the base store the
//     consumer's aggregation morselizes over), build-side flips and
//     join reordering (change row order). These apply only when no
//     ancestor aggregation uses an accumulation-order-sensitive
//     aggregate (SUM/TOTAL/AVG); COUNT/MIN/MAX and DISTINCT are
//     insensitive. The translated gate queries aggregate amplitudes
//     with SUM, so their per-stage plans keep the exact unoptimized
//     execution schedule by construction.
//   - Grace pre-choice applies only when the estimated build side
//     exceeds the whole memory budget, where the unoptimized plan would
//     overflow into the same grace join anyway.

// optimizer counters, exposed through OptimizerCounters() and the
// service /metrics endpoint. Package-level because a simulation service
// runs many short-lived engine instances.
var optCounters struct {
	plansOptimized atomic.Int64
	plansWithStats atomic.Int64
	cteInlined     atomic.Int64
	cteDead        atomic.Int64
	constFolded    atomic.Int64
	conjunctsSplit atomic.Int64
	pushdowns      atomic.Int64
	scansPruned    atomic.Int64
	buildFlips     atomic.Int64
	joinReorders   atomic.Int64
	gracePrechosen atomic.Int64
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
		"conjuncts_split":  optCounters.conjunctsSplit.Load(),
		"pushdowns":        optCounters.pushdowns.Load(),
		"scans_pruned":     optCounters.scansPruned.Load(),
		"build_flips":      optCounters.buildFlips.Load(),
		"join_reorders":    optCounters.joinReorders.Load(),
		"grace_prechosen":  optCounters.gracePrechosen.Load(),
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
	// flipFloor is the minimum estimated build-side size before a
	// build-side flip or join reorder is worth the plan perturbation.
	flipFloor = 4096
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
	// Propagate consumption sensitivity transitively: a CTE referenced
	// inside another CTE's plan inherits that plan's sensitive uses
	// (row-order changes propagate through every operator, so any path
	// from a sensitive consumer taints the whole upstream chain).
	// References always point at earlier definitions, so walking the
	// defs in reverse order visits every consumer before its producers.
	// (Inlining inside a materialized CTE starts from sensitive=false:
	// it cannot change the CTE's own output rows or order, only its
	// internal pipeline, which the local walk guards.)
	for i := len(defs) - 1; i >= 0; i-- {
		d := defs[i]
		if d.uses == 0 || d.inline {
			continue
		}
		d.plan = o.inlineCTEs(d.plan, false)
		if d.sensitiveUse {
			markCTERefsSensitive(d.plan)
		}
	}
	for _, d := range defs {
		if d.uses == 0 {
			optCounters.cteDead.Add(1)
		}
	}
	// Rewrite the plans of CTEs that stay materialized too.
	for _, d := range defs {
		if d.uses > 0 && !d.inline {
			d.plan = o.rewrite(d.plan)
		}
	}
	root = o.rewrite(root)
	// Cost + physical choices, innermost (materialized CTE) plans first
	// so references see their estimates. A CTE consumed by a float
	// aggregation keeps its materialized row order: order-changing
	// rewrites inside it are disabled via sensitiveUse.
	for _, d := range defs {
		if d.uses > 0 && !d.inline {
			o.estimateNode(d.plan)
			d.plan = o.reorderJoins(d.plan, d.sensitiveUse)
			d.plan = o.choose(d.plan, d.sensitiveUse)
		}
	}
	o.estimateNode(root)
	root = o.reorderJoins(root, false)
	root = o.choose(root, false)
	optCounters.plansOptimized.Add(1)
	if o.sawStats {
		optCounters.plansWithStats.Add(1)
	}
	return root
}

// rewrite runs the expression- and placement-level rules (phases 2-5).
func (o *optimizer) rewrite(root logicalNode) logicalNode {
	o.foldNode(root)
	root = o.splitFilters(root)
	for i := 0; i < 8; i++ {
		var changed bool
		root, changed = o.pushdown(root)
		if !changed {
			break
		}
	}
	o.prune(root, nil)
	return root
}

// --- Phase 1: CTE inlining -------------------------------------------

// sensitiveAggs reports whether an aggregation's accumulation depends on
// input order or morsel boundaries: SUM/TOTAL/AVG accumulate floats in
// order; COUNT/MIN/MAX are associative-commutative and DISTINCT
// (aggs == nil) preserves first-seen order regardless of boundaries.
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
		// The reference stays a scan over the materialized store: record
		// whether an order-sensitive aggregate consumes it, so the CTE's
		// own plan rejects order-changing rewrites.
		t.cte.sensitiveUse = t.cte.sensitiveUse || sensitive
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
	case *lPick:
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

// markCTERefsSensitive taints every CTE referenced (at any depth) from
// a plan whose output order a sensitive aggregate depends on.
func markCTERefsSensitive(n logicalNode) {
	if ref, ok := n.(*lCTERef); ok {
		ref.cte.sensitiveUse = true
		return
	}
	for _, c := range lchildren(n) {
		markCTERefsSensitive(c)
	}
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
	case *lScan:
		t.filters = foldExprs(t.filters)
	case *lFilter:
		t.conjuncts = foldExprs(t.conjuncts)
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

// --- Phase 3: conjunct splitting -------------------------------------

func (o *optimizer) splitFilters(n logicalNode) logicalNode {
	switch t := n.(type) {
	case *lFilter:
		t.child = o.splitFilters(t.child)
		var out []Expr
		for _, c := range t.conjuncts {
			parts := splitConjuncts(c)
			if len(parts) > 1 {
				optCounters.conjunctsSplit.Add(int64(len(parts) - 1))
			}
			out = append(out, parts...)
		}
		t.conjuncts = out
		// Merge stacked filters.
		if cf, ok := t.child.(*lFilter); ok {
			cf.conjuncts = append(cf.conjuncts, t.conjuncts...)
			return cf
		}
		return t
	case *lJoin:
		t.left = o.splitFilters(t.left)
		t.right = o.splitFilters(t.right)
		return t
	default:
		cs := lchildren(n)
		if len(cs) == 1 {
			setChild(n, o.splitFilters(cs[0]))
		}
		return n
	}
}

// setChild replaces a single-child node's child.
func setChild(n logicalNode, child logicalNode) {
	switch t := n.(type) {
	case *lFilter:
		t.child = child
	case *lProject:
		t.child = child
	case *lStrip:
		t.child = child
	case *lPick:
		t.child = child
	case *lAgg:
		t.child = child
	case *lSort:
		t.child = child
	case *lLimit:
		t.child = child
	case *lAlias:
		t.child = child
	}
}

// --- Phase 4: predicate pushdown -------------------------------------

// exprMapColumns deep-copies e, replacing every column reference via fn;
// ok=false aborts the mapping.
func exprMapColumns(e Expr, fn func(*ColumnRef) (Expr, bool)) (Expr, bool) {
	ok := true
	var rec func(Expr) Expr
	rec = func(x Expr) Expr {
		if !ok {
			return x
		}
		if cr, isCol := x.(*ColumnRef); isCol {
			repl, mok := fn(cr)
			if !mok {
				ok = false
				return x
			}
			return repl
		}
		return rebuildExpr(x, rec)
	}
	out := rec(e)
	return out, ok
}

// exprColumnCount counts column references in e.
func exprColumnCount(e Expr) int {
	n := 0
	walkExpr(e, func(x Expr) {
		if _, isCol := x.(*ColumnRef); isCol {
			n++
		}
	})
	return n
}

// exprTotal reports whether e can never raise an evaluation error on
// any input row: comparisons (total ordering over all value types),
// boolean connectives, NULL tests, IN, and BETWEEN over columns,
// literals, and parameters. Arithmetic, functions, and casts can error
// on mixed-type data (the engine is dynamically typed), so a conjunct
// containing them must not be moved below a row-eliminating operator —
// it would then be evaluated on rows the join or aggregation would
// have filtered out, turning a succeeding query into an error.
func exprTotal(e Expr) bool {
	switch t := e.(type) {
	case *ColumnRef, *Literal, *ParamRef:
		return true
	case *BinaryExpr:
		switch t.Op {
		case "=", "==", "!=", "<>", "<", "<=", ">", ">=", "AND", "OR", "LIKE":
			return exprTotal(t.L) && exprTotal(t.R)
		}
		return false
	case *UnaryExpr:
		return t.Op == "NOT" && exprTotal(t.X)
	case *IsNullExpr:
		return exprTotal(t.X)
	case *InExpr:
		if !exprTotal(t.X) {
			return false
		}
		for _, x := range t.List {
			if !exprTotal(x) {
				return false
			}
		}
		return true
	case *BetweenExpr:
		return exprTotal(t.X) && exprTotal(t.Lo) && exprTotal(t.Hi)
	}
	return false
}

// pushdown runs one pass of predicate pushdown over the tree, returning
// the (possibly replaced) node and whether anything moved.
func (o *optimizer) pushdown(n logicalNode) (logicalNode, bool) {
	changed := false
	switch t := n.(type) {
	case *lFilter:
		var child logicalNode = t.child
		var kept []Expr
		for _, c := range t.conjuncts {
			if nc, ok := o.tryPush(c, child); ok {
				child = nc
				changed = true
				optCounters.pushdowns.Add(1)
			} else {
				kept = append(kept, c)
			}
		}
		child, sub := o.pushdown(child)
		changed = changed || sub
		if len(kept) == 0 {
			return child, true
		}
		t.child = child
		t.conjuncts = kept
		return t, changed
	case *lJoin:
		var sub bool
		t.left, sub = o.pushdown(t.left)
		changed = changed || sub
		t.right, sub = o.pushdown(t.right)
		return t, changed || sub
	default:
		cs := lchildren(n)
		if len(cs) == 1 {
			nc, sub := o.pushdown(cs[0])
			setChild(n, nc)
			return n, sub
		}
		return n, false
	}
}

// tryPush attempts to move one conjunct below child, returning the new
// child and whether the push happened. The conjunct's rows-surviving set
// is unchanged by construction, which keeps the rewrite bit-neutral.
func (o *optimizer) tryPush(c Expr, child logicalNode) (logicalNode, bool) {
	if exprColumnCount(c) == 0 {
		// Constant predicates stay put: pushing them below a LEFT join
		// side would change null-extension semantics, and there is no
		// performance to gain.
		return child, false
	}
	switch t := child.(type) {
	case *lScan:
		if !exprResolvesAgainst(c, t.lschema()) {
			return child, false
		}
		t.filters = append(t.filters, c)
		return t, true
	case *lFilter:
		if !exprResolvesAgainst(c, t.lschema()) {
			return child, false
		}
		t.conjuncts = append(t.conjuncts, c)
		return t, true
	case *lAlias:
		cs := t.child.lschema()
		as := t.lschema()
		mapped, ok := exprMapColumns(c, func(cr *ColumnRef) (Expr, bool) {
			idx, err := as.resolveColumn(cr.Table, cr.Name)
			if err != nil {
				return nil, false
			}
			cc := cs[idx]
			// The mapped reference must resolve back to the same slot.
			if ri, rerr := cs.resolveColumn(cc.table, cc.name); rerr != nil || ri != idx {
				return nil, false
			}
			return &ColumnRef{Table: cc.table, Name: cc.name}, true
		})
		if !ok {
			return child, false
		}
		if nc, pushed := o.tryPush(mapped, t.child); pushed {
			t.child = nc
			return t, true
		}
		t.child = &lFilter{child: t.child, conjuncts: []Expr{mapped}, est: newNodeEst()}
		return t, true
	case *lStrip:
		if !exprResolvesAgainst(c, t.child.lschema()) {
			return child, false
		}
		if nc, pushed := o.tryPush(c, t.child); pushed {
			t.child = nc
			return t, true
		}
		t.child = &lFilter{child: t.child, conjuncts: []Expr{c}, est: newNodeEst()}
		return t, true
	case *lProject:
		cs := t.child.lschema()
		ps := t.cols
		mapped, ok := exprMapColumns(c, func(cr *ColumnRef) (Expr, bool) {
			idx, err := ps.resolveColumn(cr.Table, cr.Name)
			if err != nil {
				return nil, false
			}
			// Only substitute cheap projections: bare columns and
			// literals. Substituting computed expressions would evaluate
			// them twice.
			switch pe := t.exprs[idx].(type) {
			case *ColumnRef:
				if !exprResolvesAgainst(pe, cs) {
					return nil, false
				}
				return &ColumnRef{Table: pe.Table, Name: pe.Name}, true
			case *Literal:
				return pe, true
			}
			return nil, false
		})
		if !ok {
			return child, false
		}
		if nc, pushed := o.tryPush(mapped, t.child); pushed {
			t.child = nc
			return t, true
		}
		t.child = &lFilter{child: t.child, conjuncts: []Expr{mapped}, est: newNodeEst()}
		return t, true
	case *lAgg:
		// A conjunct over group-key outputs filters groups; it can
		// equivalently filter input rows before grouping — but it will
		// then be evaluated on every input row, so it must be total.
		if !exprTotal(c) {
			return child, false
		}
		gs := t.lschema()
		cs := t.child.lschema()
		mapped, ok := exprMapColumns(c, func(cr *ColumnRef) (Expr, bool) {
			idx, err := gs.resolveColumn(cr.Table, cr.Name)
			if err != nil || idx >= len(t.groupBy) {
				return nil, false
			}
			g := t.groupBy[idx]
			if !exprResolvesAgainst(g, cs) {
				return nil, false
			}
			return g, true
		})
		if !ok {
			return child, false
		}
		if nc, pushed := o.tryPush(mapped, t.child); pushed {
			t.child = nc
			return t, true
		}
		t.child = &lFilter{child: t.child, conjuncts: []Expr{mapped}, est: newNodeEst()}
		return t, true
	case *lJoin:
		// Below the join the conjunct sees rows the join would have
		// eliminated; only error-free predicate shapes may move.
		if !exprTotal(c) {
			return child, false
		}
		ls, rs := t.left.lschema(), t.right.lschema()
		onLeft := exprResolvesAgainst(c, ls)
		onRight := exprResolvesAgainst(c, rs)
		if onLeft && onRight {
			return child, false // ambiguous; leave above
		}
		if onLeft {
			if nc, pushed := o.tryPush(c, t.left); pushed {
				t.left = nc
			} else {
				t.left = &lFilter{child: t.left, conjuncts: []Expr{c}, est: newNodeEst()}
			}
			return t, true
		}
		// Pushing to the right side of a LEFT join would change
		// null-extension semantics.
		if onRight && t.joinType != "LEFT" {
			if nc, pushed := o.tryPush(c, t.right); pushed {
				t.right = nc
			} else {
				t.right = &lFilter{child: t.right, conjuncts: []Expr{c}, est: newNodeEst()}
			}
			return t, true
		}
		return child, false
	}
	return child, false
}

// --- Phase 5: projection pruning -------------------------------------

// markNeeds sets need[i] for every column of schema that e references;
// unresolvable references conservatively mark everything.
func markNeeds(e Expr, schema planSchema, need []bool) {
	if e == nil {
		return
	}
	walkExpr(e, func(x Expr) {
		cr, isCol := x.(*ColumnRef)
		if !isCol {
			return
		}
		idx, err := schema.resolveColumn(cr.Table, cr.Name)
		if err != nil {
			for i := range need {
				need[i] = true
			}
			return
		}
		need[idx] = true
	})
}

func allNeeded(w int) []bool {
	need := make([]bool, w)
	for i := range need {
		need[i] = true
	}
	return need
}

// prune walks top-down with the set of output columns the parent needs
// (nil = all) and records the required column subset on every scan.
func (o *optimizer) prune(n logicalNode, need []bool) {
	if need == nil {
		need = allNeeded(len(n.lschema()))
	}
	switch t := n.(type) {
	case *lScan:
		// Scan filters run against the full-width schema before pruning
		// is applied at lowering, so their columns must stay.
		cn := append([]bool(nil), need...)
		for _, f := range t.filters {
			markNeeds(f, t.cols, cn)
		}
		var keep []int
		for i, nd := range cn {
			if nd {
				keep = append(keep, i)
			}
		}
		if len(keep) == 0 {
			keep = []int{0} // COUNT(*)-style: retain one column
		}
		if len(keep) < len(t.cols) {
			t.keep = keep
			optCounters.scansPruned.Add(1)
		}
	case *lFilter:
		cs := t.child.lschema()
		cn := append([]bool(nil), need...)
		for _, c := range t.conjuncts {
			markNeeds(c, cs, cn)
		}
		o.prune(t.child, cn)
	case *lProject:
		cs := t.child.lschema()
		cn := make([]bool, len(cs))
		// The projection evaluates every expression regardless of which
		// outputs the parent needs, so all referenced columns stay.
		for _, e := range t.exprs {
			markNeeds(e, cs, cn)
		}
		o.prune(t.child, cn)
	case *lStrip:
		cs := t.child.lschema()
		cn := make([]bool, len(cs))
		copy(cn, need)
		for i := t.keep; i < len(cn); i++ {
			cn[i] = true // hidden sort keys
		}
		o.prune(t.child, cn)
	case *lPick:
		cn := make([]bool, len(t.child.lschema()))
		for i, k := range t.idxs {
			if need[i] {
				cn[k] = true
			}
		}
		o.prune(t.child, cn)
	case *lJoin:
		ls, rs := t.left.lschema(), t.right.lschema()
		lneed := make([]bool, len(ls))
		rneed := make([]bool, len(rs))
		copy(lneed, need[:min(len(ls), len(need))])
		if len(need) > len(ls) {
			copy(rneed, need[len(ls):])
		}
		for _, k := range t.leftKeys {
			markNeeds(k, ls, lneed)
		}
		for _, k := range t.rightKeys {
			markNeeds(k, rs, rneed)
		}
		if t.residual != nil {
			comb := append(append([]bool(nil), lneed...), rneed...)
			markNeeds(t.residual, t.lschema(), comb)
			copy(lneed, comb[:len(ls)])
			copy(rneed, comb[len(ls):])
		}
		o.prune(t.left, lneed)
		o.prune(t.right, rneed)
	case *lAgg:
		cs := t.child.lschema()
		cn := make([]bool, len(cs))
		for _, g := range t.groupBy {
			markNeeds(g, cs, cn)
		}
		for _, a := range t.aggs {
			markNeeds(a.Arg, cs, cn)
		}
		o.prune(t.child, cn)
	case *lSort:
		cs := t.child.lschema()
		cn := append([]bool(nil), need...)
		for _, k := range t.keys {
			markNeeds(k.expr, cs, cn)
		}
		o.prune(t.child, cn)
	case *lLimit:
		o.prune(t.child, append([]bool(nil), need...))
	case *lAlias:
		o.prune(t.child, append([]bool(nil), need...))
	case *lCTERef:
		// The CTE plan is shared; prune it with full width (its own
		// rewrite pass prunes inside).
	}
}

// --- Phase 6: cost estimation ----------------------------------------

// colStatsFor resolves the statistics of a (table, column) reference by
// walking down to the base scan that produces it.
func (o *optimizer) colStatsFor(n logicalNode, table, name string) (*colStats, int64) {
	switch t := n.(type) {
	case *lScan:
		idx, err := t.lschema().resolveColumn(table, name)
		if err != nil {
			return nil, 0
		}
		if t.keep != nil {
			idx = t.keep[idx]
		}
		ts := storeStats(t.meta.store)
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
	case *lPick:
		ps := t.lschema()
		idx, err := ps.resolveColumn(table, name)
		if err != nil {
			return nil, 0
		}
		cc := t.child.lschema()[t.idxs[idx]]
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
		if storeStats(t.meta.store) != nil {
			o.sawStats = true
		}
		rows = base
		for _, f := range t.filters {
			rows *= o.selectivity(t, f)
		}
		cost = base * (1 + 0.1*float64(len(t.filters)))
	case *lCTERef:
		rows = o.estimateNode(t.cte.plan)
		cost = rows
	case *lFilter:
		rows = o.estimateNode(t.child)
		for _, c := range t.conjuncts {
			rows *= o.selectivity(t.child, c)
		}
		cost = t.child.estimate().cost + o.estimateNode(t.child)*0.1*float64(len(t.conjuncts))
	case *lProject:
		rows = o.estimateNode(t.child)
		cost = t.child.estimate().cost + rows*0.1*float64(len(t.exprs))
	case *lStrip:
		rows = o.estimateNode(t.child)
		cost = t.child.estimate().cost
	case *lPick:
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

// --- Phase 6b: physical choices --------------------------------------

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

// choose walks the estimated tree making the cost-based physical
// decisions. sensitive tracks order-sensitive aggregation ancestors
// (see the bit-neutrality contract).
func (o *optimizer) choose(n logicalNode, sensitive bool) logicalNode {
	switch t := n.(type) {
	case *lAgg:
		t.hintable = len(t.groupBy) != 1 || o.exprIntLike(t.child, t.groupBy[0])
		if t.hintable {
			t.groupHint = o.hintFor(t.est.rows)
		}
		t.child = o.choose(t.child, sensitive || sensitiveAggs(t.aggs))
		return t
	case *lJoin:
		t.left = o.choose(t.left, sensitive)
		t.right = o.choose(t.right, sensitive)
		return o.chooseJoin(t, sensitive)
	default:
		cs := lchildren(n)
		if len(cs) == 1 {
			setChild(n, o.choose(cs[0], sensitive))
		}
		return n
	}
}

// reorderJoins rewrites left-deep chains of INNER equi-joins into the
// greedy minimum-intermediate-cardinality order. Runs after estimation
// and before the per-join choices; the same order-sensitivity guard as
// build-side flips applies (reordering changes output row order).
func (o *optimizer) reorderJoins(n logicalNode, sensitive bool) logicalNode {
	switch t := n.(type) {
	case *lAgg:
		t.child = o.reorderJoins(t.child, sensitive || sensitiveAggs(t.aggs))
		return t
	case *lJoin:
		return o.reorderChain(t, sensitive)
	default:
		cs := lchildren(n)
		if len(cs) == 1 {
			setChild(n, o.reorderJoins(cs[0], sensitive))
		}
		return n
	}
}

// chainLink is one join of a left-deep INNER chain.
type chainLink struct {
	right    logicalNode
	lks, rks []Expr
	residual Expr
}

// reorderChain collects the left-deep INNER equi-join chain rooted at t,
// recurses into its inputs, and greedily reorders the join sequence to
// minimize estimated intermediate cardinality, wrapping the result in a
// zero-copy column reorder that restores the original output layout.
func (o *optimizer) reorderChain(t *lJoin, sensitive bool) logicalNode {
	var links []chainLink
	cur := t
	var base logicalNode
	for {
		if cur.joinType != "INNER" || len(cur.leftKeys) == 0 {
			base = cur
			break
		}
		links = append([]chainLink{{right: cur.right, lks: cur.leftKeys, rks: cur.rightKeys, residual: cur.residual}}, links...)
		lj, ok := cur.left.(*lJoin)
		if !ok {
			base = cur.left
			break
		}
		cur = lj
	}
	if bj, ok := base.(*lJoin); ok && bj == cur && len(links) > 0 {
		// The chain bottomed out at a non-INNER join: recurse into it as
		// an opaque base.
		base = o.reorderChain(bj, sensitive)
	} else if len(links) == 0 {
		// t itself does not qualify; recurse into both sides and keep.
		t.left = o.reorderJoins(t.left, sensitive)
		t.right = o.reorderJoins(t.right, sensitive)
		return t
	} else {
		base = o.reorderJoins(base, sensitive)
	}
	for i := range links {
		links[i].right = o.reorderJoins(links[i].right, sensitive)
	}

	rebuildOriginal := func() logicalNode {
		node := base
		for _, l := range links {
			node = &lJoin{left: node, right: l.right, joinType: "INNER",
				leftKeys: l.lks, rightKeys: l.rks, residual: l.residual, est: newNodeEst()}
			o.estimateNode(node)
		}
		return node
	}

	big := false
	for _, l := range links {
		if l.right.estimate().rows > flipFloor {
			big = true
		}
	}
	if len(links) < 2 || sensitive || !big {
		return rebuildOriginal()
	}

	// Greedy order: repeatedly join the remaining input whose join with
	// the accumulated left side has the smallest estimated output.
	acc := base
	used := make([]bool, len(links))
	var order []int
	var newInter, oldInter float64
	for step := 0; step < len(links); step++ {
		bestIdx, bestRows := -1, math.Inf(1)
		var bestNode *lJoin
		for i, l := range links {
			if used[i] {
				continue
			}
			accSchema := acc.lschema()
			ok := true
			for _, k := range l.lks {
				if !exprResolvesAgainst(k, accSchema) {
					ok = false
					break
				}
			}
			if ok && l.residual != nil {
				comb := append(append(planSchema{}, accSchema...), l.right.lschema()...)
				ok = exprResolvesAgainst(l.residual, comb)
			}
			if !ok {
				continue
			}
			cand := &lJoin{left: acc, right: l.right, joinType: "INNER",
				leftKeys: l.lks, rightKeys: l.rks, residual: l.residual, est: newNodeEst()}
			rows := o.estimateNode(cand)
			if rows < bestRows {
				bestIdx, bestRows, bestNode = i, rows, cand
			}
		}
		if bestIdx < 0 {
			return rebuildOriginal() // no valid order; keep as written
		}
		used[bestIdx] = true
		order = append(order, bestIdx)
		acc = bestNode
		if step < len(links)-1 {
			newInter += bestRows
		}
	}
	identity := true
	for i, idx := range order {
		if idx != i {
			identity = false
		}
	}
	if identity {
		return rebuildOriginal()
	}
	// Estimate the original chain's intermediates for comparison.
	origAcc := base
	for i, l := range links {
		cand := &lJoin{left: origAcc, right: l.right, joinType: "INNER",
			leftKeys: l.lks, rightKeys: l.rks, residual: l.residual, est: newNodeEst()}
		rows := o.estimateNode(cand)
		origAcc = cand
		if i < len(links)-1 {
			oldInter += rows
		}
	}
	if newInter >= oldInter*0.9 {
		return rebuildOriginal() // not clearly better; keep the written order
	}

	// Restore the original column layout: base columns first, then each
	// join input's columns in written order.
	widths := make([]int, len(links))
	for i, l := range links {
		widths[i] = len(l.right.lschema())
	}
	baseWidth := len(base.lschema())
	newOffset := make([]int, len(links))
	off := baseWidth
	for _, idx := range order {
		newOffset[idx] = off
		off += widths[idx]
	}
	idxs := make([]int, 0, off)
	for i := 0; i < baseWidth; i++ {
		idxs = append(idxs, i)
	}
	for i := range links {
		for j := 0; j < widths[i]; j++ {
			idxs = append(idxs, newOffset[i]+j)
		}
	}
	optCounters.joinReorders.Add(1)
	pick := &lPick{child: acc, idxs: idxs, est: &nodeEst{rows: acc.estimate().rows, cost: acc.estimate().cost}}
	return pick
}

// chooseJoin applies build-side flipping and the streaming-vs-grace
// strategy choice to one join.
func (o *optimizer) chooseJoin(t *lJoin, sensitive bool) logicalNode {
	lr, rr := t.left.estimate().rows, t.right.estimate().rows
	var result logicalNode = t

	// Build-side flip: the executor builds the hash table from the RIGHT
	// input. When the left side is estimated much smaller, swap so the
	// small side builds. Only for INNER equi-joins, only above the size
	// floor, and never under an order-sensitive aggregate (the probe
	// order — and thus output order — changes).
	if t.joinType == "INNER" && len(t.leftKeys) > 0 && !t.flipped && !sensitive &&
		lr >= 0 && rr > flipFloor && lr*2 < rr {
		lw, rw := len(t.left.lschema()), len(t.right.lschema())
		flipped := &lJoin{
			left: t.right, right: t.left, joinType: t.joinType,
			leftKeys: t.rightKeys, rightKeys: t.leftKeys,
			residual: t.residual, flipped: true,
			est: &nodeEst{rows: t.est.rows, cost: t.est.cost},
		}
		idxs := make([]int, 0, lw+rw)
		for i := 0; i < lw; i++ {
			idxs = append(idxs, rw+i)
		}
		for i := 0; i < rw; i++ {
			idxs = append(idxs, i)
		}
		optCounters.buildFlips.Add(1)
		t = flipped
		result = &lPick{child: flipped, idxs: idxs, est: &nodeEst{rows: flipped.est.rows, cost: flipped.est.cost}}
	}

	// Streaming vs grace: when the estimated build side cannot fit the
	// whole budget, skip the doomed in-memory build. (The unoptimized
	// plan would overflow into the same grace join after wasted work.)
	if limit := o.env.budget.Limit(); limit > 0 && o.env.spillEnabled && len(t.leftKeys) > 0 {
		buildBytes := t.right.estimate().rows * estRowBytes(len(t.right.lschema())+len(t.rightKeys))
		if buildBytes > float64(limit) {
			t.strategy = joinGrace
			optCounters.gracePrechosen.Add(1)
		}
	}
	t.hintable = len(t.rightKeys) != 1 || o.exprIntLike(t.right, t.rightKeys[0])
	if t.hintable {
		t.buildHint = o.hintFor(t.right.estimate().rows)
	}
	return result
}
