package sqlengine

import (
	"fmt"
	"strconv"
	"strings"
)

// planner turns an optimized logical plan into the physical planNode
// tree and then runs it. Lowering is pure: it reads no data and
// executes nothing, and a materialized CTE becomes a materializeNode in
// the tree, so EXPLAIN prints, chain fusion walks and the executor runs
// one and the same tree. A statement executes in four steps:
//
//  1. lower (buildPlan);
//  2. materialize the tree's CTEs top-down, on demand (materializeAll):
//     the topmost unmaterialized node of a fusable run of gate-stage
//     CTEs claims the whole run as one chain kernel (kernel_chain.go).
//     With the optimizer off every definition runs, in definition
//     order, dead ones included (the legacy eager planner);
//  3. bind every row-count-dependent decision from the now-exact store
//     sizes (bind);
//  4. open the root.
//
// With the optimizer on, a CTE the optimizer marked inline lowers to
// its subplan itself, and a dead CTE is never lowered.
type planner struct {
	ctx     *execCtx
	db      *DB
	cleanup []tableStore // temp stores to release when the statement ends
	// results holds each definition's store while lowering, shared by
	// all of its references so a CTE read twice still materializes once.
	results map[*cteDef]*cteResult
	// eager lists every definition in definition order (optimizer off).
	eager []*materializeNode
	// sampleEvery, when positive, instruments each CTE subplan right
	// before it runs (EXPLAIN ANALYZE, traced statements), so a stage a
	// chain kernel absorbed carries no operator counters.
	sampleEvery int
	// chainCounted caps chain-fusion fallback accounting at one decline
	// per statement (the materialization recursion would otherwise
	// re-count every suffix of the same chain).
	chainCounted bool
}

func (p *planner) release() {
	for _, s := range p.cleanup {
		s.Release()
	}
	p.cleanup = nil
}

// buildPlan parses nothing and executes nothing (step 1): it lowers sel
// through the logical IR, optionally the optimizer, and the physical
// planner. The returned planner runs the plan (execute) and owns the
// CTE stores that creates, so it must be released after execution.
func (db *DB) buildPlan(ctx *execCtx, sel *SelectStmt) (planNode, []string, *planner, error) {
	b := &logicalBuilder{db: db}
	root, names, err := b.buildSelect(sel, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	if db.env.optimizer {
		root = optimizeLogical(root, b.defs, db.env)
	}
	p := &planner{ctx: ctx, db: db}
	if !db.env.optimizer {
		for _, d := range b.defs {
			m, err := p.cteNode(d)
			if err != nil {
				return nil, nil, nil, err
			}
			p.eager = append(p.eager, m)
		}
	}
	node, err := p.lower(root)
	if err != nil {
		return nil, nil, nil, err
	}
	// The physical tree holds nothing of the logical plan: dropping the
	// last reference keeps every garbage collection during execution
	// from marking it again.
	p.results = nil
	return node, names, p, nil
}

// execute runs steps 2-4 for the plan rooted at node and returns its
// result store.
func (p *planner) execute(node planNode, collect bool) (tableStore, error) {
	for _, m := range p.eager {
		if err := p.materialize(m); err != nil {
			return nil, err
		}
	}
	if err := p.materializeAll(node); err != nil {
		return nil, err
	}
	p.bind(node)
	return materializePlanCollect(p.ctx, node, collect)
}

// materializeAll materializes every CTE node reads, topmost first.
func (p *planner) materializeAll(node planNode) error {
	if m, ok := node.(*materializeNode); ok {
		return p.materialize(m)
	}
	for _, c := range planChildren(node) {
		if err := p.materializeAll(c); err != nil {
			return err
		}
	}
	return nil
}

// materialize runs one CTE into its definition's shared store (once).
// When m tops a fusable run of gate-stage CTEs, the whole run executes
// as one fused kernel pass instead (kernel_chain.go). A traced
// statement records the run as a "cte:<name>" span holding the work
// beneath it: the fused chain, the CTEs it read, its operators.
func (p *planner) materialize(m *materializeNode) error {
	if m.res.store != nil {
		return nil
	}
	sp := p.ctx.span
	if outer := sp; outer != nil {
		sp = outer.Child("cte:" + m.name)
		p.ctx.span = sp
		defer func() {
			p.ctx.span = outer
			sp.End()
		}()
	}
	if done, err := p.fuseCTEChain(m); done || err != nil {
		return err
	}
	if err := p.materializeAll(m.child); err != nil {
		return err
	}
	if p.sampleEvery > 0 {
		m.child = instrumentPlan(m.child, p.sampleEvery)
	}
	p.bind(m.child)
	store, err := materializePlan(p.ctx, m.child)
	if err != nil {
		return err
	}
	if sp != nil {
		attachPlanSpans(sp, m.child)
	}
	p.cleanup = append(p.cleanup, store)
	m.res.store = store
	return nil
}

// cteNode lowers one materialized CTE reference: the definition's
// subplan under a materializeNode that shares the definition's store.
func (p *planner) cteNode(d *cteDef) (*materializeNode, error) {
	child, err := p.lower(d.plan)
	if err != nil {
		return nil, err
	}
	res := p.results[d]
	if res == nil {
		if p.results == nil {
			p.results = map[*cteDef]*cteResult{}
		}
		res = &cteResult{}
		p.results[d] = res
	}
	return &materializeNode{name: d.name, uses: d.uses, child: child, res: res}, nil
}

// lower converts one logical subtree to physical operators, carrying
// the planning-time hints; bind refreshes them before execution.
func (p *planner) lower(n logicalNode) (planNode, error) {
	switch t := n.(type) {
	case *lOneRow:
		return &oneRowNode{}, nil

	case *lScan:
		return &storeScanNode{store: t.meta.store, cols: t.cols, est: t.est}, nil

	case *lCTERef:
		var child planNode
		var err error
		if t.cte.inline {
			child, err = p.lower(t.cte.plan)
		} else {
			child, err = p.cteNode(t.cte)
		}
		if err != nil {
			return nil, err
		}
		return newAliasNode(child, t.qual, t.cte.cols, t.est), nil

	case *lFilter:
		child, err := p.lower(t.child)
		if err != nil {
			return nil, err
		}
		return &filterNode{child: child, pred: t.pred, est: t.est}, nil

	case *lProject:
		child, err := p.lower(t.child)
		if err != nil {
			return nil, err
		}
		return &projectNode{child: child, exprs: t.exprs, cols: t.cols, est: t.est}, nil

	case *lStrip:
		child, err := p.lower(t.child)
		if err != nil {
			return nil, err
		}
		return &sliceProjectNode{child: child, keep: t.keep, est: t.est}, nil

	case *lJoin:
		left, err := p.lower(t.left)
		if err != nil {
			return nil, err
		}
		right, err := p.lower(t.right)
		if err != nil {
			return nil, err
		}
		return &joinNode{
			left: left, right: right, joinType: t.joinType,
			leftKeys: t.leftKeys, rightKeys: t.rightKeys, residual: t.residual,
			buildHint: t.buildHint, hintable: t.hintable,
			est: t.est,
		}, nil

	case *lAgg:
		child, err := p.lower(t.child)
		if err != nil {
			return nil, err
		}
		return &aggNode{child: child, groupBy: t.groupBy, aggs: t.aggs, groupHint: t.groupHint, hintable: t.hintable, est: t.est, cols: t.lschema()}, nil

	case *lSort:
		child, err := p.lower(t.child)
		if err != nil {
			return nil, err
		}
		return &sortNode{child: child, keys: t.keys, est: t.est}, nil

	case *lLimit:
		child, err := p.lower(t.child)
		if err != nil {
			return nil, err
		}
		return &limitNode{child: child, limit: t.limit, offset: t.offset, est: t.est}, nil

	case *lAlias:
		child, err := p.lower(t.child)
		if err != nil {
			return nil, err
		}
		return newAliasNode(child, t.table, t.names, t.est), nil
	}
	return nil, fmt.Errorf("sqlengine: internal: cannot lower %T", n)
}

// scaleEst refreshes a node's planning-time estimate with the
// actual-informed row count of its input: planned output / planned
// input gives the node's selectivity (or fan-out) ratio, which is then
// applied to the refreshed input cardinality. Returns -1 when either
// side is unknown (optimizer off).
func scaleEst(est *nodeEst, plannedIn, actualIn float64) float64 {
	if est == nil || est.rows < 0 || actualIn < 0 {
		return -1
	}
	if plannedIn <= 0 {
		return est.rows
	}
	return est.rows / plannedIn * actualIn
}

// plannedRows is a node's current row estimate (-1 unknown).
func plannedRows(n planNode) float64 {
	if est := planEstimateOf(n); est != nil {
		return est.rows
	}
	return -1
}

// refresh records a refreshed row count on est (when known).
func refresh(est *nodeEst, rows float64) float64 {
	if rows >= 0 {
		est.rows = rows
	}
	return rows
}

// bind is step 3: it re-derives every node's row estimate bottom-up
// from its inputs' current sizes and re-binds the decisions that depend
// on them — hash-table pre-sizing and the grace pre-choice here, the
// output-store hint and the parallel-gather gate when the node opens.
// A materialized CTE reports its store's exact size, so the hints use
// real sizes instead of the chain-compounded planning estimates, which
// decay badly across long translated gate pipelines; an unmaterialized
// one (EXPLAIN) reports its subplan's estimate. Each node's planned
// input is read before its child is refreshed. Returns the node's
// rows (-1 unknown).
func (p *planner) bind(node planNode) float64 {
	budget := p.db.env.budget
	switch n := node.(type) {
	case *statNode:
		return p.bind(n.child)

	case *oneRowNode:
		return 1

	case *storeScanNode:
		return plannedRows(n)

	case *filterNode:
		plannedIn := plannedRows(n.child)
		return refresh(n.est, scaleEst(n.est, plannedIn, p.bind(n.child)))

	case *projectNode:
		return refresh(n.est, p.bind(n.child))

	case *sliceProjectNode:
		return refresh(n.est, p.bind(n.child))

	case *sortNode:
		return refresh(n.est, p.bind(n.child))

	case *aliasNode:
		m, isCTE := unwrapStat(n.child).(*materializeNode)
		switch {
		case !isCTE:
			return refresh(n.est, p.bind(n.child))
		case m.res.store == nil:
			return p.bind(m.child)
		case n.est.rows < 0:
			return -1
		}
		n.est.rows = float64(m.res.store.Len()) // exact
		return n.est.rows

	case *joinNode:
		plannedL, plannedR := plannedRows(n.left), plannedRows(n.right)
		lr, rr := p.bind(n.left), p.bind(n.right)
		rows := float64(-1)
		if n.est.rows >= 0 && lr >= 0 && rr >= 0 {
			rows = n.est.rows
			if plannedL > 0 {
				rows = rows / plannedL * lr
			}
			if plannedR > 0 {
				rows = rows / plannedR * rr
			}
			n.est.rows = rows
		}
		if rr >= 0 {
			if n.hintable {
				n.buildHint = hintForBudget(rr, budget)
			}
			if len(n.leftKeys) > 0 && p.db.env.spillEnabled {
				if limit := budget.Limit(); limit > 0 {
					if rr*estRowBytes(len(n.right.schema())+len(n.rightKeys)) > float64(limit) {
						n.strategy = joinGrace
					} else if n.strategy == joinGrace {
						n.strategy = joinAuto
					}
				}
			}
		}
		return rows

	case *aggNode:
		plannedIn := plannedRows(n.child)
		inRows := p.bind(n.child)
		rows := scaleEst(n.est, plannedIn, inRows)
		if rows >= 0 {
			if inRows >= 0 && rows > inRows {
				rows = inRows
			}
			if rows < 1 {
				rows = 1
			}
			n.est.rows = rows
			if n.hintable {
				n.groupHint = hintForBudget(rows, budget)
			}
		}
		return rows

	case *limitNode:
		rows := p.bind(n.child)
		if rows >= 0 {
			if lim, ok := litValue(n.limit); ok && lim.T == TypeInt && float64(lim.I) < rows {
				rows = float64(lim.I)
			}
			n.est.rows = rows
		}
		return rows
	}
	return -1
}

// aliasNode re-qualifies (and optionally renames) its child's columns.
type aliasNode struct {
	child planNode
	table string
	est   *nodeEst
	cols  planSchema // computed once by newAliasNode
}

// newAliasNode builds the alias and its schema, which the planner and
// the kernel-cache key read many times per statement. names is optional
// and must match the child's width when set.
func newAliasNode(child planNode, table string, names []string, est *nodeEst) *aliasNode {
	cs := child.schema()
	cols := make(planSchema, len(cs))
	for i, c := range cs {
		name := c.name
		if names != nil {
			name = strings.ToLower(names[i])
		}
		cols[i] = planCol{table: strings.ToLower(table), name: name}
	}
	return &aliasNode{child: child, table: table, est: est, cols: cols}
}

func (n *aliasNode) schema() planSchema { return n.cols }

func (n *aliasNode) open(ctx *execCtx) (batchIter, error) { return n.child.open(ctx) }

// cteResult is the store one CTE definition materializes into, shared
// by every materializeNode that references the definition.
type cteResult struct {
	store tableStore
}

// materializeNode is a reference to a materialized CTE. Execution runs
// child — the definition's physical subplan — once into the store
// shared by all of the definition's references (planner.materialize),
// and the node then scans that store, serially or by morsels.
type materializeNode struct {
	name  string
	uses  int // the definition's reference count
	child planNode
	res   *cteResult
}

func (n *materializeNode) schema() planSchema { return n.child.schema() }

// scan is the store scan behind the node, nil until it is materialized.
func (n *materializeNode) scan() *storeScanNode {
	if n.res.store == nil {
		return nil
	}
	return &storeScanNode{store: n.res.store, cols: n.schema()}
}

func (n *materializeNode) open(ctx *execCtx) (batchIter, error) {
	sc := n.scan()
	if sc == nil {
		return nil, fmt.Errorf("sqlengine: internal: CTE %s opened before it was materialized", n.name)
	}
	return sc.open(ctx)
}

func (n *materializeNode) openParallel(ctx *execCtx, workers int) ([]morselStream, bool, error) {
	sc := n.scan()
	if sc == nil {
		return nil, false, nil
	}
	return sc.openParallel(ctx, workers)
}

// scanOf returns the store scan a kernel binds for one join input: a
// base-table scan, or the scan of a materialized CTE reference (with
// the reference's schema); nil otherwise.
func scanOf(n planNode) *storeScanNode {
	if s, ok := unwrapStat(n).(*storeScanNode); ok {
		return s
	}
	if m := cteOf(n); m != nil {
		if s := m.scan(); s != nil {
			a := unwrapStat(n).(*aliasNode)
			s.cols, s.est = a.schema(), a.est
			return s
		}
	}
	return nil
}

// cteOf returns the materializeNode behind a CTE reference (an alias
// over the node), nil when n is something else.
func cteOf(n planNode) *materializeNode {
	a, ok := unwrapStat(n).(*aliasNode)
	if !ok {
		return nil
	}
	m, _ := unwrapStat(a.child).(*materializeNode)
	return m
}

// outputName picks the user-visible column name for a select item.
func outputName(item SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	if cr, ok := item.Expr.(*ColumnRef); ok {
		return cr.Name
	}
	return item.Expr.Deparse()
}

// splitConjuncts flattens an AND tree.
func splitConjuncts(e Expr) []Expr {
	if b, ok := e.(*BinaryExpr); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// exprResolvesAgainst reports whether every column in e resolves within
// the schema.
func exprResolvesAgainst(e Expr, schema planSchema) bool {
	ok := true
	walkExpr(e, func(x Expr) {
		if cr, isCol := x.(*ColumnRef); isCol {
			if _, err := schema.resolveColumn(cr.Table, cr.Name); err != nil {
				ok = false
			}
		}
	})
	return ok
}

// extractEquiKeys splits an ON clause into hash-join key pairs and a
// residual predicate.
func extractEquiKeys(on Expr, left, right planSchema) (lks, rks []Expr, residual Expr) {
	var rest []Expr
	for _, c := range splitConjuncts(on) {
		if b, ok := c.(*BinaryExpr); ok && (b.Op == "=" || b.Op == "==") {
			switch {
			case exprResolvesAgainst(b.L, left) && exprResolvesAgainst(b.R, right):
				lks = append(lks, b.L)
				rks = append(rks, b.R)
				continue
			case exprResolvesAgainst(b.L, right) && exprResolvesAgainst(b.R, left):
				lks = append(lks, b.R)
				rks = append(rks, b.L)
				continue
			}
		}
		rest = append(rest, c)
	}
	for _, c := range rest {
		if residual == nil {
			residual = c
		} else {
			residual = &BinaryExpr{Op: "AND", L: residual, R: c}
		}
	}
	return lks, rks, residual
}

// aggRewriter replaces group-by expressions and aggregate calls in a
// SELECT/HAVING/ORDER BY expression with references to the aggNode's
// synthetic output columns.
type aggRewriter struct {
	groupBy []Expr
	schema  planSchema
	aggs    []aggCall
	// aggExprs holds the call behind each entry of aggs, so a repeated
	// aggregate reuses its column.
	aggExprs []Expr
}

func newAggRewriter(groupBy []Expr, schema planSchema) (*aggRewriter, error) {
	for _, g := range groupBy {
		if exprReferencesAggregate(g) {
			return nil, fmt.Errorf("sqlengine: aggregates are not allowed in GROUP BY")
		}
	}
	return &aggRewriter{groupBy: groupBy, schema: schema}, nil
}

// rewrite returns a copy of e with grouped expressions and aggregates
// replaced by #grp/#agg references.
func (rw *aggRewriter) rewrite(e Expr) Expr {
	for i, g := range rw.groupBy {
		if sameExpr(e, g, rw.schema) {
			return &ColumnRef{Table: "#grp", Name: "g" + strconv.Itoa(i)}
		}
	}
	if fc, ok := e.(*FuncCall); ok && isAggregateName(fc.Name) {
		var arg Expr
		if !fc.Star {
			if len(fc.Args) != 1 {
				// Compiled later with a clear error; keep as-is.
				return e
			}
			arg = fc.Args[0]
		}
		for i, prev := range rw.aggExprs {
			if sameExpr(e, prev, rw.schema) {
				return &ColumnRef{Table: "#agg", Name: "a" + strconv.Itoa(i)}
			}
		}
		rw.aggs = append(rw.aggs, aggCall{Name: fc.Name, Distinct: fc.Distinct, Arg: arg})
		rw.aggExprs = append(rw.aggExprs, e)
		return &ColumnRef{Table: "#agg", Name: "a" + strconv.Itoa(len(rw.aggs)-1)}
	}
	return rebuildExpr(e, rw.rewrite)
}

// sameExpr reports whether a and b are the same expression over schema
// — equal appendCanonicalExpr renderings — without rendering either, so
// comparing a subtree costs no more than walking it: column references
// match when they resolve to the same slot (or, unresolved, are spelled
// alike) and literals when they print alike.
func sameExpr(a, b Expr, schema planSchema) bool {
	switch x := a.(type) {
	case *ColumnRef:
		y, ok := b.(*ColumnRef)
		if !ok {
			return false
		}
		if strings.EqualFold(x.Table, y.Table) && strings.EqualFold(x.Name, y.Name) {
			return true
		}
		ix, errx := schema.resolveColumn(x.Table, x.Name)
		iy, erry := schema.resolveColumn(y.Table, y.Name)
		return errx == nil && erry == nil && ix == iy
	case *Literal:
		y, ok := b.(*Literal)
		return ok && (x.Val == y.Val || x.Deparse() == y.Deparse())
	case *ParamRef:
		y, ok := b.(*ParamRef)
		return ok && x.Index == y.Index
	case *BinaryExpr:
		y, ok := b.(*BinaryExpr)
		return ok && x.Op == y.Op && sameExpr(x.L, y.L, schema) && sameExpr(x.R, y.R, schema)
	case *UnaryExpr:
		y, ok := b.(*UnaryExpr)
		return ok && x.Op == y.Op && sameExpr(x.X, y.X, schema)
	case *FuncCall:
		y, ok := b.(*FuncCall)
		if !ok || x.Name != y.Name || x.Star != y.Star {
			return false
		}
		return x.Star || x.Distinct == y.Distinct && sameExprs(x.Args, y.Args, schema)
	case *CaseExpr:
		y, ok := b.(*CaseExpr)
		if !ok || len(x.Whens) != len(y.Whens) || !sameOptExpr(x.Operand, y.Operand, schema) || !sameOptExpr(x.Else, y.Else, schema) {
			return false
		}
		for i, w := range x.Whens {
			if !sameExpr(w.When, y.Whens[i].When, schema) || !sameExpr(w.Then, y.Whens[i].Then, schema) {
				return false
			}
		}
		return true
	case *IsNullExpr:
		y, ok := b.(*IsNullExpr)
		return ok && x.Not == y.Not && sameExpr(x.X, y.X, schema)
	case *InExpr:
		y, ok := b.(*InExpr)
		return ok && x.Not == y.Not && sameExpr(x.X, y.X, schema) && sameExprs(x.List, y.List, schema)
	case *BetweenExpr:
		y, ok := b.(*BetweenExpr)
		return ok && x.Not == y.Not && sameExpr(x.X, y.X, schema) && sameExpr(x.Lo, y.Lo, schema) && sameExpr(x.Hi, y.Hi, schema)
	case *CastExpr:
		y, ok := b.(*CastExpr)
		return ok && x.To == y.To && sameExpr(x.X, y.X, schema)
	}
	return false
}

func sameExprs(a, b []Expr, schema planSchema) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameExpr(a[i], b[i], schema) {
			return false
		}
	}
	return true
}

// sameOptExpr is sameExpr for optional operands, which match when both
// are absent.
func sameOptExpr(a, b Expr, schema planSchema) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return sameExpr(a, b, schema)
}

// rebuildExpr maps fn over e's direct children, returning a shallow copy.
func rebuildExpr(e Expr, fn func(Expr) Expr) Expr {
	switch n := e.(type) {
	case *BinaryExpr:
		return &BinaryExpr{Op: n.Op, L: fn(n.L), R: fn(n.R)}
	case *UnaryExpr:
		return &UnaryExpr{Op: n.Op, X: fn(n.X)}
	case *FuncCall:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = fn(a)
		}
		return &FuncCall{Name: n.Name, Args: args, Star: n.Star, Distinct: n.Distinct}
	case *CaseExpr:
		out := &CaseExpr{}
		if n.Operand != nil {
			out.Operand = fn(n.Operand)
		}
		for _, w := range n.Whens {
			out.Whens = append(out.Whens, CaseWhen{When: fn(w.When), Then: fn(w.Then)})
		}
		if n.Else != nil {
			out.Else = fn(n.Else)
		}
		return out
	case *IsNullExpr:
		return &IsNullExpr{X: fn(n.X), Not: n.Not}
	case *InExpr:
		list := make([]Expr, len(n.List))
		for i, x := range n.List {
			list[i] = fn(x)
		}
		return &InExpr{X: fn(n.X), List: list, Not: n.Not}
	case *BetweenExpr:
		return &BetweenExpr{X: fn(n.X), Lo: fn(n.Lo), Hi: fn(n.Hi), Not: n.Not}
	case *CastExpr:
		return &CastExpr{X: fn(n.X), To: n.To}
	}
	return e
}
