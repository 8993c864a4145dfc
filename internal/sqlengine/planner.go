package sqlengine

import (
	"fmt"
	"strconv"
	"strings"
)

// planner runs a plan tree. The tree comes from planBuilder (build.go)
// and building is pure: it reads no data and executes nothing, and a
// materialized CTE is a materializeNode in the tree, so EXPLAIN prints,
// the kernel tier matches and the executor runs one and the same tree.
// A statement executes in four steps:
//
//  1. build (buildPlan);
//  2. offer the root to the kernel tier (runKernel, kernel.go), which
//     runs its gate-stage core and the gate-stage CTEs below it as one
//     chain;
//  3. otherwise materialize the tree's CTEs top-down, on demand
//     (materializeAll) — each CTE subplan is offered to the kernel tier
//     the same way — and bind the one row-count-dependent decision,
//     the grace-join pre-choice, from the now-exact store sizes (bind);
//  4. open the root.
//
// An inlined CTE is its subplan in place, and a dead CTE is in no tree.
type planner struct {
	ctx     *execCtx
	db      *DB
	cleanup []*ColStore // temp stores to release when the statement ends
	// sampleEvery, when positive, instruments each CTE subplan the
	// interpreter runs (EXPLAIN ANALYZE, traced statements), so a stage
	// a kernel ran carries no operator counters.
	sampleEvery int
}

func (p *planner) release() {
	for _, s := range p.cleanup {
		s.Release()
	}
	p.cleanup = nil
}

// buildPlan parses nothing and executes nothing (step 1): it builds
// sel's plan tree and inlines its single-use CTEs. The returned planner
// runs the plan (execute) and owns the CTE stores that creates, so it
// must be released after execution.
func (db *DB) buildPlan(ctx *execCtx, sel *SelectStmt) (planNode, []string, *planner, error) {
	b := &planBuilder{db: db}
	root, names, err := b.buildSelect(sel, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	inlineCTEs(root, false)
	return root, names, &planner{ctx: ctx, db: db}, nil
}

// execute runs steps 2-4 for the plan rooted at node and returns its
// result store.
func (p *planner) execute(node planNode) (*ColStore, error) {
	store, swapped, err := p.runKernel(node)
	if err != nil || store != nil {
		return store, err
	}
	return p.interpret(node, swapped)
}

// interpret materializes the CTEs node reads and runs node on the
// interpreter. swapped is the kernel store a scan in node reads (or
// nil): released here if an error strands it before that scan opens
// (Release is idempotent).
func (p *planner) interpret(node planNode, swapped *ColStore) (*ColStore, error) {
	err := p.materializeAll(node)
	var store *ColStore
	if err == nil {
		p.bind(node)
		store, err = materializePlan(p.ctx, node)
	}
	if err != nil && swapped != nil {
		swapped.Release()
	}
	return store, err
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

// materialize runs one CTE into its definition's shared store (once),
// offering its subplan to the kernel tier first. A traced statement
// records the run as a "cte:<name>" span holding the work beneath it:
// the kernel chain, the CTEs it read, its operators.
func (p *planner) materialize(m *materializeNode) error {
	if m.store != nil {
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
	store, swapped, err := p.runKernel(m.child)
	if err != nil {
		return err
	}
	if store == nil {
		if p.sampleEvery > 0 {
			m.child = instrumentPlan(m.child, p.sampleEvery)
		}
		if store, err = p.interpret(m.child, swapped); err != nil {
			return err
		}
		if sp != nil {
			attachPlanSpans(sp, m.child)
		}
	}
	p.cleanup = append(p.cleanup, store)
	m.store = store
	return nil
}

// bind is step 3: it walks the tree choosing each equi-join's strategy
// from the exact size of its build side. With spilling on and a
// bounded budget, a build side known to outgrow the whole budget goes
// straight to the grace-partitioned join instead of filling the
// in-memory table first. A materialized CTE's subplan has already run
// and is skipped; an unmaterialized one (EXPLAIN) is walked.
func (p *planner) bind(node planNode) {
	switch n := node.(type) {
	case *aliasNode:
		if m, ok := unwrapStat(n.child).(*materializeNode); ok {
			if m.store == nil {
				p.bind(m.child)
			}
			return
		}
	case *joinNode:
		if limit := p.db.env.budget.Limit(); limit > 0 && p.db.env.spillEnabled && len(n.leftKeys) > 0 {
			n.strategy = joinAuto
			if rr := knownRows(n.right); rr >= 0 && rr*estRowBytes(len(n.right.schema())+len(n.rightKeys)) > limit {
				n.strategy = joinGrace
			}
		}
	}
	for _, c := range planChildren(node) {
		p.bind(c)
	}
}

// estRowBytes approximates the in-memory bytes of one row of a schema.
func estRowBytes(width int) int64 { return int64(48*width + 24) }

// knownRows is the number of rows node produces when the engine knows
// it without running node, or -1: exact for a store scan and a
// materialized CTE, passed through the row-preserving operators, the
// minimum under a constant LIMIT without OFFSET, and unknown for filter,
// join and aggregate outputs.
func knownRows(node planNode) int64 {
	switch n := node.(type) {
	case *oneRowNode:
		return 1
	case *storeScanNode:
		return n.store.Len()
	case *materializeNode:
		if n.store != nil {
			return n.store.Len()
		}
	case *statNode:
		return knownRows(n.child)
	case *projectNode:
		return knownRows(n.child)
	case *sliceProjectNode:
		return knownRows(n.child)
	case *aliasNode:
		return knownRows(n.child)
	case *sortNode:
		return knownRows(n.child)
	case *limitNode:
		lim, ok := constValue(n.limit)
		if !ok || lim.T != TypeInt || n.offset != nil {
			return -1
		}
		rows := knownRows(n.child)
		if rows < 0 || lim.I < 0 { // a negative LIMIT is no limit
			return rows
		}
		return min(rows, lim.I)
	}
	return -1
}

// aliasNode re-qualifies (and optionally renames) its child's columns.
type aliasNode struct {
	child planNode
	table string
	cols  planSchema // computed once by newAliasNode
}

// newAliasNode builds the alias and its schema, which the planner and
// the kernel-cache key read many times per statement. names is optional
// and must match the child's width when set.
func newAliasNode(child planNode, table string, names []string) *aliasNode {
	cs := child.schema()
	cols := make(planSchema, len(cs))
	for i, c := range cs {
		name := c.name
		if names != nil {
			name = strings.ToLower(names[i])
		}
		cols[i] = planCol{table: strings.ToLower(table), name: name}
	}
	return &aliasNode{child: child, table: table, cols: cols}
}

func (n *aliasNode) schema() planSchema { return n.cols }

func (n *aliasNode) open(ctx *execCtx) (batchIter, error) { return n.child.open(ctx) }

// materializeNode is a CTE definition, shared by every reference to
// it that stays materialized (an alias over the node). Execution runs
// child — the definition's subplan — once into store
// (planner.materialize), and the node then scans that store.
type materializeNode struct {
	name  string
	cols  []string // the names the references expose
	uses  int      // the definition's reference count
	child planNode
	store *ColStore // nil until materialized
}

func (n *materializeNode) schema() planSchema { return n.child.schema() }

// scan is the store scan behind the node, nil until it is materialized.
func (n *materializeNode) scan() *storeScanNode {
	if n.store == nil {
		return nil
	}
	return &storeScanNode{store: n.store, cols: n.schema()}
}

func (n *materializeNode) open(ctx *execCtx) (batchIter, error) {
	sc := n.scan()
	if sc == nil {
		return nil, fmt.Errorf("sqlengine: internal: CTE %s opened before it was materialized", n.name)
	}
	return sc.open(ctx)
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
			s.cols = unwrapStat(n).(*aliasNode).schema()
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
			if _, err := schema.resolveRef(cr); err != nil {
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
		ix, errx := schema.resolveRef(x)
		iy, erry := schema.resolveRef(y)
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
