package sqlengine

import (
	"fmt"
	"strconv"
	"strings"
)

// planner lowers an optimized logical plan into the physical planNode
// tree, materializing CTEs on the way:
//
//   - optimizer on: a CTE is materialized on first reference (dead CTEs
//     are never executed) unless the optimizer marked it inline, in
//     which case the reference lowers to the subplan itself.
//   - optimizer off (eager): every defined CTE is materialized in
//     definition order before lowering, reproducing the legacy planner.
//   - EXPLAIN mode: nothing executes; materialized CTEs lower to a
//     display wrapper around their subplan.
type planner struct {
	ctx     *execCtx
	db      *DB
	cleanup []tableStore // temp stores to release when the statement ends
	explain bool
	// stubCTE lowers unmaterialized CTE references to schema-only stubs
	// instead of materializing them — compile-only mode used by chain
	// fusion to lower one stage without recursing into the chain below
	// it (kernel_chain.go).
	stubCTE bool
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

// buildPlan parses nothing: it lowers sel through the logical IR,
// optionally the optimizer, and the physical planner. The returned
// planner owns temporary CTE stores and must be released after
// execution.
func (db *DB) buildPlan(ctx *execCtx, sel *SelectStmt, explain bool) (planNode, []string, *planner, error) {
	b := &logicalBuilder{db: db}
	root, names, err := b.buildSelect(sel, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	if db.env.optimizer {
		root = optimizeLogical(root, b.defs, db.env)
	}
	p := &planner{ctx: ctx, db: db, explain: explain}
	if !db.env.optimizer && !explain {
		// Legacy eager behavior: materialize every WITH entry in
		// definition order, referenced or not.
		for _, d := range b.defs {
			if err := p.materializeCTE(d); err != nil {
				p.release()
				return nil, nil, nil, err
			}
		}
	}
	node, err := p.lower(root)
	if err != nil {
		p.release()
		return nil, nil, nil, err
	}
	return node, names, p, nil
}

// materializeCTE executes a CTE's plan into a shared store (once).
// When d tops a fusable run of gate-stage CTEs, the whole run executes
// as one fused kernel pass instead (kernel_chain.go).
func (p *planner) materializeCTE(d *cteDef) error {
	if d.store != nil {
		return nil
	}
	if done, err := p.fuseCTEChain(d); done || err != nil {
		return err
	}
	node, err := p.lower(d.plan)
	if err != nil {
		return err
	}
	store, err := materializePlan(p.ctx, node)
	if err != nil {
		return err
	}
	p.cleanup = append(p.cleanup, store)
	d.store = store
	return nil
}

// andJoin folds conjuncts back into one AND tree.
func andJoin(conjuncts []Expr) Expr {
	var out Expr
	for _, c := range conjuncts {
		if out == nil {
			out = c
		} else {
			out = &BinaryExpr{Op: "AND", L: out, R: c}
		}
	}
	return out
}

// lower converts one logical subtree to physical operators.
func (p *planner) lower(n logicalNode) (planNode, error) {
	node, _, err := p.lowerEst(n)
	return node, err
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

// lowerEst lowers one logical subtree and returns its actual-informed
// row estimate (-1 unknown). CTE materialization happens during
// lowering, so by the time a consumer of a materialized CTE is lowered
// its input cardinality is known *exactly* — the hints bound here
// (hash-table pre-sizing, store capacities, grace choice) therefore use
// real sizes instead of the chain-compounded planning estimates, which
// decay badly across long translated gate pipelines.
func (p *planner) lowerEst(n logicalNode) (planNode, float64, error) {
	switch t := n.(type) {
	case *lOneRow:
		return &oneRowNode{}, 1, nil

	case *lScan:
		rows := float64(-1)
		if t.est.rows >= 0 {
			rows = t.est.rows
		}
		scan := &storeScanNode{store: t.meta.store, cols: t.lschema(), keep: t.keep, fullCols: len(t.cols), est: t.est}
		if p.db.env.encodings {
			scan.zp = compileZonePred(t.filters, t.lschema(), t.keep)
		}
		var node planNode = scan
		if pred := andJoin(t.filters); pred != nil {
			node = &filterNode{child: node, pred: pred, pushed: true, est: t.est}
		}
		return node, rows, nil

	case *lCTERef:
		if t.cte.inline {
			child, rows, err := p.lowerEst(t.cte.plan)
			if err != nil {
				return nil, -1, err
			}
			return &aliasNode{child: child, table: t.qual, names: t.cte.cols, est: t.est}, rows, nil
		}
		if p.explain {
			// Display-only: show the subplan under a materialization
			// marker instead of executing it.
			child, rows, err := p.lowerEst(t.cte.plan)
			if err != nil {
				return nil, -1, err
			}
			show := &cteShowNode{name: t.cte.name, uses: t.cte.uses, child: child}
			return &aliasNode{child: show, table: t.qual, names: t.cte.cols, est: t.est}, rows, nil
		}
		if p.stubCTE && t.cte.store == nil {
			// Compile-only: stand in for the unmaterialized reference
			// (chain fusion lowers each stage against its predecessor's
			// schema, never its data). Materialized CTEs fall through to
			// the normal store scan so a chain bottom binds real data.
			stub := &cteStubNode{name: t.cte.name, cols: t.cols}
			rows := float64(-1)
			if t.est.rows >= 0 {
				rows = t.est.rows
			}
			return &aliasNode{child: stub, table: t.qual, names: t.cte.cols, est: t.est}, rows, nil
		}
		if err := p.materializeCTE(t.cte); err != nil {
			return nil, -1, err
		}
		rows := float64(-1)
		if t.est.rows >= 0 {
			rows = float64(t.cte.store.Len()) // exact
			t.est.rows = rows
		}
		return &storeScanNode{store: t.cte.store, cols: t.cols, est: t.est}, rows, nil

	case *lFilter:
		plannedIn := t.child.estimate().rows // before lowering refreshes it
		child, inRows, err := p.lowerEst(t.child)
		if err != nil {
			return nil, -1, err
		}
		rows := scaleEst(t.est, plannedIn, inRows)
		if rows >= 0 {
			t.est.rows = rows
		}
		return &filterNode{child: child, pred: andJoin(t.conjuncts), est: t.est}, rows, nil

	case *lProject:
		child, rows, err := p.lowerEst(t.child)
		if err != nil {
			return nil, -1, err
		}
		if rows >= 0 {
			t.est.rows = rows
		}
		return &projectNode{child: child, exprs: t.exprs, cols: t.cols, est: t.est}, rows, nil

	case *lStrip:
		child, rows, err := p.lowerEst(t.child)
		if err != nil {
			return nil, -1, err
		}
		if rows >= 0 {
			t.est.rows = rows
		}
		return &sliceProjectNode{child: child, keep: t.keep, est: t.est}, rows, nil

	case *lPick:
		child, rows, err := p.lowerEst(t.child)
		if err != nil {
			return nil, -1, err
		}
		if rows >= 0 {
			t.est.rows = rows
		}
		return &pickNode{child: child, idxs: t.idxs, cols: t.lschema(), est: t.est}, rows, nil

	case *lJoin:
		plannedL, plannedR := t.left.estimate().rows, t.right.estimate().rows
		left, lr, err := p.lowerEst(t.left)
		if err != nil {
			return nil, -1, err
		}
		right, rr, err := p.lowerEst(t.right)
		if err != nil {
			return nil, -1, err
		}
		rows := float64(-1)
		if t.est.rows >= 0 && lr >= 0 && rr >= 0 {
			rows = t.est.rows
			if plannedL > 0 {
				rows = rows / plannedL * lr
			}
			if plannedR > 0 {
				rows = rows / plannedR * rr
			}
			t.est.rows = rows
		}
		jn := &joinNode{
			left: left, right: right, joinType: t.joinType,
			leftKeys: t.leftKeys, rightKeys: t.rightKeys, residual: t.residual,
			strategy: t.strategy, buildHint: t.buildHint, flipped: t.flipped,
			est: t.est,
		}
		if rr >= 0 {
			// Re-bind the build-side decisions to the refreshed size.
			if t.hintable {
				jn.buildHint = hintForBudget(rr, p.db.env.budget)
			}
			if len(t.leftKeys) > 0 && p.db.env.spillEnabled {
				if limit := p.db.env.budget.Limit(); limit > 0 {
					if rr*estRowBytes(len(t.right.lschema())+len(t.rightKeys)) > float64(limit) {
						jn.strategy = joinGrace
					} else if t.strategy == joinGrace {
						jn.strategy = joinAuto
					}
				}
			}
		}
		return jn, rows, nil

	case *lAgg:
		plannedIn := t.child.estimate().rows
		child, inRows, err := p.lowerEst(t.child)
		if err != nil {
			return nil, -1, err
		}
		rows := scaleEst(t.est, plannedIn, inRows)
		hint := t.groupHint
		if rows >= 0 {
			if inRows >= 0 && rows > inRows {
				rows = inRows
			}
			if rows < 1 {
				rows = 1
			}
			t.est.rows = rows
			if t.hintable {
				hint = hintForBudget(rows, p.db.env.budget)
			}
		}
		return &aggNode{child: child, groupBy: t.groupBy, aggs: t.aggs, groupHint: hint, est: t.est}, rows, nil

	case *lSort:
		child, rows, err := p.lowerEst(t.child)
		if err != nil {
			return nil, -1, err
		}
		if rows >= 0 {
			t.est.rows = rows
		}
		return &sortNode{child: child, keys: t.keys, est: t.est}, rows, nil

	case *lLimit:
		child, rows, err := p.lowerEst(t.child)
		if err != nil {
			return nil, -1, err
		}
		if rows >= 0 {
			if lim, ok := litValue(t.limit); ok && lim.T == TypeInt && float64(lim.I) < rows {
				rows = float64(lim.I)
			}
			t.est.rows = rows
		}
		return &limitNode{child: child, limit: t.limit, offset: t.offset, est: t.est}, rows, nil

	case *lAlias:
		child, rows, err := p.lowerEst(t.child)
		if err != nil {
			return nil, -1, err
		}
		if rows >= 0 {
			t.est.rows = rows
		}
		return &aliasNode{child: child, table: t.table, names: t.names, est: t.est}, rows, nil
	}
	return nil, -1, fmt.Errorf("sqlengine: internal: cannot lower %T", n)
}

// aliasNode re-qualifies (and optionally renames) its child's columns.
type aliasNode struct {
	child planNode
	table string
	names []string // optional; must match child width when set
	est   *nodeEst
}

func (n *aliasNode) schema() planSchema {
	cs := n.child.schema()
	out := make(planSchema, len(cs))
	for i, c := range cs {
		name := c.name
		if n.names != nil {
			name = strings.ToLower(n.names[i])
		}
		out[i] = planCol{table: strings.ToLower(n.table), name: name}
	}
	return out
}

func (n *aliasNode) open(ctx *execCtx) (batchIter, error) { return n.child.open(ctx) }

// cteShowNode is an EXPLAIN-only marker for a CTE that execution would
// materialize (it is never opened).
type cteShowNode struct {
	name  string
	uses  int
	child planNode
}

func (n *cteShowNode) schema() planSchema { return n.child.schema() }

func (n *cteShowNode) open(*execCtx) (batchIter, error) {
	return nil, fmt.Errorf("sqlengine: internal: cteShowNode is explain-only")
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
// — equal canonicalExprString renderings — without rendering either, so
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
