package sqlengine

import (
	"fmt"
	"strconv"
	"strings"
)

// Logical plan IR. The planner lowers the AST into this tree first; the
// rule-driven rewriter (optimize.go) transforms it; and the physical
// lowering (planner.go) turns it into the executable planNode tree.
// Logical nodes carry no execution state — in particular CTEs are *not*
// materialized while the logical plan is being built or rewritten,
// which is what allows single-use CTE inlining and dead-CTE
// elimination.
//
// Every logical node exposes its output schema, identical to the schema
// of the physical operator it lowers to.
type logicalNode interface {
	lschema() planSchema
}

// cteDef is one WITH entry shared by all references to it. uses counts
// lCTERef nodes; the optimizer marks single-use CTEs inline (when safe)
// and never materializes CTEs with zero uses.
type cteDef struct {
	name string
	cols []string
	plan logicalNode
	uses int
	// inline is set by the optimizer: references lower to the subplan
	// itself instead of a scan over a materialized store.
	inline bool
}

// lOneRow emits a single empty row (FROM-less SELECT).
type lOneRow struct{}

func (n *lOneRow) lschema() planSchema { return nil }

// lScan scans a base table.
type lScan struct {
	name string // catalog name
	qual string // alias qualifier (lowercase)
	meta *TableMeta
	cols planSchema
}

func (n *lScan) lschema() planSchema { return n.cols }

// lCTERef references a CTE. Lowering either inlines the subplan (alias
// over cte.plan) or scans the shared materialized store.
type lCTERef struct {
	cte  *cteDef
	qual string
	cols planSchema
}

func (n *lCTERef) lschema() planSchema { return n.cols }

// lFilter drops rows whose predicate is not true (WHERE or HAVING).
type lFilter struct {
	child logicalNode
	pred  Expr
}

func (n *lFilter) lschema() planSchema { return n.child.lschema() }

// lProject computes output expressions.
type lProject struct {
	child logicalNode
	exprs []Expr
	cols  planSchema
}

func (n *lProject) lschema() planSchema { return n.cols }

// lStrip keeps the first keep output columns (drops hidden sort keys).
type lStrip struct {
	child logicalNode
	keep  int
}

func (n *lStrip) lschema() planSchema { return n.child.lschema()[:n.keep] }

// lJoin joins two inputs (INNER/LEFT/CROSS), with equi-key pairs
// extracted from the ON clause and an optional residual predicate.
type lJoin struct {
	left, right logicalNode
	joinType    string
	leftKeys    []Expr
	rightKeys   []Expr
	residual    Expr
}

func (n *lJoin) lschema() planSchema {
	ls, rs := n.left.lschema(), n.right.lschema()
	out := make(planSchema, 0, len(ls)+len(rs))
	out = append(out, ls...)
	out = append(out, rs...)
	return out
}

// lAgg groups and aggregates; aggs == nil is DISTINCT.
type lAgg struct {
	child   logicalNode
	groupBy []Expr
	aggs    []aggCall
}

func (n *lAgg) lschema() planSchema {
	out := make(planSchema, 0, len(n.groupBy)+len(n.aggs))
	for i := range n.groupBy {
		out = append(out, planCol{table: "#grp", name: "g" + strconv.Itoa(i)})
	}
	for i := range n.aggs {
		out = append(out, planCol{table: "#agg", name: "a" + strconv.Itoa(i)})
	}
	return out
}

// lSort orders rows.
type lSort struct {
	child logicalNode
	keys  []sortSpec
}

func (n *lSort) lschema() planSchema { return n.child.lschema() }

// lLimit applies LIMIT/OFFSET.
type lLimit struct {
	child         logicalNode
	limit, offset Expr
}

func (n *lLimit) lschema() planSchema { return n.child.lschema() }

// lAlias re-qualifies (and optionally renames) its child's columns.
type lAlias struct {
	child logicalNode
	table string
	names []string
}

func (n *lAlias) lschema() planSchema {
	cs := n.child.lschema()
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

// lchildren returns a node's logical children (for generic walks).
func lchildren(n logicalNode) []logicalNode {
	switch t := n.(type) {
	case *lFilter:
		return []logicalNode{t.child}
	case *lProject:
		return []logicalNode{t.child}
	case *lStrip:
		return []logicalNode{t.child}
	case *lJoin:
		return []logicalNode{t.left, t.right}
	case *lAgg:
		return []logicalNode{t.child}
	case *lSort:
		return []logicalNode{t.child}
	case *lLimit:
		return []logicalNode{t.child}
	case *lAlias:
		return []logicalNode{t.child}
	}
	return nil
}

// lcteScope resolves CTE names during logical building, innermost WITH
// first.
type lcteScope struct {
	parent *lcteScope
	defs   map[string]*cteDef
}

func (s *lcteScope) lookup(name string) *cteDef {
	for sc := s; sc != nil; sc = sc.parent {
		if d, ok := sc.defs[strings.ToLower(name)]; ok {
			return d
		}
	}
	return nil
}

// logicalBuilder lowers the AST into the logical IR. It performs name
// resolution and the SELECT-shape normalization (star expansion,
// aggregate rewriting, ORDER BY key planning) but executes nothing.
type logicalBuilder struct {
	db *DB
	// defs collects every CTE definition in the statement, in definition
	// order (outermost first), for the optimizer's CTE passes.
	defs []*cteDef
}

// buildSelect returns the logical plan root and the user-visible output
// column names.
func (b *logicalBuilder) buildSelect(sel *SelectStmt, scope *lcteScope) (logicalNode, []string, error) {
	// Declare WITH entries; later CTEs may reference earlier ones.
	if len(sel.With) > 0 {
		scope = &lcteScope{parent: scope, defs: map[string]*cteDef{}}
		for _, cte := range sel.With {
			plan, names, err := b.buildSelect(cte.Select, scope)
			if err != nil {
				return nil, nil, err
			}
			cols := names
			if len(cte.Cols) > 0 {
				if len(cte.Cols) != len(names) {
					return nil, nil, fmt.Errorf("sqlengine: CTE %s declares %d columns but query produces %d", cte.Name, len(cte.Cols), len(names))
				}
				cols = cte.Cols
			}
			def := &cteDef{name: cte.Name, cols: cols, plan: plan}
			scope.defs[strings.ToLower(cte.Name)] = def
			b.defs = append(b.defs, def)
		}
	}

	// FROM and JOINs.
	var base logicalNode
	if sel.From == nil {
		base = &lOneRow{}
	} else {
		var err error
		base, err = b.buildTableRef(sel.From, scope)
		if err != nil {
			return nil, nil, err
		}
	}
	for _, join := range sel.Joins {
		right, err := b.buildTableRef(join.Table, scope)
		if err != nil {
			return nil, nil, err
		}
		jn := &lJoin{left: base, right: right, joinType: join.Type}
		if join.On != nil {
			lks, rks, residual := extractEquiKeys(join.On, base.lschema(), right.lschema())
			jn.leftKeys, jn.rightKeys, jn.residual = lks, rks, residual
		}
		base = jn
	}

	if sel.Where != nil {
		if exprReferencesAggregate(sel.Where) {
			return nil, nil, fmt.Errorf("sqlengine: aggregates are not allowed in WHERE")
		}
		base = &lFilter{child: base, pred: sel.Where}
	}

	// Decide whether the query aggregates.
	needsAgg := len(sel.GroupBy) > 0
	for _, item := range sel.Items {
		if !item.Star && exprReferencesAggregate(item.Expr) {
			needsAgg = true
		}
	}
	if sel.Having != nil {
		needsAgg = true
	}

	items := sel.Items
	orderExprs := make([]Expr, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		orderExprs[i] = o.Expr
	}
	having := sel.Having

	if needsAgg {
		for _, item := range items {
			if item.Star {
				return nil, nil, fmt.Errorf("sqlengine: SELECT * cannot be combined with aggregation")
			}
		}
		rw, err := newAggRewriter(sel.GroupBy, base.lschema())
		if err != nil {
			return nil, nil, err
		}
		newItems := make([]SelectItem, len(items))
		for i, item := range items {
			newItems[i] = SelectItem{Expr: rw.rewrite(item.Expr), Alias: item.Alias}
		}
		items = newItems
		if having != nil {
			having = rw.rewrite(having)
		}
		for i, e := range orderExprs {
			if e != nil {
				orderExprs[i] = rw.rewrite(e)
			}
		}
		base = &lAgg{child: base, groupBy: sel.GroupBy, aggs: rw.aggs}
		if having != nil {
			base = &lFilter{child: base, pred: having}
		}
	}

	// Expand stars and determine output names.
	var projExprs []Expr
	var outNames []string
	baseSchema := base.lschema()
	for _, item := range items {
		if item.Star {
			matched := false
			for _, c := range baseSchema {
				if item.StarTable != "" && c.table != strings.ToLower(item.StarTable) {
					continue
				}
				matched = true
				projExprs = append(projExprs, &ColumnRef{Table: c.table, Name: c.name})
				outNames = append(outNames, c.name)
			}
			if !matched {
				return nil, nil, fmt.Errorf("sqlengine: no table %q in FROM for %s.*", item.StarTable, item.StarTable)
			}
			continue
		}
		projExprs = append(projExprs, item.Expr)
		outNames = append(outNames, outputName(item))
	}

	outSchema := make(planSchema, len(outNames))
	for i, n := range outNames {
		outSchema[i] = planCol{table: "", name: strings.ToLower(n)}
	}

	// ORDER BY keys: positional, output alias, or hidden input expression.
	type plannedKey struct {
		outIdx int  // >= 0: references an output column
		hidden Expr // non-nil: extra hidden projection
		desc   bool
	}
	var keys []plannedKey
	var hiddenExprs []Expr
	for i, e := range orderExprs {
		desc := sel.OrderBy[i].Desc
		if lit, ok := e.(*Literal); ok && lit.Val.T == TypeInt {
			idx := int(lit.Val.I)
			if idx < 1 || idx > len(projExprs) {
				return nil, nil, fmt.Errorf("sqlengine: ORDER BY position %d out of range", idx)
			}
			keys = append(keys, plannedKey{outIdx: idx - 1, desc: desc})
			continue
		}
		// A bare column matching exactly one output alias refers to it.
		if cr, ok := e.(*ColumnRef); ok && cr.Table == "" {
			if idx, err := outSchema.resolveColumn("", cr.Name); err == nil {
				keys = append(keys, plannedKey{outIdx: idx, desc: desc})
				continue
			}
		}
		if sel.Distinct {
			return nil, nil, fmt.Errorf("sqlengine: ORDER BY expression %s must appear in the SELECT DISTINCT list", e.Deparse())
		}
		keys = append(keys, plannedKey{outIdx: -1, hidden: e, desc: desc})
		hiddenExprs = append(hiddenExprs, e)
	}

	// Projection (with hidden sort keys appended).
	allExprs := append(append([]Expr{}, projExprs...), hiddenExprs...)
	projSchema := make(planSchema, 0, len(allExprs))
	projSchema = append(projSchema, outSchema...)
	for i := range hiddenExprs {
		projSchema = append(projSchema, planCol{table: "#hidden", name: "k" + strconv.Itoa(i)})
	}
	var node logicalNode = &lProject{child: base, exprs: allExprs, cols: projSchema}

	// DISTINCT: group by every output column (hidden keys are forbidden
	// above, so the projection width equals the output width).
	if sel.Distinct {
		gb := make([]Expr, len(outNames))
		for i, c := range projSchema[:len(outNames)] {
			gb[i] = &ColumnRef{Table: c.table, Name: c.name}
		}
		node = &lAgg{child: node, groupBy: gb, aggs: nil}
		node = &lAlias{child: node, table: "", names: outNames}
	}

	// Sort.
	if len(keys) > 0 {
		specs := make([]sortSpec, len(keys))
		schema := node.lschema()
		hiddenBase := len(outNames)
		hi := 0
		for i, k := range keys {
			if k.outIdx >= 0 {
				c := schema[k.outIdx]
				specs[i] = sortSpec{expr: &ColumnRef{Table: c.table, Name: c.name}, desc: k.desc}
			} else {
				c := schema[hiddenBase+hi]
				hi++
				specs[i] = sortSpec{expr: &ColumnRef{Table: c.table, Name: c.name}, desc: k.desc}
			}
		}
		node = &lSort{child: node, keys: specs}
	}

	if sel.Limit != nil || sel.Offset != nil {
		node = &lLimit{child: node, limit: sel.Limit, offset: sel.Offset}
	}

	if len(hiddenExprs) > 0 {
		node = &lStrip{child: node, keep: len(outNames)}
	}
	return node, outNames, nil
}

func (b *logicalBuilder) buildTableRef(ref TableRef, scope *lcteScope) (logicalNode, error) {
	switch r := ref.(type) {
	case *TableName:
		qual := r.Name
		if r.Alias != "" {
			qual = r.Alias
		}
		if def := scope.lookup(r.Name); def != nil {
			def.uses++
			cols := make(planSchema, len(def.cols))
			for i, c := range def.cols {
				cols[i] = planCol{table: strings.ToLower(qual), name: strings.ToLower(c)}
			}
			return &lCTERef{cte: def, qual: strings.ToLower(qual), cols: cols}, nil
		}
		meta := b.db.lookupTable(r.Name)
		if meta == nil {
			return nil, fmt.Errorf("sqlengine: no such table: %s", r.Name)
		}
		cols := make(planSchema, len(meta.Cols))
		for i, c := range meta.Cols {
			cols[i] = planCol{table: strings.ToLower(qual), name: strings.ToLower(c.Name)}
		}
		return &lScan{name: r.Name, qual: strings.ToLower(qual), meta: meta, cols: cols}, nil

	case *SubqueryRef:
		node, names, err := b.buildSelect(r.Select, scope)
		if err != nil {
			return nil, err
		}
		return &lAlias{child: node, table: r.Alias, names: names}, nil
	}
	return nil, fmt.Errorf("sqlengine: unsupported table reference %T", ref)
}
