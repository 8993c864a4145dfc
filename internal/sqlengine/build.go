package sqlengine

import (
	"fmt"
	"strconv"
	"strings"
)

// planBuilder builds the physical plan tree straight from the AST in
// one pass: name resolution, the SELECT-shape normalization (star
// expansion, aggregate rewriting, ORDER BY key planning) and operator
// construction happen together, and nothing executes. Each WITH entry
// becomes one materializeNode, shared by all of its references;
// inlineCTEs then lowers the single-use ones in place. The builder
// reads the AST and never writes into it, so one cached statement is
// planned by any number of engines, concurrently.
//
// A column the builder itself makes — a star's expansion, an ORDER BY
// key, a DISTINCT group key — refers to the column below it by
// position (colRef), so duplicate output names stay distinct.
type planBuilder struct {
	db *DB
}

// cteScope resolves CTE names during building, innermost WITH first.
type cteScope struct {
	parent *cteScope
	defs   map[string]*materializeNode
}

func (s *cteScope) lookup(name string) *materializeNode {
	for sc := s; sc != nil; sc = sc.parent {
		if m, ok := sc.defs[strings.ToLower(name)]; ok {
			return m
		}
	}
	return nil
}

// colRef refers to column i of schema by position; it deparses as the
// column's name.
func colRef(schema planSchema, i int) *ColumnRef {
	c := schema[i]
	return &ColumnRef{Table: c.table, Name: c.name, slot: i + 1}
}

// buildSelect returns the plan root and the user-visible output column
// names.
func (b *planBuilder) buildSelect(sel *SelectStmt, scope *cteScope) (planNode, []string, error) {
	// Declare WITH entries; later CTEs may reference earlier ones.
	if len(sel.With) > 0 {
		scope = &cteScope{parent: scope, defs: map[string]*materializeNode{}}
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
			scope.defs[strings.ToLower(cte.Name)] = &materializeNode{name: cte.Name, cols: cols, child: plan}
		}
	}

	// FROM and JOINs.
	var base planNode
	if sel.From == nil {
		base = &oneRowNode{}
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
		jn := &joinNode{left: base, right: right, joinType: join.Type}
		if join.On != nil {
			jn.leftKeys, jn.rightKeys, jn.residual = extractEquiKeys(join.On, base.schema(), right.schema())
		}
		base = jn
	}

	if sel.Where != nil {
		if exprReferencesAggregate(sel.Where) {
			return nil, nil, fmt.Errorf("sqlengine: aggregates are not allowed in WHERE")
		}
		base = &filterNode{child: base, pred: sel.Where}
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
		rw, err := newAggRewriter(sel.GroupBy, base.schema())
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
		base = newAggNode(base, sel.GroupBy, rw.aggs)
		if having != nil {
			base = &filterNode{child: base, pred: having}
		}
	}

	// Expand stars and determine output names.
	var projExprs []Expr
	var outNames []string
	baseSchema := base.schema()
	for _, item := range items {
		if item.Star {
			matched := false
			for i, c := range baseSchema {
				if item.StarTable != "" && c.table != strings.ToLower(item.StarTable) {
					continue
				}
				matched = true
				projExprs = append(projExprs, colRef(baseSchema, i))
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
	var node planNode = &projectNode{child: base, exprs: allExprs, cols: projSchema}

	// DISTINCT: group by every output column (hidden keys are forbidden
	// above, so the projection width equals the output width).
	if sel.Distinct {
		gb := make([]Expr, len(outNames))
		for i := range gb {
			gb[i] = colRef(projSchema, i)
		}
		node = newAliasNode(newAggNode(node, gb, nil), "", outNames)
	}

	// Sort: an output key is its column's position, the i-th hidden key
	// the i-th column past the output.
	if len(keys) > 0 {
		specs := make([]sortSpec, len(keys))
		schema := node.schema()
		hidden := len(outNames)
		for i, k := range keys {
			idx := k.outIdx
			if idx < 0 {
				idx = hidden
				hidden++
			}
			specs[i] = sortSpec{expr: colRef(schema, idx), desc: k.desc}
		}
		node = &sortNode{child: node, keys: specs}
	}

	if sel.Limit != nil || sel.Offset != nil {
		node = &limitNode{child: node, limit: sel.Limit, offset: sel.Offset}
	}

	if len(hiddenExprs) > 0 {
		node = &sliceProjectNode{child: node, keep: len(outNames)}
	}
	return node, outNames, nil
}

func (b *planBuilder) buildTableRef(ref TableRef, scope *cteScope) (planNode, error) {
	switch r := ref.(type) {
	case *TableName:
		qual := r.Name
		if r.Alias != "" {
			qual = r.Alias
		}
		qual = strings.ToLower(qual)
		if m := scope.lookup(r.Name); m != nil {
			m.uses++
			return newAliasNode(m, qual, m.cols), nil
		}
		meta := b.db.lookupTable(r.Name)
		if meta == nil {
			return nil, fmt.Errorf("sqlengine: no such table: %s", r.Name)
		}
		cols := make(planSchema, len(meta.Cols))
		for i, c := range meta.Cols {
			cols[i] = planCol{table: qual, name: strings.ToLower(c.Name)}
		}
		return &storeScanNode{store: meta.store, cols: cols}, nil

	case *SubqueryRef:
		node, names, err := b.buildSelect(r.Select, scope)
		if err != nil {
			return nil, err
		}
		return newAliasNode(node, r.Alias, names), nil
	}
	return nil, fmt.Errorf("sqlengine: unsupported table reference %T", ref)
}

// inlineCTEs lowers a single-use CTE in place of its reference — the
// reference's alias reads the CTE's subplan instead of its materialized
// store — unless an order-sensitive aggregate sits above the reference
// (sensitive; see sensitiveAggs). Simulated amplitudes must be bitwise
// identical to those of the plan as written, with every CTE
// materialized: the engine's aggregation adds its input rows one at a
// time, in arrival order, into one accumulator per group, and inlining
// is not proven to keep that order. The translated gate queries
// aggregate amplitudes with SUM, so their per-stage plans keep the
// as-written schedule by construction. A CTE that stays materialized
// is walked from its own root with sensitive false: inlining inside it
// cannot change its output rows or their order.
func inlineCTEs(node planNode, sensitive bool) {
	switch n := node.(type) {
	case *aliasNode:
		m, ok := n.child.(*materializeNode)
		if !ok {
			break
		}
		if m.uses == 1 && !sensitive {
			n.child = m.child
			inlineCTEs(n.child, sensitive)
		} else {
			inlineCTEs(m.child, false)
		}
		return
	case *aggNode:
		sensitive = sensitive || sensitiveAggs(n.aggs)
	}
	for _, c := range planChildren(node) {
		inlineCTEs(c, sensitive)
	}
}

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
