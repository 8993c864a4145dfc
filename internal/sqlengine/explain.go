package sqlengine

import (
	"context"
	"fmt"
	"strings"
	"time"
)

// Explain returns a rendering of the physical plan for a SELECT
// statement without executing it — the tree execution runs. CTEs the
// execution materializes appear as
// MaterializeCTE subplans (inlined CTEs appear in place). EXPLAIN itself
// does no data movement.
func (db *DB) Explain(sqlText string, params ...Value) (string, error) {
	stmt, nparams, err := parseCached(stmtCache, sqlText)
	if err != nil {
		return "", err
	}
	if nparams > len(params) {
		// Explaining with unbound parameters is fine; bind NULLs.
		pad := make([]Value, nparams-len(params))
		params = append(params, pad...)
	}
	var sel *SelectStmt
	analyze := false
	switch s := stmt.(type) {
	case *SelectStmt:
		sel = s
	case *ExplainStmt:
		sel, analyze = s.Select, s.Analyze
	default:
		return "", fmt.Errorf("sqlengine: EXPLAIN requires a SELECT statement")
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return "", fmt.Errorf("sqlengine: database is closed")
	}
	if analyze {
		return db.explainAnalyzeSelect(context.Background(), sel, params)
	}
	return db.explainSelect(sel, params)
}

func (db *DB) explainSelect(sel *SelectStmt, params []Value) (string, error) {
	ctx := db.newExecCtx(context.Background(), params)
	node, names, p, err := db.buildPlan(ctx, sel)
	if err != nil {
		return "", err
	}
	p.bind(node) // nothing is materialized: only base-table sizes are known
	kline, kplan := kernelExplain(ctx, node)
	var b strings.Builder
	writeExplainHeader(&b, names, kline)
	describePlan(&b, node, 0, kplan)
	return b.String(), nil
}

// ExplainAnalyze executes the SELECT and renders the physical plan with
// the actual rows each operator produced, plus total wall time
// (planning and CTE materialization included).
func (db *DB) ExplainAnalyze(ctx context.Context, sqlText string, params ...Value) (string, error) {
	stmt, nparams, err := parseCached(stmtCache, sqlText)
	if err != nil {
		return "", err
	}
	if nparams > len(params) {
		pad := make([]Value, nparams-len(params))
		params = append(params, pad...)
	}
	var sel *SelectStmt
	switch s := stmt.(type) {
	case *SelectStmt:
		sel = s
	case *ExplainStmt:
		sel = s.Select
	default:
		return "", fmt.Errorf("sqlengine: EXPLAIN ANALYZE requires a SELECT statement")
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return "", fmt.Errorf("sqlengine: database is closed")
	}
	return db.explainAnalyzeSelect(ctx, sel, params)
}

func (db *DB) explainAnalyzeSelect(stmtCtx context.Context, sel *SelectStmt, params []Value) (string, error) {
	ctx := db.newExecCtx(stmtCtx, params)
	start := time.Now()
	node, names, p, err := db.buildPlan(ctx, sel)
	if err != nil {
		return "", err
	}
	defer p.release()
	node = instrumentPlan(node, 1)
	p.sampleEvery = 1
	store, err := p.execute(node)
	if err != nil {
		return "", err
	}
	elapsed := time.Since(start)
	total := store.Len()
	store.Release()
	var b strings.Builder
	kline, kplan := kernelExplain(ctx, node)
	k := ctx.krun
	switch {
	case k != nil && k.plan == node:
		// The kernel tier ran the root (the matcher walks through the
		// instrumentation's statNodes): the chain replaced the
		// gate-stage core — rendered below as its output scan.
		kline, kplan = "kernel: "+chainAnnotation(int(k.stages))+" (analyzed)", nil
	case kplan != nil && ctx.kdecline != "":
		// The matcher accepted the root but execution declined it (a
		// bind check or a refused budget reservation): the interpreter
		// ran it.
		kline, kplan = "kernel: fallback ("+ctx.kdecline+", at run time)", nil
	}
	writeExplainHeader(&b, names, kline)
	if k != nil {
		fmt.Fprintf(&b, "kernel actual: %s rows_in=%d rows_out=%d cube_stages=%d in %s\n",
			chainAnnotation(int(k.stages)), k.rowsIn, k.rowsOut, k.cubeStages, k.wall.Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "actual: %d rows in %s\n", total, elapsed.Round(time.Microsecond))
	describePlan(&b, node, 0, kplan)
	return b.String(), nil
}

// runExplainStmt serves EXPLAIN [ANALYZE] through the Query surface: the
// rendered plan becomes a one-column result set (column "plan", one row
// per line).
func (db *DB) runExplainStmt(ctx context.Context, s *ExplainStmt, params []Value) (*ResultSet, error) {
	var text string
	var err error
	if s.Analyze {
		db.mu.RLock()
		if db.closed {
			db.mu.RUnlock()
			return nil, fmt.Errorf("sqlengine: database is closed")
		}
		text, err = db.explainAnalyzeSelect(ctx, s.Select, params)
		db.mu.RUnlock()
	} else {
		db.mu.RLock()
		if db.closed {
			db.mu.RUnlock()
			return nil, fmt.Errorf("sqlengine: database is closed")
		}
		text, err = db.explainSelect(s.Select, params)
		db.mu.RUnlock()
	}
	if err != nil {
		return nil, err
	}
	store := db.env.newStore()
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if err := store.Append(Row{NewText(line)}); err != nil {
			store.Release()
			return nil, err
		}
	}
	if err := store.Freeze(); err != nil {
		store.Release()
		return nil, err
	}
	return &ResultSet{Columns: []string{"plan"}, store: store}, nil
}

func writeExplainHeader(b *strings.Builder, names []string, kernelLine string) {
	fmt.Fprintf(b, "output: %s\n", strings.Join(names, ", "))
	fmt.Fprintf(b, "executor: vectorized (batch=%d, selection vectors), serial\n", batchSize)
	fmt.Fprintf(b, "storage: columnar (typed column vectors + null bitmaps, spill=column chunks)\n")
	fmt.Fprintf(b, "optimizer: on (constant folding, CTE inlining)\n")
	fmt.Fprintf(b, "%s\n", kernelLine)
}

// kernelExplain reports the kernel tier's structural decision for a
// plan: the EXPLAIN header line and the matched chain (nil when the
// matcher declines). It is compileChain's dry run — no counters, no
// cache, no execution; the data-dependent checks (spill state, column
// vector types and the working-set reservation under a bounded budget)
// still happen at run time.
func kernelExplain(ctx *execCtx, node planNode) (string, *chainPlan) {
	if !ctx.env.kernels {
		return "kernel: off", nil
	}
	plan, reason := compileChain(ctx.env, node, true)
	if plan == nil {
		return "kernel: fallback (" + reason + ")", nil
	}
	return "kernel: " + chainAnnotation(len(plan.stages)), plan
}

// scanLayout renders one scanned store's layout: the vector type of
// every column.
func scanLayout(store *ColStore) string {
	kinds := store.vectorKinds()
	if kinds == nil {
		return "columnar"
	}
	return "columnar[" + strings.Join(kinds, " ") + "]"
}

// statNode wraps a physical operator, counting the rows it emits and —
// on a sampled subset of batches — the time spent in its NextBatch.
// The wrapper is transparent to the kernel matcher (findCore walks
// through it), so the instrumented plan runs the same schedule
// as the uninstrumented one. EXPLAIN ANALYZE instruments with
// sampleEvery=1 (every batch timed); traced normal execution uses the
// trace's stride so the timer calls stay a small share of the work.
type statNode struct {
	child  planNode
	actual int64
	// batches counts NextBatch calls; sampled counts the timed ones;
	// nanos accumulates the timed durations. Operator-span attachment
	// estimates total operator time as nanos·batches/sampled
	// (trace_exec.go).
	batches     int64
	sampled     int64
	nanos       int64
	sampleEvery int
}

func (n *statNode) schema() planSchema { return n.child.schema() }

// nextThrough pulls one batch from child, counting rows always and
// timing every sampleEvery-th call.
func (n *statNode) nextThrough(child interface{ NextBatch() (*rowBatch, error) }) (*rowBatch, error) {
	n.batches++
	if (n.batches-1)%int64(n.sampleEvery) == 0 {
		start := time.Now()
		b, err := child.NextBatch()
		n.nanos += time.Since(start).Nanoseconds()
		n.sampled++
		if err == nil && b != nil {
			n.actual += int64(b.rows())
		}
		return b, err
	}
	b, err := child.NextBatch()
	if err == nil && b != nil {
		n.actual += int64(b.rows())
	}
	return b, err
}

func (n *statNode) open(ctx *execCtx) (batchIter, error) {
	it, err := n.child.open(ctx)
	if err != nil {
		return nil, err
	}
	return &statIter{child: it, n: n}, nil
}

type statIter struct {
	child batchIter
	n     *statNode
}

func (it *statIter) NextBatch() (*rowBatch, error) { return it.n.nextThrough(it.child) }

func (it *statIter) Close() { it.child.Close() }

// instrumentPlan wraps every operator with a row counter and sampled
// batch timer. sampleEvery 1 times every batch (EXPLAIN ANALYZE);
// larger strides amortize the timer calls for always-on tracing. A
// CTE's subplan is left alone: planner.materialize instruments it if
// and when it runs.
func instrumentPlan(node planNode, sampleEvery int) planNode {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	switch n := node.(type) {
	case *filterNode:
		n.child = instrumentPlan(n.child, sampleEvery)
	case *projectNode:
		n.child = instrumentPlan(n.child, sampleEvery)
	case *sliceProjectNode:
		n.child = instrumentPlan(n.child, sampleEvery)
	case *joinNode:
		n.left = instrumentPlan(n.left, sampleEvery)
		n.right = instrumentPlan(n.right, sampleEvery)
	case *aggNode:
		n.child = instrumentPlan(n.child, sampleEvery)
	case *sortNode:
		n.child = instrumentPlan(n.child, sampleEvery)
	case *limitNode:
		n.child = instrumentPlan(n.child, sampleEvery)
	case *aliasNode:
		n.child = instrumentPlan(n.child, sampleEvery)
	}
	return &statNode{child: node, sampleEvery: sampleEvery}
}

// describePlan renders node's subtree, marking the top core of kplan
// (the chain EXPLAIN previews; nil for none).
func describePlan(b *strings.Builder, node planNode, depth int, kplan *chainPlan) {
	pad := strings.Repeat("  ", depth)
	actual := ""
	if sn, ok := node.(*statNode); ok {
		actual = fmt.Sprintf(" actual_rows=%d", sn.actual)
		node = sn.child
	}
	kmark := ""
	if kplan != nil && node == planNode(kplan.top().core) {
		kmark = " [kernel=" + chainAnnotation(len(kplan.stages)) + "]"
	}
	line := func(format string, args ...any) {
		fmt.Fprintf(b, "%s%s%s%s\n", pad, fmt.Sprintf(format, args...), kmark, actual)
	}
	switch n := node.(type) {
	case *oneRowNode:
		line("OneRow")
	case *storeScanNode:
		qual := ""
		if len(n.cols) > 0 {
			qual = n.cols[0].table
		}
		rows, layout, kout := n.kernelRows, n.kernelLayout, " [kernel output: "+n.kernel+"]"
		if n.kernel == "" {
			rows, layout, kout = n.store.Len(), scanLayout(n.store), ""
		}
		line("BatchScan %s (rows=%d, cols=%d, batch=%d, layout=%s)%s", qual, rows, len(n.cols), batchSize, layout, kout)
	case *filterNode:
		line("BatchFilter %s [selection vector]", n.pred.Deparse())
		describePlan(b, n.child, depth+1, kplan)
	case *projectNode:
		exprs := make([]string, len(n.exprs))
		for i, e := range n.exprs {
			exprs[i] = e.Deparse()
		}
		line("BatchProject %s", strings.Join(exprs, ", "))
		describePlan(b, n.child, depth+1, kplan)
	case *sliceProjectNode:
		line("StripHiddenColumns keep=%d", n.keep)
		describePlan(b, n.child, depth+1, kplan)
	case *joinNode:
		if len(n.leftKeys) > 0 {
			keys := make([]string, len(n.leftKeys))
			for i := range n.leftKeys {
				keys[i] = n.leftKeys[i].Deparse() + " = " + n.rightKeys[i].Deparse()
			}
			residual := ""
			if n.residual != nil {
				residual = " residual=" + n.residual.Deparse()
			}
			mode := " [streaming batch probe]"
			if n.strategy == joinGrace {
				mode = " [grace partitioned: build exceeds budget]"
			}
			line("HashJoin (%s) on %s%s%s", n.joinType, strings.Join(keys, " AND "), residual, mode)
		} else {
			pred := ""
			if n.residual != nil {
				pred = " on " + n.residual.Deparse()
			}
			line("NestedLoopJoin (%s)%s", n.joinType, pred)
		}
		describePlan(b, n.left, depth+1, kplan)
		describePlan(b, n.right, depth+1, kplan)
	case *aggNode:
		keys := make([]string, len(n.groupBy))
		for i, g := range n.groupBy {
			keys[i] = g.Deparse()
		}
		aggs := make([]string, len(n.aggs))
		distinct := false
		for i, a := range n.aggs {
			arg := "*"
			if a.Arg != nil {
				arg = a.Arg.Deparse()
			}
			d := ""
			if a.Distinct {
				d = "DISTINCT "
				distinct = true
			}
			aggs[i] = fmt.Sprintf("%s(%s%s)", a.Name, d, arg)
		}
		label := "HashAggregate"
		if len(n.aggs) == 0 {
			label = "HashDistinct"
		}
		mode := " [streaming]"
		if distinct {
			mode = " [materialized]"
		}
		line("%s keys=[%s] aggs=[%s]%s", label, strings.Join(keys, ", "), strings.Join(aggs, ", "), mode)
		describePlan(b, n.child, depth+1, kplan)
	case *sortNode:
		keys := make([]string, len(n.keys))
		for i, k := range n.keys {
			dir := "ASC"
			if k.desc {
				dir = "DESC"
			}
			keys[i] = k.expr.Deparse() + " " + dir
		}
		elided := ""
		if n.elided {
			elided = " [elided: input already in key order]"
		}
		line("Sort %s (external merge when over budget)%s", strings.Join(keys, ", "), elided)
		describePlan(b, n.child, depth+1, kplan)
	case *limitNode:
		line("Limit")
		describePlan(b, n.child, depth+1, kplan)
	case *aliasNode:
		line("As %s", n.table)
		describePlan(b, n.child, depth+1, kplan)
	case *materializeNode:
		line("MaterializeCTE %s (refs=%d)", n.name, n.uses)
		describePlan(b, n.child, depth+1, kplan)
	default:
		line("%T", node)
	}
}
