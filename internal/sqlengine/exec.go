package sqlengine

import (
	"context"
	"fmt"
	"strings"

	"qymera/internal/obs"
)

// planCol names one output column of an operator: a qualifier (table
// alias, lowercase, possibly empty or synthetic like "#agg") and the
// column name.
type planCol struct {
	table string
	name  string
}

// planSchema is an operator's output schema; it doubles as the column
// resolver for expression compilation.
type planSchema []planCol

// resolveColumn finds the slot of a (possibly qualified) column. Schema
// names are stored lowercase, so a case-insensitive compare matches
// without lowering the lookup's copies; errors name the column in
// lowercase.
func (s planSchema) resolveColumn(table, name string) (int, error) {
	found := -1
	for i, c := range s {
		if !strings.EqualFold(c.name, name) {
			continue
		}
		if table != "" && !strings.EqualFold(c.table, table) {
			continue
		}
		if found >= 0 {
			if table == "" {
				return 0, fmt.Errorf("sqlengine: ambiguous column %q", strings.ToLower(name))
			}
			return 0, fmt.Errorf("sqlengine: ambiguous column %q.%q", strings.ToLower(table), strings.ToLower(name))
		}
		found = i
	}
	if found < 0 {
		if table != "" {
			return 0, fmt.Errorf("sqlengine: no such column %s.%s", strings.ToLower(table), strings.ToLower(name))
		}
		return 0, fmt.Errorf("sqlengine: no such column %s", strings.ToLower(name))
	}
	return found, nil
}

// hasTable reports whether the schema exposes the given qualifier.
func (s planSchema) hasTable(table string) bool {
	table = strings.ToLower(table)
	for _, c := range s {
		if c.table == table {
			return true
		}
	}
	return false
}

// rowIter is the legacy volcano iterator contract, kept for the row
// adapters at the engine's edges. Close must be idempotent and release
// all resources (spill files, budget reservations).
type rowIter interface {
	Next() (Row, bool, error)
	Close()
}

// planNode is a physical operator. open returns a vectorized batch
// iterator; materialize boundaries append batches column-at-a-time into
// the table store (ColStore.AppendBatch), and only the row-oriented
// cursor edges (ResultSet, driver) gather rows.
type planNode interface {
	schema() planSchema
	open(ctx *execCtx) (batchIter, error)
}

// execCtx carries per-statement execution state.
type execCtx struct {
	env    *storageEnv
	params []Value
	// ctx is the statement's cancellation context (nil means
	// non-cancellable). Operators poll cancelled() once per batch (a
	// fused kernel loop once per morselRows rows), so a cancelled
	// statement stops within one batch of work and unwinds through the
	// normal error paths, which release every budget reservation and
	// spill file.
	ctx context.Context
	// span is the tracing span carried on ctx (nil when untraced); the
	// statement attaches per-operator child spans to it after execution
	// (see trace_exec.go). sampleEvery is the trace's batch-sampling
	// stride for the operator timers.
	span        *obs.Span
	sampleEvery int
	// kexec records the last single-stage (gate-stage) kernel
	// execution of this statement and chainExec the last fused chain
	// (nil when none ran; see kernel_chain.go). EXPLAIN ANALYZE and
	// operator-span attachment both read them.
	kexec, chainExec *kernelRun
	// kdecline is the reason of the last run-time kernel decline (a
	// bind check or a refused budget reservation after the matcher
	// accepted the plan), "" when none happened.
	kdecline string
}

// cancelled reports the statement's cancellation state. It is polled at
// batch boundaries (~1k rows of work), never per row.
func (ctx *execCtx) cancelled() error {
	if ctx.ctx == nil {
		return nil
	}
	if err := ctx.ctx.Err(); err != nil {
		return fmt.Errorf("sqlengine: statement cancelled: %w", err)
	}
	return nil
}

func (ctx *execCtx) compile(e Expr, schema planSchema) (compiledExpr, error) {
	return compileExpr(e, &compileCtx{resolver: schema, params: ctx.params})
}

func (ctx *execCtx) compileVec(e Expr, schema planSchema) (vecExpr, error) {
	return compileVec(e, &compileCtx{resolver: schema, params: ctx.params})
}

func (ctx *execCtx) compileVecAll(exprs []Expr, schema planSchema) ([]vecExpr, error) {
	return compileVecAll(exprs, &compileCtx{resolver: schema, params: ctx.params})
}

// oneRowNode emits a single empty row; it backs FROM-less selects.
type oneRowNode struct{}

func (*oneRowNode) schema() planSchema { return nil }

func (*oneRowNode) open(*execCtx) (batchIter, error) { return &oneRowBatchIter{}, nil }

type oneRowBatchIter struct{ done bool }

func (it *oneRowBatchIter) NextBatch() (*rowBatch, error) {
	if it.done {
		return nil, nil
	}
	it.done = true
	return &rowBatch{n: 1}, nil
}

func (it *oneRowBatchIter) Close() {}

// storeScanNode scans a table store with a fixed schema. The store is
// owned elsewhere (a base table or a materialized CTE); ownStore marks
// stores that must be released when the iterator closes.
type storeScanNode struct {
	store    *ColStore
	cols     planSchema
	ownStore bool
	est      *nodeEst
	// fromKernel marks the scan the kernel tier swaps in over its
	// fused-loop result store (EXPLAIN ANALYZE and operator spans
	// label it as kernel output).
	fromKernel bool
}

func (n *storeScanNode) schema() planSchema { return n.cols }

func (n *storeScanNode) open(*execCtx) (batchIter, error) {
	sc, err := n.store.batchScan()
	if err != nil {
		return nil, err
	}
	return &storeScanIter{scan: sc, store: n.store, own: n.ownStore}, nil
}

// storeScanIter adapts a store's batch scan (column slices) to the
// batchIter contract, releasing owned stores on Close.
type storeScanIter struct {
	scan  *colScan
	store *ColStore
	own   bool
}

func (s *storeScanIter) NextBatch() (*rowBatch, error) { return s.scan.NextBatch() }

func (s *storeScanIter) Close() {
	if s.own && s.store != nil {
		s.store.Release()
		s.store = nil
	}
}

// newOwnedStoreIter wraps a result store in a batch iterator that
// releases it on Close.
func newOwnedStoreIter(store *ColStore) (batchIter, error) {
	sc, err := store.batchScan()
	if err != nil {
		store.Release()
		return nil, err
	}
	return &storeScanIter{scan: sc, store: store, own: true}, nil
}

// filterNode drops rows whose predicate is not true. Filtering is a
// selection-vector rewrite: the child's batch is passed through with a
// narrowed selection and no data movement.
type filterNode struct {
	child planNode
	pred  Expr
	est   *nodeEst
}

func (n *filterNode) schema() planSchema { return n.child.schema() }

func (n *filterNode) open(ctx *execCtx) (batchIter, error) {
	pred, err := ctx.compileVec(n.pred, n.child.schema())
	if err != nil {
		return nil, err
	}
	child, err := n.child.open(ctx)
	if err != nil {
		return nil, err
	}
	return &filterIter{child: child, pred: pred}, nil
}

type filterIter struct {
	child batchIter
	pred  vecExpr
	sel   []int // reusable output selection
}

func (it *filterIter) NextBatch() (*rowBatch, error) {
	for {
		b, err := it.child.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		sel := b.selection()
		vals, err := it.pred(b, sel)
		if err != nil {
			return nil, err
		}
		it.sel = it.sel[:0]
		for _, i := range sel {
			if ok, known := vals[i].Bool(); known && ok {
				it.sel = append(it.sel, i)
			}
		}
		if len(it.sel) == 0 {
			continue
		}
		b.sel = it.sel
		return b, nil
	}
}

func (it *filterIter) Close() { it.child.Close() }

// projectNode computes output expressions. The output batch aliases the
// expression result columns (and, for bare column references, the
// child's columns) — no per-row materialization happens here.
type projectNode struct {
	child planNode
	exprs []Expr
	cols  planSchema
	est   *nodeEst
}

func (n *projectNode) schema() planSchema { return n.cols }

func (n *projectNode) open(ctx *execCtx) (batchIter, error) {
	compiled, err := ctx.compileVecAll(n.exprs, n.child.schema())
	if err != nil {
		return nil, err
	}
	child, err := n.child.open(ctx)
	if err != nil {
		return nil, err
	}
	return &projectIter{child: child, exprs: compiled, out: &rowBatch{cols: make([]colVec, len(compiled))}}, nil
}

type projectIter struct {
	child batchIter
	exprs []vecExpr
	out   *rowBatch
}

func (it *projectIter) NextBatch() (*rowBatch, error) {
	b, err := it.child.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	sel := b.selection()
	for i, e := range it.exprs {
		col, err := e(b, sel)
		if err != nil {
			return nil, err
		}
		it.out.cols[i] = col[:b.n]
	}
	it.out.n = b.n
	it.out.sel = sel
	return it.out, nil
}

func (it *projectIter) Close() { it.child.Close() }

// sliceProjectNode projects by column index (used to strip hidden sort
// keys). The output batch shares the child's column storage.
type sliceProjectNode struct {
	child planNode
	keep  int // keep columns [0, keep)
	est   *nodeEst
}

func (n *sliceProjectNode) schema() planSchema { return n.child.schema()[:n.keep] }

func (n *sliceProjectNode) open(ctx *execCtx) (batchIter, error) {
	child, err := n.child.open(ctx)
	if err != nil {
		return nil, err
	}
	return &sliceProjectIter{child: child, keep: n.keep, out: &rowBatch{}}, nil
}

type sliceProjectIter struct {
	child batchIter
	keep  int
	out   *rowBatch
}

func (it *sliceProjectIter) NextBatch() (*rowBatch, error) {
	b, err := it.child.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	it.out.cols = b.cols[:it.keep]
	it.out.n = b.n
	it.out.sel = b.sel
	return it.out, nil
}

func (it *sliceProjectIter) Close() { it.child.Close() }

// limitNode implements LIMIT/OFFSET with precomputed counts (-1 = none).
type limitNode struct {
	child         planNode
	limit, offset Expr
	est           *nodeEst
}

func (n *limitNode) schema() planSchema { return n.child.schema() }

func (n *limitNode) open(ctx *execCtx) (batchIter, error) {
	eval := func(e Expr) (int64, error) {
		if e == nil {
			return -1, nil
		}
		c, err := ctx.compile(e, nil)
		if err != nil {
			return 0, err
		}
		v, err := c(nil)
		if err != nil {
			return 0, err
		}
		if v.IsNull() {
			return -1, nil
		}
		return v.AsInt()
	}
	limit, err := eval(n.limit)
	if err != nil {
		return nil, err
	}
	offset, err := eval(n.offset)
	if err != nil {
		return nil, err
	}
	if offset < 0 {
		offset = 0
	}
	child, err := n.child.open(ctx)
	if err != nil {
		return nil, err
	}
	return &limitIter{child: child, limit: limit, offset: offset}, nil
}

// limitIter trims batch selection vectors: it skips the first offset
// selected rows and passes through at most limit rows in total.
type limitIter struct {
	child         batchIter
	limit, offset int64
	emitted       int64
}

func (it *limitIter) NextBatch() (*rowBatch, error) {
	for {
		if it.limit >= 0 && it.emitted >= it.limit {
			return nil, nil
		}
		b, err := it.child.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		sel := b.selection()
		if it.offset > 0 {
			if int64(len(sel)) <= it.offset {
				it.offset -= int64(len(sel))
				continue
			}
			sel = sel[it.offset:]
			it.offset = 0
		}
		if it.limit >= 0 {
			remain := it.limit - it.emitted
			if int64(len(sel)) > remain {
				sel = sel[:remain]
			}
		}
		if len(sel) == 0 {
			continue
		}
		it.emitted += int64(len(sel))
		b.sel = sel
		return b, nil
	}
}

func (it *limitIter) Close() { it.child.Close() }

// planChildren returns a physical node's children (the shared walk
// behind EXPLAIN ANALYZE instrumentation and counter resets; mirrors
// lchildren for the logical tree). Nodes not listed are leaves — a
// materializeNode too: its subplan runs, and is traced, on its own
// (planner.materialize).
func planChildren(node planNode) []planNode {
	switch n := node.(type) {
	case *filterNode:
		return []planNode{n.child}
	case *projectNode:
		return []planNode{n.child}
	case *sliceProjectNode:
		return []planNode{n.child}
	case *joinNode:
		return []planNode{n.left, n.right}
	case *aggNode:
		return []planNode{n.child}
	case *sortNode:
		return []planNode{n.child}
	case *limitNode:
		return []planNode{n.child}
	case *aliasNode:
		return []planNode{n.child}
	case *statNode:
		return []planNode{n.child}
	}
	return nil
}

// materializePlan executes a plan and materializes its output into a
// table store.
func materializePlan(ctx *execCtx, node planNode) (*ColStore, error) {
	return materializePlanCollect(ctx, node, false)
}

// materializePlanCollect is materializePlan with two extensions: the
// kernel-tier hook (a plan matching the gate-stage shape runs as a
// compiled kernel, either entirely or as a swapped-in subtree; see
// kernel.go) and optional statistics collection on the result store
// (CTAS materialization).
func materializePlanCollect(ctx *execCtx, node planNode, collect bool) (*ColStore, error) {
	var kstore *ColStore
	if ctx.env.kernels {
		result, swapped, err := kernelAttempt(ctx, node, collect)
		if err != nil {
			return nil, err
		}
		if result != nil {
			return result, nil
		}
		kstore = swapped
	}
	store, err := materializePlanExec(ctx, node, collect)
	if err != nil && kstore != nil {
		// The swapped-in kernel store is normally released by its scan
		// iterator; an error before that scan opened would strand it.
		// Release is idempotent, so releasing again here is safe.
		kstore.Release()
	}
	return store, err
}

func materializePlanExec(ctx *execCtx, node planNode, collect bool) (*ColStore, error) {
	var hint int64
	if est := planEstimateOf(node); est != nil && est.rows > 0 {
		// Budget-clamped like the hash-table hints: a misestimate must
		// not pre-allocate column capacity beyond a small budget.
		hint = hintForBudget(est.rows, ctx.env.budget)
	}
	it, err := node.open(ctx)
	if err != nil {
		return nil, err
	}
	store, err := materializeCollect(ctx, it, hint, collect)
	it.Close()
	return store, err
}

// planEstimateOf reads the cost model's annotation off a physical node
// (nil when the node carries none).
func planEstimateOf(node planNode) *nodeEst {
	switch n := node.(type) {
	case *storeScanNode:
		return n.est
	case *filterNode:
		return n.est
	case *projectNode:
		return n.est
	case *sliceProjectNode:
		return n.est
	case *joinNode:
		return n.est
	case *aggNode:
		return n.est
	case *sortNode:
		return n.est
	case *limitNode:
		return n.est
	case *aliasNode:
		return n.est
	case *statNode:
		return planEstimateOf(n.child)
	}
	return nil
}

// materialize drains a batch iterator into a fresh store, the
// batch-in, column-vectors-out boundary: no per-row materialization.
// hint, when positive, is the cost model's estimated result size and
// pre-sizes the store's column vectors. Cancellation is checked once
// per drained batch.
func materialize(ctx *execCtx, it batchIter, hint int64) (*ColStore, error) {
	return materializeCollect(ctx, it, hint, false)
}

// materializeCollect optionally attaches a statistics collector to the
// result store before draining (CTAS materialization: the created
// table then has exact statistics without an ANALYZE rescan).
func materializeCollect(ctx *execCtx, it batchIter, hint int64, collect bool) (*ColStore, error) {
	store := ctx.env.newStore()
	if collect {
		store.stats = &tableStats{}
	}
	store.hintRows(hint)
	for {
		if err := ctx.cancelled(); err != nil {
			store.Release()
			return nil, err
		}
		b, err := it.NextBatch()
		if err != nil {
			store.Release()
			return nil, err
		}
		if b == nil {
			break
		}
		if err := store.AppendBatch(b); err != nil {
			store.Release()
			return nil, err
		}
	}
	if err := store.Freeze(); err != nil {
		store.Release()
		return nil, err
	}
	return store, nil
}
