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
	// workers is the morsel-parallel worker count for this statement
	// (>= 1; 1 means the morsel schedule runs serially).
	workers int
	// ctx is the statement's cancellation context (nil means
	// non-cancellable). Operators poll cancelled() at batch and morsel
	// boundaries, so a cancelled statement stops within one batch of
	// work and unwinds through the normal error paths, which release
	// every budget reservation and spill file.
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
// batch/morsel boundaries (~1k rows of work), never per row.
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
// stores that must be released when the iterator closes. keep, when
// non-nil, is the pruned physical column subset the scan serves (the
// columnar store skips decoding the dropped columns entirely; other
// stores are wrapped with a zero-copy column pick).
type storeScanNode struct {
	store tableStore
	cols  planSchema
	keep  []int
	// fullCols is the store's unpruned column count (EXPLAIN's pruning
	// annotation; the row layout cannot report it itself).
	fullCols int
	ownStore bool
	est      *nodeEst
	// fromKernel marks the scan the kernel tier swaps in over its
	// fused-loop result store (EXPLAIN ANALYZE and operator spans
	// label it as kernel output).
	fromKernel bool
}

func (n *storeScanNode) schema() planSchema { return n.cols }

// prunableStore is the optional storage fast path for column-pruned
// scans (implemented by ColStore: pruned columns are never decoded).
type prunableStore interface {
	batchScanCols(keep []int) (storeScan, error)
	morselScannerCols(keep []int) (morselScanner, error)
}

func (n *storeScanNode) open(*execCtx) (batchIter, error) {
	var sc storeScan
	var err error
	if n.keep != nil {
		if ps, ok := n.store.(prunableStore); ok {
			sc, err = ps.batchScanCols(n.keep)
		} else {
			sc, err = n.store.batchScan()
			if err == nil {
				sc = newPickScan(sc, n.keep)
			}
		}
	} else {
		sc, err = n.store.batchScan()
	}
	if err != nil {
		return nil, err
	}
	return &storeScanIter{scan: sc, store: n.store, own: n.ownStore}, nil
}

// pickBatch aliases the idxs-selected columns of b into out (zero copy;
// the shared body of every column-pick adapter). A nil or error input
// passes through.
func pickBatch(out, b *rowBatch, idxs []int, err error) (*rowBatch, error) {
	if err != nil || b == nil {
		return nil, err
	}
	for i, k := range idxs {
		out.cols[i] = b.cols[k]
	}
	out.n = b.n
	out.sel = b.sel
	return out, nil
}

// pickScan serves a column subset of an underlying scan without copying
// data: the output batch aliases the picked column vectors.
type pickScan struct {
	src  storeScan
	keep []int
	out  *rowBatch
}

func newPickScan(src storeScan, keep []int) *pickScan {
	return &pickScan{src: src, keep: keep, out: &rowBatch{cols: make([]colVec, len(keep))}}
}

func (s *pickScan) NextBatch() (*rowBatch, error) {
	b, err := s.src.NextBatch()
	return pickBatch(s.out, b, s.keep, err)
}

// storeScanIter adapts a store's batch scan — column slices for the
// columnar layout, transposed rows for the legacy row layout — to the
// batchIter contract, releasing owned stores on Close.
type storeScanIter struct {
	scan  storeScan
	store tableStore
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
func newOwnedStoreIter(store tableStore) (batchIter, error) {
	sc, err := store.batchScan()
	if err != nil {
		store.Release()
		return nil, err
	}
	return &storeScanIter{scan: sc, store: store, own: true}, nil
}

// filterNode drops rows whose predicate is not true. Filtering is a
// selection-vector rewrite: the child's batch is passed through with a
// narrowed selection and no data movement. pushed marks a filter the
// optimizer pushed into its scan (for EXPLAIN).
type filterNode struct {
	child  planNode
	pred   Expr
	pushed bool
	est    *nodeEst
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

// pickNode projects by column index with zero copying: the output batch
// aliases the child's column vectors. The optimizer inserts it to
// restore column order after a build-side flip or join reorder.
type pickNode struct {
	child planNode
	idxs  []int
	cols  planSchema
	est   *nodeEst
}

func (n *pickNode) schema() planSchema { return n.cols }

func (n *pickNode) open(ctx *execCtx) (batchIter, error) {
	child, err := n.child.open(ctx)
	if err != nil {
		return nil, err
	}
	return &pickIter{child: child, idxs: n.idxs, out: &rowBatch{cols: make([]colVec, len(n.idxs))}}, nil
}

type pickIter struct {
	child batchIter
	idxs  []int
	out   *rowBatch
}

func (it *pickIter) NextBatch() (*rowBatch, error) {
	b, err := it.child.NextBatch()
	return pickBatch(it.out, b, it.idxs, err)
}

func (it *pickIter) Close() { it.child.Close() }

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
	case *pickNode:
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

// rowCapacityHinter is the optional storage interface for cost-model
// capacity hints (ColStore pre-sizes its typed vectors).
type rowCapacityHinter interface {
	hintRows(int64)
}

// materialize drains a batch iterator into a fresh store in the
// engine's configured layout. With the columnar layout this is the
// batch-in, column-vectors-out boundary: no per-row materialization.
// hint, when positive, is the cost model's estimated result size and
// pre-sizes the store's column vectors. Cancellation is checked once
// per drained batch.
func materialize(ctx *execCtx, it batchIter, hint int64) (tableStore, error) {
	return materializeCollect(ctx, it, hint, false)
}

// materializeCollect optionally attaches a statistics collector to the
// result store before draining (CTAS materialization: the created
// table then has exact statistics without an ANALYZE rescan).
func materializeCollect(ctx *execCtx, it batchIter, hint int64, collect bool) (tableStore, error) {
	store := ctx.env.newStore()
	if collect {
		attachStats(store)
	}
	if hint > 0 {
		if h, ok := store.(rowCapacityHinter); ok {
			h.hintRows(hint)
		}
	}
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
