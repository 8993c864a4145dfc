package sqlengine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Morsel-driven parallel execution. A parallel-capable pipeline splits
// its base scan into fixed-size morsels (contiguous row ranges, served
// as column slices, of the backing table store); worker goroutines claim morsels from a shared
// atomic dispenser and run the whole pipeline — scan, filters,
// projections, hash-join probes — over each claimed morsel with
// worker-private compiled expressions and scratch batches. Blocking
// consumers (hash aggregation, the top-level result gather) fork the
// workers and join them before returning, so no goroutine outlives its
// operator and Close semantics are unchanged.
//
// Determinism: morsel boundaries depend only on the data (morselRows
// and the store length), never on the worker count, and every merge
// step consumes per-morsel results in morsel-index order. Floating
// point aggregation is therefore bitwise independent of how many
// workers ran — workers=1 executes the same morsel schedule serially —
// which keeps simulated amplitudes reproducible across machines with
// different core counts.
//
// Memory: workers reserve from the shared memBudget exactly like the
// serial operators. The parallel paths never spill themselves; when a
// reservation fails (beyond the operator's working-floor share) the
// whole operator aborts with errParallelFallback, releases everything
// it reserved, and the caller re-runs the serial out-of-core path, so
// the global budget and spilling behaviour are preserved.

const (
	// morselRows is the number of rows per morsel. A multiple of
	// batchSize large enough to amortize claim overhead while leaving
	// enough morsels to balance load across workers.
	morselRows = 8 * batchSize

	// minParallelMorsels gates morsel execution: below two morsels
	// there is nothing to balance and the serial path is faster.
	minParallelMorsels = 2
)

// errParallelFallback signals that a morsel-parallel operator gave up
// (memory pressure) and the caller should re-run the serial path, which
// knows how to spill.
var errParallelFallback = fmt.Errorf("sqlengine: internal: parallel operator fell back")

// morselStream is one worker's view of a parallelized pipeline.
// NextMorsel claims the next unprocessed morsel from the shared
// dispenser; NextBatch then drains the claimed morsel batch by batch
// (nil at morsel end). Streams of the same pipeline may be driven from
// different goroutines, but each individual stream is single-threaded.
type morselStream interface {
	// NextMorsel claims the next morsel, returning its index and
	// ok=false when the input is exhausted.
	NextMorsel() (int, bool, error)
	// NextBatch returns the next batch of the current morsel, or nil at
	// the end of the morsel. The batch is owned by the stream and valid
	// only until the next NextBatch or NextMorsel call.
	NextBatch() (*rowBatch, error)
	// Close releases the stream's resources. Idempotent.
	Close()
}

// parallelNode is implemented by plan operators that can split their
// execution into morsel streams. openParallel returns one stream per
// worker, or ok=false when this subtree cannot be morselized (spilled
// input, too few rows, unsupported operator) and the caller must use
// the serial open path.
type parallelNode interface {
	openParallel(ctx *execCtx, workers int) ([]morselStream, bool, error)
}

// aggWorkers is the worker count for parallel aggregation; the morsel
// path runs even at one worker so results never depend on Parallelism.
func aggWorkers(ctx *execCtx) int {
	if ctx.workers < 1 {
		return 1
	}
	return ctx.workers
}

// openMorselStreams attempts to open a plan subtree as morsel streams.
func openMorselStreams(n planNode, ctx *execCtx, workers int) ([]morselStream, bool, error) {
	pn, ok := n.(parallelNode)
	if !ok {
		return nil, false, nil
	}
	return pn.openParallel(ctx, workers)
}

func closeStreams(streams []morselStream) {
	for _, s := range streams {
		if s != nil {
			s.Close()
		}
	}
}

// morselDispenser hands out morsel indices of one table store to a set
// of scan streams. Claiming is a single atomic increment.
type morselDispenser struct {
	count int
	next  atomic.Int64
}

func (d *morselDispenser) claim() (int, bool) {
	i := int(d.next.Add(1)) - 1
	if i >= d.count {
		return 0, false
	}
	return i, true
}

// openParallel splits the scan into morsels. Only fully in-memory
// frozen stores are morselized (morselCount reports 0 for spilled
// stores, whose chunks are a sequential stream that cannot be
// range-partitioned). A morsel claim is a column-slice range — no row
// gathering.
func (n *storeScanNode) openParallel(ctx *execCtx, workers int) ([]morselStream, bool, error) {
	if n.ownStore {
		return nil, false, nil
	}
	if err := n.store.Freeze(); err != nil {
		return nil, false, err
	}
	count := n.store.morselCount()
	if count < minParallelMorsels {
		return nil, false, nil
	}
	d := &morselDispenser{count: count}
	streams := make([]morselStream, workers)
	for i := range streams {
		sc, err := n.store.morselScanner()
		if err != nil {
			return nil, false, err
		}
		streams[i] = &scanMorselStream{disp: d, scan: sc}
	}
	return streams, true, nil
}

// scanMorselStream drives one worker's store scanner over the morsels
// it claims from the shared dispenser.
type scanMorselStream struct {
	disp    *morselDispenser
	scan    *colMorselScan
	claimed bool
}

func (s *scanMorselStream) NextMorsel() (int, bool, error) {
	i, ok := s.disp.claim()
	if !ok {
		s.claimed = false
		return 0, false, nil
	}
	s.scan.setMorsel(i)
	s.claimed = true
	return i, true, nil
}

func (s *scanMorselStream) NextBatch() (*rowBatch, error) {
	if !s.claimed {
		return nil, nil
	}
	return s.scan.NextBatch()
}

func (s *scanMorselStream) Close() {}

// openParallel wraps each child stream with a worker-private compiled
// predicate (vecExpr scratch buffers are not shared across goroutines).
func (n *filterNode) openParallel(ctx *execCtx, workers int) ([]morselStream, bool, error) {
	children, ok, err := openMorselStreams(n.child, ctx, workers)
	if err != nil || !ok {
		return nil, ok, err
	}
	out := make([]morselStream, len(children))
	for i, c := range children {
		pred, err := ctx.compileVec(n.pred, n.child.schema())
		if err != nil {
			closeStreams(children)
			return nil, false, err
		}
		out[i] = &filterMorselStream{child: c, pred: pred}
	}
	return out, true, nil
}

// filterMorselStream narrows the child's selection vectors in place,
// exactly like the serial filterIter.
type filterMorselStream struct {
	child morselStream
	pred  vecExpr
	sel   []int
}

func (s *filterMorselStream) NextMorsel() (int, bool, error) { return s.child.NextMorsel() }

func (s *filterMorselStream) NextBatch() (*rowBatch, error) {
	for {
		b, err := s.child.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		sel := b.selection()
		vals, err := s.pred(b, sel)
		if err != nil {
			return nil, err
		}
		s.sel = s.sel[:0]
		for _, i := range sel {
			if ok, known := vals[i].Bool(); known && ok {
				s.sel = append(s.sel, i)
			}
		}
		if len(s.sel) == 0 {
			continue
		}
		b.sel = s.sel
		return b, nil
	}
}

func (s *filterMorselStream) Close() { s.child.Close() }

// openParallel gives each stream its own compiled output expressions
// and result batch.
func (n *projectNode) openParallel(ctx *execCtx, workers int) ([]morselStream, bool, error) {
	children, ok, err := openMorselStreams(n.child, ctx, workers)
	if err != nil || !ok {
		return nil, ok, err
	}
	out := make([]morselStream, len(children))
	for i, c := range children {
		compiled, err := ctx.compileVecAll(n.exprs, n.child.schema())
		if err != nil {
			closeStreams(children)
			return nil, false, err
		}
		out[i] = &projectMorselStream{child: c, exprs: compiled, out: &rowBatch{cols: make([]colVec, len(compiled))}}
	}
	return out, true, nil
}

type projectMorselStream struct {
	child morselStream
	exprs []vecExpr
	out   *rowBatch
}

func (s *projectMorselStream) NextMorsel() (int, bool, error) { return s.child.NextMorsel() }

func (s *projectMorselStream) NextBatch() (*rowBatch, error) {
	b, err := s.child.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	sel := b.selection()
	for i, e := range s.exprs {
		col, err := e(b, sel)
		if err != nil {
			return nil, err
		}
		s.out.cols[i] = col[:b.n]
	}
	s.out.n = b.n
	s.out.sel = sel
	return s.out, nil
}

func (s *projectMorselStream) Close() { s.child.Close() }

// openParallel on an alias is schema-only: streams pass through.
func (n *aliasNode) openParallel(ctx *execCtx, workers int) ([]morselStream, bool, error) {
	return openMorselStreams(n.child, ctx, workers)
}

// materializePlan executes a plan and materializes its output into a
// table store. When the plan is morsel-capable and more than one worker
// is configured, morsels are drained concurrently and their buffered
// batches appended in morsel order — the output row sequence is
// identical to the serial scan order. On memory pressure the parallel
// gather aborts and the serial (spilling) path re-runs the plan.
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
	if ctx.workers > 1 && !gatherWouldOverflow(ctx, node) {
		streams, ok, err := openMorselStreams(node, ctx, ctx.workers)
		if err != nil {
			return nil, err
		}
		if ok {
			store, err := gatherMorsels(ctx, streams, hint, collect)
			if err == nil {
				return store, nil
			}
			if err != errParallelFallback {
				return nil, err
			}
			// The serial path re-runs the plan from scratch; drop the
			// partial EXPLAIN ANALYZE counts of the aborted gather.
			resetPlanStats(node)
		}
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

// gatherWouldOverflow is the cost model's serial-vs-parallel gate: when
// the estimated result cannot fit in half the remaining budget, the
// parallel gather is doomed to abort into the serial spilling path
// after wasted work, so skip it up front. Bit-neutral: the gather
// appends morsels in morsel-index order, which is exactly the serial
// row order.
func gatherWouldOverflow(ctx *execCtx, node planNode) bool {
	limit := ctx.env.budget.Limit()
	if limit <= 0 {
		return false
	}
	est := planEstimateOf(node)
	if est == nil || est.rows < 0 {
		return false
	}
	estBytes := est.rows * estRowBytes(len(node.schema()))
	return estBytes > 0.5*float64(ctx.env.budget.Available())
}

// morselBuf is one drained morsel: its index, compacted column-major
// batches, and the budget bytes reserved for them.
type morselBuf struct {
	idx     int
	batches []*rowBatch
	bytes   int64
}

// batchBytes estimates the buffered footprint of a compacted batch
// (Value-slice columns), mirroring rowBytes for the same rows.
func batchBytes(b *rowBatch) int64 {
	n := int64(24 * b.rows())
	for i := range b.cols {
		col := b.cols[i]
		if b.sel == nil {
			for _, v := range col[:b.n] {
				n += 40 + int64(len(v.S))
			}
		} else {
			for _, p := range b.sel {
				n += 40 + int64(len(col[p].S))
			}
		}
	}
	return n
}

// compactBatch copies a batch into a dense (selection-free) column-major
// buffer that outlives the producing stream.
func compactBatch(b *rowBatch) *rowBatch {
	out := &rowBatch{cols: make([]colVec, len(b.cols)), n: b.rows()}
	for i, col := range b.cols {
		if b.sel == nil {
			out.cols[i] = append(colVec(nil), col[:b.n]...)
		} else {
			dst := make(colVec, 0, len(b.sel))
			for _, p := range b.sel {
				dst = append(dst, col[p])
			}
			out.cols[i] = dst
		}
	}
	return out
}

// gatherMorsels drains morsel streams concurrently, buffering each
// morsel's output as compacted column batches under the budget, then
// appends the buffers to a fresh store in morsel-index order (batch
// appends — no per-row materialization). The first failed reservation
// aborts the gather (errParallelFallback) — large results belong to the
// serial spilling path.
func gatherMorsels(ctx *execCtx, streams []morselStream, hint int64, collect bool) (*ColStore, error) {
	budget := ctx.env.budget
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		bufs     []morselBuf
		firstErr error
		abort    atomic.Bool
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		abort.Store(true)
	}
	for _, s := range streams {
		wg.Add(1)
		go func(s morselStream) {
			defer wg.Done()
			defer s.Close()
			var local []morselBuf
			defer func() {
				mu.Lock()
				bufs = append(bufs, local...)
				mu.Unlock()
			}()
			for !abort.Load() {
				if err := ctx.cancelled(); err != nil {
					fail(err)
					return
				}
				idx, ok, err := s.NextMorsel()
				if err != nil {
					fail(err)
					return
				}
				if !ok {
					return
				}
				mb := morselBuf{idx: idx}
				for {
					b, err := s.NextBatch()
					if err != nil {
						local = append(local, mb)
						fail(err)
						return
					}
					if b == nil {
						break
					}
					if b.rows() == 0 {
						continue
					}
					n := batchBytes(b)
					if !budget.tryReserve(n) {
						local = append(local, mb)
						fail(errParallelFallback)
						return
					}
					mb.bytes += n
					mb.batches = append(mb.batches, compactBatch(b))
				}
				local = append(local, mb)
			}
		}(s)
	}
	wg.Wait()
	if firstErr != nil {
		for _, mb := range bufs {
			budget.release(mb.bytes)
		}
		return nil, firstErr
	}
	sort.Slice(bufs, func(i, j int) bool { return bufs[i].idx < bufs[j].idx })
	store := ctx.env.newStore()
	if collect {
		store.stats = &tableStats{}
	}
	store.hintRows(hint)
	for k, mb := range bufs {
		// Hand the accounting to the store: release the gather
		// reservation, then AppendBatch re-reserves (or spills).
		budget.release(mb.bytes)
		for _, b := range mb.batches {
			if err := store.AppendBatch(b); err != nil {
				for _, rest := range bufs[k+1:] {
					budget.release(rest.bytes)
				}
				store.Release()
				return nil, err
			}
		}
	}
	if err := store.Freeze(); err != nil {
		store.Release()
		return nil, err
	}
	return store, nil
}
