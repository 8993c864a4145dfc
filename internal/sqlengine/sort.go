package sqlengine

import (
	"cmp"
	"container/heap"
	"slices"
	"sort"
)

// sortSpec is one ORDER BY key.
type sortSpec struct {
	expr Expr
	desc bool
}

// sortNode sorts its input. It consumes batches and accumulates rows in
// memory under the budget; on overflow it writes sorted runs to
// spillable stores (column runs) and merges them with a loser-tree
// style heap (external merge sort). When every key is a bare column reference — the common case after
// projection — rows are buffered as-is and compared by column index;
// otherwise the keys are evaluated vectorized and prepended to each
// buffered row. On the bare-column path, a buffer whose key values are
// all INTEGER is sorted as an int64 permutation (sortIntKeys) instead
// of through CompareTotal; the data alone selects it, and the order is
// the same. The sorted output is row-oriented internally (sorting
// permutes rows, so there is no column locality to preserve) and
// re-batched through the row adapter — the engine's one remaining
// row-oriented internal.
//
// Elision: a sort on one ASC column first follows it down through
// column-preserving wrappers (orderPreservingChild); when that reaches
// a column store whose append-time order bit (ColStore.ascendingInt)
// proves the column non-decreasing and NULL-free, the stable sort would
// be the identity, so open streams the child unchanged and buffers
// nothing. The bit comes from the appended rows, not from any operator
// — the gate-stage kernel's key-ordered final emission (kernel.go)
// and a table inserted in key order qualify alike. EXPLAIN ANALYZE
// marks an elided sort.
type sortNode struct {
	child planNode
	keys  []sortSpec
	est   *nodeEst
	// elided records that open streamed the child unchanged because it
	// was already in key order (EXPLAIN ANALYZE).
	elided bool
}

// ascKey resolves a sort on one ASC column to that column of the
// child's schema; ok is false for any other ORDER BY.
func (n *sortNode) ascKey() (planNode, int, bool) {
	if len(n.keys) != 1 || n.keys[0].desc {
		return nil, 0, false
	}
	idx, ok := simpleKeyIdx(n.keys, n.child.schema())
	if !ok {
		return nil, 0, false
	}
	return n.child, idx[0], true
}

// orderPreservingChild steps from n to its child when n passes column
// col through unchanged, row for row and in order — a statNode, an
// alias, or a projection whose expression at col is a bare column
// reference — and returns the child and the column's index there.
func orderPreservingChild(n planNode, col int) (planNode, int, bool) {
	switch n := n.(type) {
	case *statNode:
		return n.child, col, true
	case *aliasNode:
		return n.child, col, true
	case *projectNode:
		ref, ok := n.exprs[col].(*ColumnRef)
		if !ok {
			return nil, 0, false
		}
		idx, err := n.child.schema().resolveColumn(ref.Table, ref.Name)
		if err != nil {
			return nil, 0, false
		}
		return n.child, idx, true
	}
	return nil, 0, false
}

// inputOrdered reports whether the child already streams rows in key
// order: one ASC key that resolves through column-preserving wrappers
// to a scan of a column store whose appended values in that column
// are non-decreasing, NULL-free integers (ColStore.ascendingInt). A
// stable sort of such input is the identity.
func (n *sortNode) inputOrdered() bool {
	cur, col, ok := n.ascKey()
	for ok {
		if sc, isScan := cur.(*storeScanNode); isScan {
			return sc.store.ascendingInt(col)
		}
		cur, col, ok = orderPreservingChild(cur, col)
	}
	return false
}

func (n *sortNode) schema() planSchema { return n.child.schema() }

// rowCmp orders buffered (possibly key-prefixed) rows.
type rowCmp func(a, b Row) int

// prefixCmp compares the first nk values (the evaluated keys).
func prefixCmp(nk int, descs []bool) rowCmp {
	return func(a, b Row) int {
		for i := 0; i < nk; i++ {
			c := CompareTotal(a[i], b[i])
			if c != 0 {
				if descs[i] {
					return -c
				}
				return c
			}
		}
		return 0
	}
}

// indexCmp compares by column position, for key-less buffered rows.
func indexCmp(idx []int, descs []bool) rowCmp {
	return func(a, b Row) int {
		for i, k := range idx {
			c := CompareTotal(a[k], b[k])
			if c != 0 {
				if descs[i] {
					return -c
				}
				return c
			}
		}
		return 0
	}
}

// simpleKeyIdx resolves every sort key to a column index, or ok=false
// when some key is a computed expression.
func simpleKeyIdx(keys []sortSpec, schema planSchema) ([]int, bool) {
	idx := make([]int, len(keys))
	for i, k := range keys {
		cr, isCol := k.expr.(*ColumnRef)
		if !isCol {
			return nil, false
		}
		j, err := schema.resolveColumn(cr.Table, cr.Name)
		if err != nil {
			return nil, false
		}
		idx[i] = j
	}
	return idx, true
}

// intSortEnt is one buffered row in the typed sort: its first key and
// its buffer position (which breaks ties, making the sort stable).
type intSortEnt struct {
	k0  int64
	row int
}

// sortIntKeys stably sorts buf by the key columns idx when every key
// value in the buffer is an INTEGER, and reports whether it did; any
// other value (NULL, REAL, TEXT, BOOLEAN) leaves buf untouched for the
// generic CompareTotal sort. On all-integer keys CompareTotal is plain
// int64 order, so the two sorts produce the same permutation.
func sortIntKeys(buf []Row, idx []int, descs []bool) bool {
	if len(buf) < 2 {
		return true
	}
	nk := len(idx)
	ents := make([]intSortEnt, len(buf))
	var rest []int64 // keys 1..nk-1 of row r at rest[r*(nk-1):]
	if nk > 1 {
		rest = make([]int64, len(buf)*(nk-1))
	}
	for r, row := range buf {
		for k, c := range idx {
			v := row[c]
			if v.T != TypeInt {
				return false
			}
			if k == 0 {
				ents[r] = intSortEnt{k0: v.I, row: r}
			} else {
				rest[r*(nk-1)+k-1] = v.I
			}
		}
	}
	slices.SortFunc(ents, func(a, b intSortEnt) int {
		if c := cmp.Compare(a.k0, b.k0); c != 0 {
			if descs[0] {
				return -c
			}
			return c
		}
		for k := 1; k < nk; k++ {
			c := cmp.Compare(rest[a.row*(nk-1)+k-1], rest[b.row*(nk-1)+k-1])
			if c != 0 {
				if descs[k] {
					return -c
				}
				return c
			}
		}
		return cmp.Compare(a.row, b.row)
	})
	// Apply the permutation in place, cycle by cycle (row = -1 marks a
	// placed entry): buf[i] becomes the old buf[ents[i].row].
	for i := range ents {
		if ents[i].row < 0 {
			continue
		}
		tmp := buf[i]
		j := i
		for {
			k := ents[j].row
			ents[j].row = -1
			if k == i {
				buf[j] = tmp
				break
			}
			buf[j] = buf[k]
			j = k
		}
	}
	return true
}

func (n *sortNode) open(ctx *execCtx) (batchIter, error) {
	if n.elided = n.inputOrdered(); n.elided {
		return n.child.open(ctx)
	}
	schema := n.child.schema()
	width := len(schema)
	descs := make([]bool, len(n.keys))
	for i, k := range n.keys {
		descs[i] = k.desc
	}

	var compiled []vecExpr
	var cmp rowCmp
	nk := 0
	idx, simple := simpleKeyIdx(n.keys, schema)
	if simple {
		cmp = indexCmp(idx, descs)
	} else {
		keyExprs := make([]Expr, len(n.keys))
		for i, k := range n.keys {
			keyExprs[i] = k.expr
		}
		var err error
		compiled, err = ctx.compileVecAll(keyExprs, schema)
		if err != nil {
			return nil, err
		}
		nk = len(compiled)
		cmp = prefixCmp(nk, descs)
	}

	child, err := n.child.open(ctx)
	if err != nil {
		return nil, err
	}
	defer child.Close()

	budget := ctx.env.budget

	var buf []Row // each row is [keys..., original...] (keys empty on the fast path)
	var bufBytes int64
	var runs []*ColStore
	failAll := func(err error) (batchIter, error) {
		budget.release(bufBytes)
		releaseStores(runs)
		return nil, err
	}

	sortBuf := func() {
		if simple && sortIntKeys(buf, idx, descs) {
			return
		}
		sort.SliceStable(buf, func(a, b int) bool { return cmp(buf[a], buf[b]) < 0 })
	}
	flushRun := func() error {
		sortBuf()
		run := ctx.env.newStore()
		for _, r := range buf {
			if err := run.Append(r); err != nil {
				run.Release()
				return err
			}
		}
		if err := run.Freeze(); err != nil {
			run.Release()
			return err
		}
		runs = append(runs, run)
		budget.release(bufBytes)
		buf = buf[:0]
		bufBytes = 0
		return nil
	}

	keyCols := make([]colVec, nk)
	// Buffered rows are carved out of one slab per input batch instead
	// of one allocation per row.
	w := nk + width
	for {
		if err := ctx.cancelled(); err != nil {
			return failAll(err)
		}
		b, err := child.NextBatch()
		if err != nil {
			return failAll(err)
		}
		if b == nil {
			break
		}
		sel := b.selection()
		for i, c := range compiled {
			col, err := c(b, sel)
			if err != nil {
				return failAll(err)
			}
			keyCols[i] = col
		}
		slab := make([]Value, w*len(sel))
		for _, pos := range sel {
			keyed := Row(slab[:w:w])
			slab = slab[w:]
			for i := 0; i < nk; i++ {
				keyed[i] = keyCols[i][pos]
			}
			b.gather(pos, keyed[nk:])
			need := rowBytes(keyed)
			if !budget.tryReserve(need) {
				// Claim the working floor before breaking a run so runs
				// stay reasonably sized even when tables hold the budget.
				if bufBytes+need <= ctx.env.workingFloor {
					budget.reserveForce(need)
				} else {
					if !ctx.env.spillEnabled {
						return failAll(ErrBudget)
					}
					if err := flushRun(); err != nil {
						return failAll(err)
					}
					budget.reserveForce(need)
				}
			}
			bufBytes += need
			buf = append(buf, keyed)
		}
	}

	if len(runs) == 0 {
		sortBuf()
		return newRowAdapter(&sortedBufIter{buf: buf, nk: nk, budget: budget, bytes: bufBytes}, width), nil
	}
	if len(buf) > 0 {
		if err := flushRun(); err != nil {
			return failAll(err)
		}
	}
	m := &mergeIter{nk: nk, cmp: cmp, runs: runs}
	if err := m.init(); err != nil {
		return failAll(err)
	}
	return newRowAdapter(m, width), nil
}

// sortedBufIter streams an in-memory sorted buffer, stripping key
// prefixes.
type sortedBufIter struct {
	buf    []Row
	pos    int
	nk     int
	budget *MemBudget
	bytes  int64
}

func (it *sortedBufIter) Next() (Row, bool, error) {
	if it.pos >= len(it.buf) {
		return nil, false, nil
	}
	r := it.buf[it.pos]
	it.pos++
	return r[it.nk:], true, nil
}

func (it *sortedBufIter) Close() {
	if it.buf != nil {
		it.budget.release(it.bytes)
		it.buf = nil
	}
}

// mergeIter k-way merges sorted runs, reading each through its store's
// row cursor.
type mergeIter struct {
	nk   int
	cmp  rowCmp
	runs []*ColStore
	heap mergeHeap
}

type mergeEntry struct {
	row Row
	src *colCursor
	seq int // run index; breaks ties to keep the merge stable
}

type mergeHeap struct {
	entries []mergeEntry
	cmp     rowCmp
}

func (h *mergeHeap) Len() int { return len(h.entries) }
func (h *mergeHeap) Less(a, b int) bool {
	c := h.cmp(h.entries[a].row, h.entries[b].row)
	if c != 0 {
		return c < 0
	}
	return h.entries[a].seq < h.entries[b].seq
}
func (h *mergeHeap) Swap(a, b int) { h.entries[a], h.entries[b] = h.entries[b], h.entries[a] }
func (h *mergeHeap) Push(x any)    { h.entries = append(h.entries, x.(mergeEntry)) }
func (h *mergeHeap) Pop() any {
	n := len(h.entries)
	e := h.entries[n-1]
	h.entries = h.entries[:n-1]
	return e
}

func (m *mergeIter) init() error {
	m.heap = mergeHeap{cmp: m.cmp}
	for i, run := range m.runs {
		it, err := run.Cursor()
		if err != nil {
			return err
		}
		row, ok, err := it.Next()
		if err != nil {
			return err
		}
		if ok {
			m.heap.entries = append(m.heap.entries, mergeEntry{row: row, src: it, seq: i})
		}
	}
	heap.Init(&m.heap)
	return nil
}

func (m *mergeIter) Next() (Row, bool, error) {
	if m.heap.Len() == 0 {
		return nil, false, nil
	}
	e := heap.Pop(&m.heap).(mergeEntry)
	out := e.row[m.nk:]
	next, ok, err := e.src.Next()
	if err != nil {
		return nil, false, err
	}
	if ok {
		heap.Push(&m.heap, mergeEntry{row: next, src: e.src, seq: e.seq})
	}
	return out, true, nil
}

func (m *mergeIter) Close() {
	releaseStores(m.runs)
	m.runs = nil
}
