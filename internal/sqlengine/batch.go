package sqlengine

// Vectorized batch execution. Operators exchange rowBatch values —
// column-major slices of Value plus a selection vector — instead of one
// Row per Next call. A batch is owned by the iterator that produced it
// and is valid only until the next NextBatch call; consumers that need
// data beyond that must copy (materializeRow). Filters narrow the
// selection vector in place (zero-copy), projections alias expression
// result columns, and only the blocking operators (join, aggregate,
// sort) and the final result surface gather batches back into rows.

// batchSize is the target number of rows per batch. 1024 keeps a batch
// of a few columns inside the L2 cache while amortizing per-batch
// dispatch to a negligible cost per row.
const batchSize = 1024

// rowBatch is a column-major block of rows.
//
// cols holds one []Value per output column; all columns share the same
// physical length n. sel, when non-nil, lists the physical row positions
// that are logically present, in order; nil means all of [0, n).
// Expression evaluation and row gathering index columns by physical
// position, so filtering is a selection-vector rewrite with no data
// movement.
type rowBatch struct {
	cols []colVec
	n    int
	sel  []int

	idsel []int // cached identity selection, grown lazily
}

// colVec is one column of a batch.
type colVec []Value

// newRowBatch allocates a batch with the given column count and capacity
// for batchSize rows.
func newRowBatch(width int) *rowBatch {
	b := &rowBatch{cols: make([]colVec, width)}
	for i := range b.cols {
		b.cols[i] = make(colVec, 0, batchSize)
	}
	return b
}

// reset clears the batch for refilling while keeping column capacity.
func (b *rowBatch) reset() {
	for i := range b.cols {
		b.cols[i] = b.cols[i][:0]
	}
	b.n = 0
	b.sel = nil
}

// width returns the number of columns.
func (b *rowBatch) width() int { return len(b.cols) }

// rows returns the logical (selected) row count.
func (b *rowBatch) rows() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// full reports whether the batch reached the target size.
func (b *rowBatch) full() bool { return b.n >= batchSize }

// appendRow copies one row into the batch. The row width must match the
// batch width.
func (b *rowBatch) appendRow(r Row) {
	for i := range b.cols {
		b.cols[i] = append(b.cols[i], r[i])
	}
	b.n++
}

// selection returns the active selection vector, materializing the
// identity selection when all rows are selected.
func (b *rowBatch) selection() []int {
	if b.sel != nil {
		return b.sel
	}
	if cap(b.idsel) < b.n {
		b.idsel = make([]int, 0, batchSize)
		for i := 0; i < cap(b.idsel); i++ {
			b.idsel = append(b.idsel, i)
		}
	}
	for len(b.idsel) < b.n {
		b.idsel = append(b.idsel, len(b.idsel))
	}
	return b.idsel[:b.n]
}

// gather copies the values at physical position pos into buf, which must
// have the batch's width.
func (b *rowBatch) gather(pos int, buf Row) {
	for i := range b.cols {
		buf[i] = b.cols[i][pos]
	}
}

// materializeRow allocates a fresh Row holding the values at physical
// position pos. Use it when a row must outlive the batch.
func (b *rowBatch) materializeRow(pos int) Row {
	out := make(Row, len(b.cols))
	b.gather(pos, out)
	return out
}

// batchIter is the vectorized iterator contract. NextBatch returns the
// next batch, or (nil, nil) at the end of the stream; the returned batch
// is only valid until the following NextBatch call. Close must be
// idempotent and release all resources (spill files, budget
// reservations) even when the stream has not been drained.
type batchIter interface {
	NextBatch() (*rowBatch, error)
	Close()
}

// batchAppender accumulates rows into a reusable column-major scratch
// batch and flushes it to a table store in batchSize chunks, so
// blocking operators that produce output row-at-a-time (hash
// aggregation emit loops) still cross the materialize boundary as
// column vectors with no per-row allocation. Callers may reuse the same
// Row buffer across appendRow calls: values are copied immediately.
type batchAppender struct {
	store tableStore
	buf   *rowBatch
}

func newBatchAppender(store tableStore, width int) *batchAppender {
	return &batchAppender{store: store, buf: newRowBatch(width)}
}

func (a *batchAppender) appendRow(r Row) error {
	a.buf.appendRow(r)
	if a.buf.full() {
		return a.flush()
	}
	return nil
}

// flush pushes buffered rows to the store; call once more at the end.
func (a *batchAppender) flush() error {
	if a.buf.n == 0 {
		return nil
	}
	err := a.store.AppendBatch(a.buf)
	a.buf.reset()
	return err
}

// rowAdapter adapts a row-at-a-time iterator to the batch contract. It
// is the engine's one remaining row-oriented internal adapter, kept for
// the external sort's output (sorted buffers and run merges produce
// rows; see sort.go) — every other operator boundary exchanges batches
// or appends them straight into column vectors.
type rowAdapter struct {
	src   rowIter
	buf   *rowBatch
	width int
	done  bool
}

func newRowAdapter(src rowIter, width int) *rowAdapter {
	return &rowAdapter{src: src, width: width}
}

func (a *rowAdapter) NextBatch() (*rowBatch, error) {
	if a.done {
		return nil, nil
	}
	if a.buf == nil {
		a.buf = newRowBatch(a.width)
	}
	a.buf.reset()
	for !a.buf.full() {
		row, ok, err := a.src.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			a.done = true
			break
		}
		a.buf.appendRow(row)
	}
	if a.buf.n == 0 {
		return nil, nil
	}
	return a.buf, nil
}

func (a *rowAdapter) Close() { a.src.Close() }
