package sqlengine

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
)

// Storage layer contract. Tables, materialized results, sort runs, and
// grace partitions are all tableStores: append-then-read sequences of
// rows with a bounded in-memory representation that spills to disk when
// the engine-wide budget is exceeded.
//
// Two layouts implement the contract. The default ColStore
// (colstore.go) keeps typed column vectors — int64 / float64 / string /
// bool with null bitmaps — appends whole batches without per-row
// materialization, and serves scans as column slices. The legacy
// RowStore (rowstore.go) keeps []Row and survives as the alternate
// layout for differential testing (Config.Layout = "row"): every query
// must produce bitwise-identical results on both.

// Layout names accepted by Config.Layout and the DSN "layout" param.
const (
	LayoutColumnar = "columnar"
	LayoutRow      = "row"
)

// MemBudget is the engine-wide memory accountant. Operators and table
// stores reserve estimated bytes before buffering rows in memory; when a
// reservation would exceed the budget the caller must spill (or fail if
// spilling is disabled). A zero or negative limit means unlimited.
//
// A budget may be shared across engine instances (Config.Budget): a
// simulation service hands every per-request DB the same budget, so
// concurrent queries compete for one global memory pool and the service
// can admission-control new work against Available().
type MemBudget struct {
	limit int64
	used  atomic.Int64
	peak  atomic.Int64
}

// NewMemBudget returns a budget capping reservations at limit bytes
// (zero or negative means unlimited). The result may be shared by many
// engine instances via Config.Budget.
func NewMemBudget(limit int64) *MemBudget { return &MemBudget{limit: limit} }

func newMemBudget(limit int64) *MemBudget { return NewMemBudget(limit) }

// Limit returns the configured cap in bytes (<= 0 means unlimited).
func (b *MemBudget) Limit() int64 { return b.limit }

// Used returns the currently reserved bytes.
func (b *MemBudget) Used() int64 { return b.used.Load() }

// Peak returns the reservation high-water mark.
func (b *MemBudget) Peak() int64 { return b.peak.Load() }

// Available returns the bytes still reservable, or math.MaxInt64 when
// the budget is unlimited.
func (b *MemBudget) Available() int64 {
	if b.limit <= 0 {
		return math.MaxInt64
	}
	if free := b.limit - b.used.Load(); free > 0 {
		return free
	}
	return 0
}

// tryReserve attempts to reserve n bytes, reporting false when the budget
// would be exceeded.
func (b *MemBudget) tryReserve(n int64) bool {
	for {
		cur := b.used.Load()
		next := cur + n
		if b.limit > 0 && next > b.limit {
			return false
		}
		if b.used.CompareAndSwap(cur, next) {
			b.updatePeak(next)
			return true
		}
	}
}

// reserveForce reserves unconditionally (used for small bookkeeping).
func (b *MemBudget) reserveForce(n int64) {
	v := b.used.Add(n)
	b.updatePeak(v)
}

func (b *MemBudget) release(n int64) { b.used.Add(-n) }

func (b *MemBudget) updatePeak(v int64) {
	for {
		p := b.peak.Load()
		if v <= p || b.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// storageEnv bundles what table stores need: the shared budget, spill
// configuration, and counters.
type storageEnv struct {
	budget       *MemBudget
	spillDir     string
	spillEnabled bool
	// rowLayout selects the legacy row-major RowStore for every table
	// store the engine creates (Config.Layout = "row").
	rowLayout bool
	// optimizer enables the query optimizer (Config.Optimizer).
	optimizer bool
	// kernels enables the compiled gate-stage kernel tier
	// (Config.Kernels; see kernel.go), and kernelCache holds its
	// compiled programs (the process-wide cache unless
	// Config.KernelCache names another).
	kernels     bool
	kernelCache *KernelCache
	// fusion enables whole-circuit chain fusion on top of the kernel
	// tier (Config.Fusion; see kernel_chain.go).
	fusion bool
	// kernelCtrs / storageCtrs are this engine instance's own counter
	// scopes (every increment also feeds the process-wide aggregates;
	// see kernelCounterSet and storageCounterSet).
	kernelCtrs  *kernelCounterSet
	storageCtrs *storageCounterSet
	// encodings enables the sparsity-first storage tier: the sparse
	// float encoding at materialization (Config.Encodings; see
	// encoding.go).
	encodings bool
	// tracing enables per-operator span instrumentation for statements
	// whose context carries an obs span (Config.Tracing; see
	// trace_exec.go).
	tracing bool
	// workers is the engine's morsel-parallel worker count (>= 1).
	workers int
	// workingFloor is the number of bytes a blocking operator (hash
	// join build, hash aggregation, sort buffer) may force-reserve even
	// when the budget is exhausted by table storage. Without it, grace
	// partitioning could not make progress once tables fill the budget.
	// The budget is therefore a soft cap: peak usage can briefly exceed
	// it by up to one working floor per active operator.
	workingFloor int64
	spilledRows  atomic.Int64
	spilledBytes atomic.Int64
	spillFiles   atomic.Int64
}

// newStore creates a table store in the engine's configured layout.
func (env *storageEnv) newStore() tableStore {
	if env.rowLayout {
		return newRowStore(env)
	}
	return newColStore(env)
}

// layoutName reports the configured layout for EXPLAIN.
func (env *storageEnv) layoutName() string {
	if env.rowLayout {
		return LayoutRow
	}
	return LayoutColumnar
}

// ErrBudget is returned when memory is exhausted and spilling is off.
// Every path that reports it returns it as is or wraps it with %w, so
// callers detect it with errors.Is.
var ErrBudget = fmt.Errorf("sqlengine: memory budget exceeded and spilling is disabled")

// tableStore is the storage contract shared by the columnar ColStore and
// the legacy row-major RowStore. A store is write-only until Freeze and
// read-only afterwards (Thaw reopens it for appending); Release must
// free every budget reservation and spill file even mid-read.
type tableStore interface {
	// Append adds one row; the store takes ownership of the slice.
	Append(Row) error
	// AppendBatch appends every selected row of a batch. The columnar
	// store copies column vectors directly; the row store gathers (its
	// documented layout cost).
	AppendBatch(*rowBatch) error
	Len() int64
	Spilled() bool
	Freeze() error
	Thaw()
	Release()

	// layout and vectorKinds describe the physical format for EXPLAIN:
	// the layout name and, for the columnar store, the per-column vector
	// type (nil for the row layout or an empty store).
	layout() string
	vectorKinds() []string

	// Cursor returns a row-at-a-time reader — the one gather adapter at
	// the engine's row-oriented edges (ResultSet, database/sql driver,
	// external sort-run merging, grace-partition iteration). Freezes the
	// store; multiple concurrent cursors are allowed once frozen.
	Cursor() (rowCursor, error)
	// batchScan returns a batch-at-a-time reader over all rows (spilled
	// prefix first, then the in-memory tail). Freezes the store.
	batchScan() (storeScan, error)

	// morselCount is the number of fixed-size morsels the store splits
	// into for parallel scans, or 0 when the store cannot be morselized
	// (spilled to disk). Boundaries depend only on the data, never on
	// the worker count.
	morselCount() int
	// morselScanner returns a per-worker scanner over individual
	// morsels. Freezes the store; only valid when morselCount() > 0.
	morselScanner() (morselScanner, error)
}

// rowCursor walks a frozen store row by row. Returned rows are owned by
// the caller (the columnar cursor gathers fresh rows; the row store
// returns its stored slices, which callers treat as read-only or clone).
type rowCursor interface {
	Next() (Row, bool, error)
}

// storeScan reads a frozen store batch-at-a-time. The returned batch is
// owned by the scan and valid only until the next NextBatch call; nil
// signals the end.
type storeScan interface {
	NextBatch() (*rowBatch, error)
}

// morselScanner reads one claimed morsel at a time: setMorsel positions
// the scanner, NextBatch drains the morsel in batches (nil at morsel
// end). Each scanner is single-threaded; different scanners of the same
// store may run concurrently.
type morselScanner interface {
	setMorsel(i int)
	NextBatch() (*rowBatch, error)
}

// spillBufSize is the buffer size of spill-file writers and the cap on
// spill-file readers'.
const spillBufSize = 1 << 16

// spillWriters recycles spill-file writers: a store takes one when it
// starts (or resumes) writing its spill file and returns it at Freeze
// or Release, so a run that spills many small stores does not allocate
// a fresh 64 KiB buffer per file.
var spillWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, spillBufSize) }}

func getSpillWriter(f io.Writer) *bufio.Writer {
	w := spillWriters.Get().(*bufio.Writer)
	w.Reset(f)
	return w
}

// putSpillWriter returns a writer to the pool, dropping any unflushed
// bytes.
func putSpillWriter(w *bufio.Writer) {
	if w != nil {
		w.Reset(nil)
		spillWriters.Put(w)
	}
}

// newSpillReader opens a buffered reader over a spill file's first size
// bytes, its buffer no larger than the file.
func newSpillReader(f *os.File, size int64) *bufio.Reader {
	return bufio.NewReaderSize(io.NewSectionReader(f, 0, size), int(min(size, spillBufSize)))
}

func releaseStores(stores []tableStore) {
	for _, s := range stores {
		if s != nil {
			s.Release()
		}
	}
}
