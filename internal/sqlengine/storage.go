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

// Storage layer. Tables, materialized results, sort runs, and grace
// partitions are all ColStores (colstore.go): append-then-read
// sequences of rows kept as typed column vectors — int64 / float64 /
// string / bool with null bitmaps — with a bounded in-memory
// representation that spills column chunks to disk when the
// engine-wide budget is exceeded. A store is write-only until Freeze
// and read-only afterwards (Thaw reopens it for appending); Release
// frees every budget reservation and spill file even mid-read.

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
	// kernels enables the compiled gate-stage kernel tier and the
	// chain fusion built on it (see kernel.go, kernel_chain.go). Open
	// always sets it; only tests clear it, to run the interpreter as
	// the kernels' bit-identity reference. kernelCache holds the
	// compiled programs (the process-wide cache unless
	// Config.KernelCache names another).
	kernels     bool
	kernelCache *KernelCache
	// kernelCtrs / storageCtrs are this engine instance's own counter
	// scopes (every increment also feeds the process-wide aggregates;
	// see kernelCounterSet and storageCounterSet).
	kernelCtrs  *kernelCounterSet
	storageCtrs *storageCounterSet
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

// ErrBudget is returned when memory is exhausted and spilling is off.
// Every path that reports it returns it as is or wraps it with %w, so
// callers detect it with errors.Is.
var ErrBudget = fmt.Errorf("sqlengine: memory budget exceeded and spilling is disabled")

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

func releaseStores(stores []*ColStore) {
	for _, s := range stores {
		if s != nil {
			s.Release()
		}
	}
}
