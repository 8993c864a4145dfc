package sqlengine

import (
	"math"
	"sort"
	"sync/atomic"
)

// Compressed column encodings. At Freeze time (table materialization:
// base-table first read, CTAS, INSERT … SELECT, gather) a fully
// in-memory ColStore with exact statistics re-encodes float64 columns
// that are mostly zero — the amplitude-column case — as sparse
// positions + values (colFloatSparse).
//
// The encoding is exact: it encodes the raw value slots (NULL rows
// hold zero slots, exactly as the plain vector does; the null bitmap
// is kept verbatim), floats are selected by BIT pattern (so -0.0 and
// NaN payloads survive), and every decode reproduces the plain vector
// bit-for-bit. Scans read the sparse form directly
// (column.decodeRange / valueAt); appends to a thawed store decode
// lazily first (the transparent fallback, counted in
// decode_fallbacks). Spill chunks make the same per-column decision
// chunk-locally (see the chunk frame in colstore.go).
//
// The selection threshold is deliberately conservative: the encoding
// is committed only when it strictly shrinks the resident footprint,
// and the freed bytes are released back to the memory budget
// (re-reserved on a lazy decode).

// encodeMinRows is the smallest column worth encoding: tiny tables
// (gate matrices, lookup tables) stay plain.
const encodeMinRows = batchSize

// storageCounterSet is one scope of sparsity-storage counters,
// mirroring kernelCounterSet (kernel.go). The process-wide aggregate
// (storageCounters) backs the package-level StorageCounters() and the
// qymerad /metrics endpoint; each engine instance additionally owns a
// set (storageEnv.storageCtrs, read through DB.StorageCounters) so
// interleaved benchmark samples and parallel tests stop
// cross-contaminating each other's readings. The bump* methods record
// into the receiver's scope AND the process aggregate; a nil receiver
// (stores created without an engine in unit tests) records into the
// aggregate only.
type storageCounterSet struct {
	encodedSparse    atomic.Int64 // columns committed as sparse at Freeze
	encodedChunkCols atomic.Int64 // spill-chunk columns written encoded
	decodeFallbacks  atomic.Int64 // encoded columns decoded for appends
	kernelEncBinds   atomic.Int64 // encoded columns bound by the gate kernel
}

// storageCounters is the process-wide aggregate scope.
var storageCounters storageCounterSet

func (s *storageCounterSet) bump(pick func(*storageCounterSet) *atomic.Int64) {
	pick(&storageCounters).Add(1)
	if s != nil && s != &storageCounters {
		pick(s).Add(1)
	}
}

func (s *storageCounterSet) bumpEncodedSparse() {
	s.bump(func(c *storageCounterSet) *atomic.Int64 { return &c.encodedSparse })
}
func (s *storageCounterSet) bumpEncodedChunkCol() {
	s.bump(func(c *storageCounterSet) *atomic.Int64 { return &c.encodedChunkCols })
}
func (s *storageCounterSet) bumpDecodeFallback() {
	s.bump(func(c *storageCounterSet) *atomic.Int64 { return &c.decodeFallbacks })
}
func (s *storageCounterSet) bumpKernelEncBind() {
	s.bump(func(c *storageCounterSet) *atomic.Int64 { return &c.kernelEncBinds })
}

func (s *storageCounterSet) snapshot() map[string]int64 {
	return map[string]int64{
		"encoded_sparse":       s.encodedSparse.Load(),
		"encoded_chunk_cols":   s.encodedChunkCols.Load(),
		"decode_fallbacks":     s.decodeFallbacks.Load(),
		"kernel_encoded_binds": s.kernelEncBinds.Load(),
	}
}

// StorageCounters snapshots the process-wide sparsity-storage counters:
// encoded_sparse / encoded_chunk_cols (encoding decisions),
// decode_fallbacks (transparent decodes), and kernel_encoded_binds
// (gate-kernel bindings of sparse columns). For a single engine's
// uncontaminated view, use DB.StorageCounters.
func StorageCounters() map[string]int64 {
	return storageCounters.snapshot()
}

// encoded reports whether the column currently holds an encoded vector.
func (c *column) encoded() bool { return c.kind == colFloatSparse }

// encodeColumn re-encodes one frozen column in place when a strictly
// smaller representation exists, returning the resident bytes saved
// (0 means the column stays plain). st pre-filters the candidates from
// the table statistics; the exact count pass decides.
func encodeColumn(c *column, st *colStats, rows int, ctrs *storageCounterSet) int64 {
	if c.kind != colFloat || st == nil || 2*st.zeros < int64(rows) {
		return 0
	}
	xs := c.floats[:rows]
	nnz := 0
	for _, f := range xs {
		// Bit-pattern test: only +0.0 may be omitted; -0.0 and NaN
		// payloads must survive the encoding exactly.
		if math.Float64bits(f) != 0 {
			nnz++
		}
	}
	saved := int64(8*rows) - int64(12*nnz)
	if saved <= 0 || 2*nnz > rows {
		return 0
	}
	spos := make([]int32, 0, nnz)
	svals := make([]float64, 0, nnz)
	for i, f := range xs {
		if math.Float64bits(f) != 0 {
			spos = append(spos, int32(i))
			svals = append(svals, f)
		}
	}
	c.kind, c.spos, c.svals, c.encLen, c.floats = colFloatSparse, spos, svals, rows, nil
	ctrs.bumpEncodedSparse()
	return saved
}

// decodeEncoded materializes a sparse column back into its plain float
// vector (exact). The caller is responsible for budget accounting
// (ColStore.decodeForAppend re-reserves encSaved).
func (c *column) decodeEncoded() {
	fl := make([]float64, c.encLen)
	for i, p := range c.spos {
		fl[p] = c.svals[i]
	}
	c.kind, c.floats, c.spos, c.svals, c.encLen = colFloat, fl, nil, nil, 0
}

// sparseSearch returns the first sparse slot with position >= lo.
func sparseSearch(spos []int32, lo int) int {
	return sort.Search(len(spos), func(k int) bool { return int(spos[k]) >= lo })
}

// encodeColumns is the Freeze hook: re-encode eligible columns of a
// fully in-memory store whose statistics are exact, releasing the
// saved bytes back to the budget. Idempotent — already-encoded columns
// are left alone, and re-freezing after thaw+append retries cleanly.
func (cs *ColStore) encodeColumns() {
	if cs.Spilled() || cs.rows < encodeMinRows {
		return
	}
	ts := cs.stats
	if ts == nil || ts.rows != int64(cs.rows) || len(ts.cols) < len(cs.cols) {
		return
	}
	for i := range cs.cols {
		c := &cs.cols[i]
		if c.encoded() {
			continue
		}
		if saved := encodeColumn(c, ts.col(i), cs.rows, cs.env.storageCtrs); saved > 0 {
			cs.env.budget.release(saved)
			cs.memBytes -= saved
			c.encSaved = saved
		}
	}
}

// decodeForAppend decodes any encoded columns back to plain vectors
// before new rows are appended (the transparent fallback for
// thaw-then-append: INSERT into a previously scanned table,
// INSERT … SELECT onto a CTAS result). Re-reserves the bytes the
// encoding had released.
func (cs *ColStore) decodeForAppend() {
	for i := range cs.cols {
		c := &cs.cols[i]
		if !c.encoded() {
			continue
		}
		c.decodeEncoded()
		cs.env.storageCtrs.bumpDecodeFallback()
		if c.encSaved > 0 {
			cs.env.budget.reserveForce(c.encSaved)
			cs.memBytes += c.encSaved
			c.encSaved = 0
		}
	}
}
