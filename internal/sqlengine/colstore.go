package sqlengine

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// ColStore is the native columnar table store: each column is a typed
// vector (int64 / float64 / string / bool) with a null bitmap, falling
// back to a generic []Value vector for columns that mix types (the
// engine is dynamically typed). CREATE TABLE AS and INSERT … SELECT
// append batch-at-a-time straight into the column vectors — no per-row
// Row materialization and one budget reservation per batch — and scans
// are column-slice ranges: generic columns are exposed to rowBatch views
// zero-copy, typed columns through tight per-kind decode loops into
// per-scanner scratch vectors.
//
// Spilling writes column runs: when a reservation overflows the budget
// the buffered columns are flushed to the spill file as one columnar
// chunk (per-column kind tag, null bitmap, packed data) and subsequent
// appends accumulate into bounded pending chunks, so out-of-core stores
// keep the columnar format end-to-end. Values round-trip exactly —
// types, int64 values, and float64 bit patterns — which keeps simulated
// amplitudes bitwise identical whether or not a store spilled.
type ColStore struct {
	env   *storageEnv
	width int // -1 until the first append fixes the column count
	cols  []column
	// rows is the in-memory buffered row count (the pending chunk once
	// the store has spilled).
	rows     int
	memBytes int64

	file     *os.File
	w        *bufio.Writer
	fileRows int64
	frozen   bool
	// spillErr is sticky: once a chunk write fails partway the on-disk
	// stream is unusable, so every later append, freeze, and scan must
	// fail rather than write or decode past the partial chunk.
	spillErr error
	// stats, when non-nil, is updated incrementally on every append
	// (base tables; see stats.go).
	stats *tableStats
	// capHint is the expected total row count (hintRows) or the exact
	// one (sizeExact);
	// typed column vectors allocate this capacity up front instead of
	// growing through append doubling.
	capHint int
	// capExact marks capHint as the exact row count (sizeExact): the
	// vectors then get no growth slack and no batch-sized floor.
	capExact bool
	// order holds each column's append-time order bit (ascendingInt).
	order []colOrder
}

// colOrder is one column's append-time order bit: whether every value
// appended so far is a non-NULL INTEGER no smaller than the one before
// it. Appends fold one compare per value into it, as they fold the
// statistics; it survives spilling and freezing, neither of which
// reorders rows.
type colOrder struct {
	last         int64
	seen, broken bool
}

func (o *colOrder) observeInt(x int64) {
	if o.seen && x < o.last {
		o.broken = true
	}
	o.last, o.seen = x, true
}

func (o *colOrder) observe(v Value) {
	if o.broken {
		return
	}
	if v.T != TypeInt {
		o.broken = true
		return
	}
	o.observeInt(v.I)
}

// ascendingInt reports whether column col holds non-NULL INTEGER values
// in non-decreasing row order, as proven by the appended rows
// themselves: a stable sort on it is the identity.
func (cs *ColStore) ascendingInt(col int) bool {
	return col >= 0 && col < len(cs.order) && !cs.order[col].broken
}

// hintRows pre-sizes future typed column allocations for an expected
// row count (capped; a loose bound can waste at most the cap).
func (cs *ColStore) hintRows(n int64) {
	const maxHint = 1 << 20
	if n > maxHint {
		n = maxHint
	}
	if int(n) > cs.capHint {
		cs.capHint = int(n)
	}
}

// sizeExact sizes the typed vectors of a store no row has reached yet
// to exactly n rows, for a writer that knows its row count up front
// (INSERT ... VALUES). A store that already has columns keeps its
// sizing.
func (cs *ColStore) sizeExact(n int) {
	if cs.width < 0 {
		cs.capHint, cs.capExact = n, true
	}
}

// newStore creates an empty table store.
func (env *storageEnv) newStore() *ColStore { return &ColStore{env: env, width: -1} }

// colKind identifies the physical representation of one column vector.
type colKind uint8

const (
	colUnset   colKind = iota // only NULLs seen so far; nulls bitmap only
	colInt                    // []int64 (INTEGER)
	colFloat                  // []float64 (REAL)
	colStr                    // []string (TEXT)
	colBool                   // []bool (BOOLEAN)
	colGeneric                // []Value fallback for mixed-type columns
)

func (k colKind) String() string {
	switch k {
	case colUnset:
		return "null"
	case colInt:
		return "int64"
	case colFloat:
		return "float64"
	case colStr:
		return "string"
	case colBool:
		return "bool"
	case colGeneric:
		return "values"
	}
	return fmt.Sprintf("colKind(%d)", uint8(k))
}

// column is one typed column vector. Exactly one data slice is active,
// selected by kind; nulls is the null bitmap (bit i set = row i NULL),
// nil while the column has no NULLs, and unused for colGeneric.
type column struct {
	kind   colKind
	nulls  []uint64
	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
	vals   colVec
	// hint pre-sizes the typed vector allocation (ColStore.hintRows);
	// exact makes it the whole capacity (ColStore.sizeExact).
	hint  int
	exact bool
}

func (c *column) setNull(row int) {
	need := row>>6 + 1
	for len(c.nulls) < need {
		c.nulls = append(c.nulls, 0)
	}
	c.nulls[row>>6] |= 1 << (uint(row) & 63)
}

func (c *column) isNull(row int) bool {
	w := row >> 6
	return w < len(c.nulls) && c.nulls[w]&(1<<(uint(row)&63)) != 0
}

// valueAt reconstructs the Value stored at row i (exact round-trip).
func (c *column) valueAt(i int) Value {
	switch c.kind {
	case colGeneric:
		return c.vals[i]
	case colUnset:
		return Null
	}
	if c.isNull(i) {
		return Null
	}
	switch c.kind {
	case colInt:
		return Value{T: TypeInt, I: c.ints[i]}
	case colFloat:
		return Value{T: TypeFloat, F: c.floats[i]}
	case colStr:
		return Value{T: TypeText, S: c.strs[i]}
	case colBool:
		if c.bools[i] {
			return Value{T: TypeBool, I: 1}
		}
		return Value{T: TypeBool}
	}
	return Null
}

// setKind fixes an unset column's kind at row (the current length),
// backfilling the rows seen so far — all NULL by definition — with
// zero slots.
func (c *column) setKind(t Type, row int) {
	capacity := max(2*row, batchSize, c.hint)
	if c.exact {
		capacity = max(row, c.hint)
	}
	switch t {
	case TypeInt:
		c.kind, c.ints = colInt, make([]int64, row, capacity)
	case TypeFloat:
		c.kind, c.floats = colFloat, make([]float64, row, capacity)
	case TypeText:
		c.kind, c.strs = colStr, make([]string, row, capacity)
	case TypeBool:
		c.kind, c.bools = colBool, make([]bool, row, capacity)
	}
}

// degrade converts a typed column of length row to the generic layout
// after a type mismatch. Rare: it only happens for genuinely mixed-type
// columns.
func (c *column) degrade(row int) {
	vals := make(colVec, row, max(2*row, batchSize))
	for i := 0; i < row; i++ {
		vals[i] = c.valueAt(i)
	}
	*c = column{kind: colGeneric, vals: vals}
}

// appendValue appends v at row (the current column length).
func (c *column) appendValue(v Value, row int) {
	for {
		switch c.kind {
		case colGeneric:
			c.vals = append(c.vals, v)
			return
		case colUnset:
			if v.T == TypeNull {
				c.setNull(row)
				return
			}
			c.setKind(v.T, row)
			continue
		case colInt:
			switch v.T {
			case TypeInt:
				c.ints = append(c.ints, v.I)
			case TypeNull:
				c.ints = append(c.ints, 0)
				c.setNull(row)
			default:
				c.degrade(row)
				continue
			}
			return
		case colFloat:
			switch v.T {
			case TypeFloat:
				c.floats = append(c.floats, v.F)
			case TypeNull:
				c.floats = append(c.floats, 0)
				c.setNull(row)
			default:
				c.degrade(row)
				continue
			}
			return
		case colStr:
			switch v.T {
			case TypeText:
				c.strs = append(c.strs, v.S)
			case TypeNull:
				c.strs = append(c.strs, "")
				c.setNull(row)
			default:
				c.degrade(row)
				continue
			}
			return
		case colBool:
			switch v.T {
			case TypeBool:
				c.bools = append(c.bools, v.I != 0)
			case TypeNull:
				c.bools = append(c.bools, false)
				c.setNull(row)
			default:
				c.degrade(row)
				continue
			}
			return
		}
	}
}

// appendCol appends the selected values of one batch column starting at
// row. sel == nil means the dense prefix [0, n).
func (c *column) appendCol(src colVec, sel []int, n, row int) {
	if sel == nil {
		for _, v := range src[:n] {
			c.appendValue(v, row)
			row++
		}
		return
	}
	for _, p := range sel {
		c.appendValue(src[p], row)
		row++
	}
}

// decodeRange materializes rows [lo, hi) as a column slice for a batch
// view. Generic columns return the stored vector zero-copy; typed
// columns decode into scratch (grown as needed). Returns the view and
// the (possibly grown) scratch for reuse.
func (c *column) decodeRange(lo, hi int, scratch colVec) (colVec, colVec) {
	if c.kind == colGeneric {
		return c.vals[lo:hi], scratch
	}
	n := hi - lo
	if cap(scratch) < n {
		scratch = make(colVec, n, max(n, batchSize))
	}
	out := scratch[:n]
	switch c.kind {
	case colUnset:
		for j := range out {
			out[j] = Null
		}
	case colInt:
		if c.nulls == nil {
			for j, x := range c.ints[lo:hi] {
				out[j] = Value{T: TypeInt, I: x}
			}
		} else {
			for j := 0; j < n; j++ {
				if c.isNull(lo + j) {
					out[j] = Null
				} else {
					out[j] = Value{T: TypeInt, I: c.ints[lo+j]}
				}
			}
		}
	case colFloat:
		if c.nulls == nil {
			for j, x := range c.floats[lo:hi] {
				out[j] = Value{T: TypeFloat, F: x}
			}
		} else {
			for j := 0; j < n; j++ {
				if c.isNull(lo + j) {
					out[j] = Null
				} else {
					out[j] = Value{T: TypeFloat, F: c.floats[lo+j]}
				}
			}
		}
	case colStr:
		for j := 0; j < n; j++ {
			if c.isNull(lo + j) {
				out[j] = Null
			} else {
				out[j] = Value{T: TypeText, S: c.strs[lo+j]}
			}
		}
	case colBool:
		for j := 0; j < n; j++ {
			switch {
			case c.isNull(lo + j):
				out[j] = Null
			case c.bools[lo+j]:
				out[j] = Value{T: TypeBool, I: 1}
			default:
				out[j] = Value{T: TypeBool}
			}
		}
	}
	return out, scratch
}

// reset clears the column for the next spill chunk, keeping the kind
// (columns rarely change type mid-stream) and slice capacity.
func (c *column) reset() {
	c.nulls = c.nulls[:0]
	c.ints = c.ints[:0]
	c.floats = c.floats[:0]
	c.strs = c.strs[:0]
	c.bools = c.bools[:0]
	c.vals = c.vals[:0]
}

// colValueBytes estimates the columnar in-memory footprint of one value:
// the typed slot plus the amortized null-bitmap bit.
func colValueBytes(v Value) int64 {
	switch v.T {
	case TypeInt, TypeFloat:
		return 9
	case TypeText:
		return 17 + int64(len(v.S))
	case TypeBool:
		return 2
	}
	return 1 // NULL
}

func (cs *ColStore) ensureWidth(w int) error {
	if cs.width < 0 {
		cs.width = w
		cs.cols = make([]column, w)
		cs.order = make([]colOrder, w)
		for i := range cs.cols {
			cs.cols[i].hint, cs.cols[i].exact = cs.capHint, cs.capExact
		}
		return nil
	}
	if cs.width != w {
		return fmt.Errorf("sqlengine: internal: appending %d columns to a %d-column store", w, cs.width)
	}
	return nil
}

// chunkThreshold bounds how many pending bytes a spilled store buffers
// before flushing the next columnar chunk. Tied to the working floor so
// the transient over-reservation matches the blocking operators' soft
// cap; 256 KiB with an unlimited budget.
func (cs *ColStore) chunkThreshold() int64 {
	if t := cs.env.workingFloor; t > 0 {
		return t
	}
	return 256 << 10
}

// reserve accounts need bytes for an append. Before the first overflow
// it reserves against the budget; on overflow it flushes the buffer as
// the first spill chunk and from then on pending-chunk bytes are
// force-reserved (bounded by chunkThreshold via maybeFlushChunk).
func (cs *ColStore) reserve(need int64) error {
	if cs.file == nil {
		if cs.env.budget.tryReserve(need) {
			return nil
		}
		if !cs.env.spillEnabled {
			return ErrBudget
		}
		if err := cs.startSpill(); err != nil {
			return err
		}
	}
	cs.env.budget.reserveForce(need)
	return nil
}

func (cs *ColStore) startSpill() error {
	f, err := os.CreateTemp(cs.env.spillDir, "qymera-spill-*.cols")
	if err != nil {
		return fmt.Errorf("sqlengine: creating spill file: %w", err)
	}
	cs.file = f
	cs.w = getSpillWriter(f)
	cs.env.spillFiles.Add(1)
	return cs.flushChunk()
}

func (cs *ColStore) maybeFlushChunk() error {
	if cs.file != nil && cs.memBytes >= cs.chunkThreshold() {
		return cs.flushChunk()
	}
	return nil
}

// flushChunk writes the buffered columns to the spill file as one
// columnar chunk and releases their reservation.
func (cs *ColStore) flushChunk() error {
	if cs.spillErr != nil {
		return cs.spillErr
	}
	if cs.rows == 0 {
		return nil
	}
	if cs.w == nil {
		// Appending after a Freeze (Thaw) resumes the spill file; the
		// descriptor's offset is still at its end.
		cs.w = getSpillWriter(cs.file)
	}
	n, err := writeChunk(cs.w, cs.cols, cs.rows)
	if err != nil {
		cs.spillErr = fmt.Errorf("sqlengine: writing spill chunk: %w", err)
		return cs.spillErr
	}
	cs.fileRows += int64(cs.rows)
	cs.env.spilledRows.Add(int64(cs.rows))
	cs.env.spilledBytes.Add(int64(n))
	cs.env.budget.release(cs.memBytes)
	cs.memBytes = 0
	cs.rows = 0
	for i := range cs.cols {
		cs.cols[i].reset()
	}
	return nil
}

// Append adds one row. The store takes ownership of the slice's values.
func (cs *ColStore) Append(row Row) error {
	if cs.frozen {
		return fmt.Errorf("sqlengine: internal: append to frozen column store")
	}
	if cs.spillErr != nil {
		return cs.spillErr
	}
	if err := cs.ensureWidth(len(row)); err != nil {
		return err
	}
	var need int64
	for _, v := range row {
		need += colValueBytes(v)
	}
	if err := cs.reserve(need); err != nil {
		return err
	}
	for i := range cs.cols {
		cs.cols[i].appendValue(row[i], cs.rows)
		cs.order[i].observe(row[i])
	}
	cs.rows++
	cs.memBytes += need
	if cs.stats != nil {
		cs.stats.observeRow(row)
	}
	return cs.maybeFlushChunk()
}

// AppendBatch appends every selected row of a batch column-at-a-time:
// one budget reservation and per-column vector appends, no per-row Row
// materialization.
func (cs *ColStore) AppendBatch(b *rowBatch) error {
	if cs.frozen {
		return fmt.Errorf("sqlengine: internal: append to frozen column store")
	}
	if cs.spillErr != nil {
		return cs.spillErr
	}
	if err := cs.ensureWidth(b.width()); err != nil {
		return err
	}
	n := b.rows()
	if n == 0 {
		return nil
	}
	var need int64
	for i := range b.cols {
		col := b.cols[i]
		if b.sel == nil {
			for _, v := range col[:b.n] {
				need += colValueBytes(v)
			}
		} else {
			for _, p := range b.sel {
				need += colValueBytes(col[p])
			}
		}
	}
	if err := cs.reserve(need); err != nil {
		return err
	}
	for i := range cs.cols {
		cs.cols[i].appendCol(b.cols[i], b.sel, b.n, cs.rows)
		o := &cs.order[i]
		if b.sel == nil {
			for _, v := range b.cols[i][:b.n] {
				o.observe(v)
			}
		} else {
			for _, p := range b.sel {
				o.observe(b.cols[i][p])
			}
		}
	}
	cs.rows += n
	cs.memBytes += need
	if cs.stats != nil {
		cs.stats.observeBatch(b)
	}
	return cs.maybeFlushChunk()
}

// appendAmps appends rows given as typed (s, r, i) vectors — the
// kernel emitter's output — straight into the column vectors, with no
// Value boxing. Reservation, column kinds and statistics are exactly
// what AppendBatch produces for the same rows boxed as INTEGER, REAL,
// REAL.
func (cs *ColStore) appendAmps(s []int64, r, i []float64) error {
	if cs.frozen {
		return fmt.Errorf("sqlengine: internal: append to frozen column store")
	}
	if cs.spillErr != nil {
		return cs.spillErr
	}
	if err := cs.ensureWidth(3); err != nil {
		return err
	}
	n := len(s)
	if n == 0 {
		return nil
	}
	need := int64(n) * (colValueBytes(NewInt(0)) + 2*colValueBytes(NewFloat(0)))
	if err := cs.reserve(need); err != nil {
		return err
	}
	cs.cols[0].appendInts(s, cs.rows)
	cs.cols[1].appendFloats(r, cs.rows)
	cs.cols[2].appendFloats(i, cs.rows)
	if o := &cs.order[0]; !o.broken {
		for _, x := range s {
			o.observeInt(x)
		}
	}
	cs.order[1].broken, cs.order[2].broken = true, true
	cs.rows += n
	cs.memBytes += need
	if cs.stats != nil {
		cs.stats.observeAmps(s, r, i)
	}
	return cs.maybeFlushChunk()
}

// appendInts appends non-NULL INTEGER values starting at row.
func (c *column) appendInts(v []int64, row int) {
	if c.kind == colUnset {
		c.setKind(TypeInt, row)
	}
	if c.kind != colInt {
		for _, x := range v {
			c.appendValue(NewInt(x), row)
			row++
		}
		return
	}
	c.ints = append(c.ints, v...)
}

// appendFloats appends non-NULL REAL values starting at row.
func (c *column) appendFloats(v []float64, row int) {
	if c.kind == colUnset {
		c.setKind(TypeFloat, row)
	}
	if c.kind != colFloat {
		for _, x := range v {
			c.appendValue(NewFloat(x), row)
			row++
		}
		return
	}
	c.floats = append(c.floats, v...)
}

// Len returns the total number of rows.
func (cs *ColStore) Len() int64 { return cs.fileRows + int64(cs.rows) }

// Spilled reports whether any rows live on disk.
func (cs *ColStore) Spilled() bool { return cs.fileRows > 0 }

// Freeze transitions the store from writing to reading. A spilled store
// flushes its pending chunk, so after Freeze all rows of a spilled
// store are on disk. Idempotent; the store is marked frozen only after
// a successful flush (a failed flush poisons the store via spillErr
// instead of leaving a silently truncated stream).
func (cs *ColStore) Freeze() error {
	if cs.frozen {
		return nil
	}
	if cs.file != nil {
		if err := cs.flushChunk(); err != nil {
			return err
		}
		if cs.w != nil {
			if err := cs.w.Flush(); err != nil {
				cs.spillErr = fmt.Errorf("sqlengine: flushing spill file: %w", err)
				return cs.spillErr
			}
			putSpillWriter(cs.w)
			cs.w = nil
		}
	}
	cs.frozen = true
	return nil
}

// Thaw reopens a frozen store for appending. Callers must serialize
// writes (the database write lock does); scans opened before thawing
// keep their snapshot of the on-disk prefix via independent section
// readers.
func (cs *ColStore) Thaw() { cs.frozen = false }

// Release frees memory reservations and deletes any spill file. The
// store must not be used afterwards.
func (cs *ColStore) Release() {
	cs.env.budget.release(cs.memBytes)
	cs.memBytes = 0
	cs.rows = 0
	cs.cols = nil
	if cs.file != nil {
		name := cs.file.Name()
		cs.file.Close()
		os.Remove(name)
		cs.file = nil
		putSpillWriter(cs.w)
		cs.w = nil
	}
}

// vectorKinds reports the per-column vector type for EXPLAIN.
func (cs *ColStore) vectorKinds() []string {
	if cs.width <= 0 {
		return nil
	}
	out := make([]string, cs.width)
	for i := range cs.cols {
		out[i] = cs.cols[i].kind.String()
	}
	return out
}

// serveColumns exposes rows [lo, hi) of a column set as a batch view.
func serveColumns(cols []column, lo, hi int, buf *rowBatch, scratch []colVec) {
	for i := range cols {
		buf.cols[i], scratch[i] = cols[i].decodeRange(lo, hi, scratch[i])
	}
	buf.n = hi - lo
	buf.sel = nil
}

// batchScan returns a batch reader over all rows: spilled chunks first
// (decoded chunk by chunk), then the in-memory tail.
func (cs *ColStore) batchScan() (*colScan, error) {
	if err := cs.Freeze(); err != nil {
		return nil, err
	}
	if cs.spillErr != nil {
		return nil, cs.spillErr
	}
	sc := &colScan{cs: cs}
	if cs.file != nil && cs.fileRows > 0 {
		info, err := cs.file.Stat()
		if err != nil {
			return nil, err
		}
		sc.r = newSpillReader(cs.file, info.Size())
		sc.fileLeft = cs.fileRows
	}
	return sc, nil
}

// colScan reads a frozen ColStore batch-at-a-time. The returned batch is
// owned by the scan and valid only until the next NextBatch call; nil
// signals the end.
type colScan struct {
	cs       *ColStore
	r        *bufio.Reader
	fileLeft int64
	chunk    []column
	chunkLen int
	chunkPos int
	memPos   int
	buf      *rowBatch
	scratch  []colVec
}

func (s *colScan) NextBatch() (*rowBatch, error) {
	if s.buf == nil {
		w := len(s.cs.cols)
		s.buf = &rowBatch{cols: make([]colVec, w)}
		s.scratch = make([]colVec, w)
	}
	for {
		if s.chunkPos < s.chunkLen {
			hi := min(s.chunkPos+batchSize, s.chunkLen)
			serveColumns(s.chunk, s.chunkPos, hi, s.buf, s.scratch)
			s.chunkPos = hi
			return s.buf, nil
		}
		if s.fileLeft > 0 {
			if s.chunk == nil {
				s.chunk = make([]column, s.cs.width)
			}
			n, err := readChunk(s.r, s.chunk)
			if err != nil {
				return nil, fmt.Errorf("sqlengine: reading spill file: %w", err)
			}
			s.chunkLen, s.chunkPos = n, 0
			s.fileLeft -= int64(n)
			continue
		}
		if s.memPos < s.cs.rows {
			hi := min(s.memPos+batchSize, s.cs.rows)
			serveColumns(s.cs.cols, s.memPos, hi, s.buf, s.scratch)
			s.memPos = hi
			return s.buf, nil
		}
		return nil, nil
	}
}

// Cursor returns the row-at-a-time gather adapter over the columnar
// data: each Next gathers one fresh Row from the current batch view.
// This is the engine's single row edge for columnar stores (ResultSet,
// driver, sort-run merging, grace-partition iteration).
func (cs *ColStore) Cursor() (*colCursor, error) {
	sc, err := cs.batchScan()
	if err != nil {
		return nil, err
	}
	return &colCursor{scan: sc, width: max(cs.width, 0)}, nil
}

// colCursor walks a frozen store row by row. Returned rows are owned by
// the caller.
type colCursor struct {
	scan  *colScan
	width int
	b     *rowBatch
	pos   int
}

func (c *colCursor) Next() (Row, bool, error) {
	for c.b == nil || c.pos >= c.b.n {
		b, err := c.scan.NextBatch()
		if err != nil {
			return nil, false, err
		}
		if b == nil {
			return nil, false, nil
		}
		c.b, c.pos = b, 0
	}
	row := make(Row, c.width)
	for i := range row {
		row[i] = c.b.cols[i][c.pos]
	}
	c.pos++
	return row, true, nil
}

// Spill chunk frame. A spill file is a sequence of chunks, each
//
//	uvarint rows
//	then per column one run: kind byte, then
//	  generic: per-row tagged values (the row codec's value encoding)
//	  typed:   hasNulls byte (+ null bitmap), then the values —
//	           int64 / float64 as raw 8-byte little-endian words,
//	           strings as uvarint length + bytes, bools as a bitmap
//
// written straight to the pooled spill writer and read back by
// readChunk. The kind tags make every run self-describing. Floats
// travel as bit patterns, so -0.0 and NaN payloads round-trip
// exactly. Spill files are temp files of the store
// that reads them, so the frame carries no version header.

// chunkWriter streams one chunk to the spill writer, counting the
// bytes and keeping the first write error.
type chunkWriter struct {
	w   *bufio.Writer
	n   int
	err error
	tmp [binary.MaxVarintLen64]byte
}

func (cw *chunkWriter) write(b []byte) {
	if cw.err == nil {
		n, err := cw.w.Write(b)
		cw.n += n
		cw.err = err
	}
}

func (cw *chunkWriter) writeString(s string) {
	if cw.err == nil {
		n, err := cw.w.WriteString(s)
		cw.n += n
		cw.err = err
	}
}

func (cw *chunkWriter) writeByte(b byte) {
	cw.tmp[0] = b
	cw.write(cw.tmp[:1])
}

func (cw *chunkWriter) uvarint(x uint64) { cw.write(binary.AppendUvarint(cw.tmp[:0], x)) }

func (cw *chunkWriter) word(x uint64) { cw.write(binary.LittleEndian.AppendUint64(cw.tmp[:0], x)) }

// bitmap writes rows bits, eight to a byte, lowest row first.
func (cw *chunkWriter) bitmap(rows int, bit func(int) bool) {
	for i := 0; i < rows; i += 8 {
		var b byte
		for j := 0; j < 8 && i+j < rows; j++ {
			if bit(i + j) {
				b |= 1 << uint(j)
			}
		}
		cw.writeByte(b)
	}
}

// writeChunk writes rows rows of cols as one chunk and returns the
// bytes written.
func writeChunk(w *bufio.Writer, cols []column, rows int) (int, error) {
	cw := &chunkWriter{w: w}
	cw.uvarint(uint64(rows))
	for i := range cols {
		cw.column(&cols[i], rows)
	}
	return cw.n, cw.err
}

// column writes one column run.
func (cw *chunkWriter) column(c *column, rows int) {
	cw.writeByte(byte(c.kind))
	if c.kind == colGeneric {
		for _, v := range c.vals[:rows] {
			if cw.err == nil {
				var n int
				n, cw.err = encodeValue(cw.w, v)
				cw.n += n
			}
		}
		return
	}
	if len(c.nulls) > 0 {
		cw.writeByte(1)
		cw.bitmap(rows, c.isNull)
	} else {
		cw.writeByte(0)
	}
	switch c.kind {
	case colInt:
		for _, x := range c.ints[:rows] {
			cw.word(uint64(x))
		}
	case colFloat:
		for _, f := range c.floats[:rows] {
			cw.word(math.Float64bits(f))
		}
	case colStr:
		for _, s := range c.strs[:rows] {
			cw.uvarint(uint64(len(s)))
			cw.writeString(s)
		}
	case colBool:
		cw.bitmap(rows, func(i int) bool { return c.bools[i] })
	}
}

// readChunk decodes the next chunk into cols (reusing their slices) and
// returns its row count.
func readChunk(r *bufio.Reader, cols []column) (int, error) {
	rows64, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, err
	}
	rows := int(rows64)
	for i := range cols {
		if err := readColumnRun(r, &cols[i], rows); err != nil {
			return 0, err
		}
	}
	return rows, nil
}

func readBitmap(r *bufio.Reader, rows int, set func(int)) error {
	for i := 0; i < rows; i += 8 {
		b, err := r.ReadByte()
		if err != nil {
			return err
		}
		for j := 0; j < 8 && i+j < rows; j++ {
			if b&(1<<uint(j)) != 0 {
				set(i + j)
			}
		}
	}
	return nil
}

// readWord reads one little-endian 8-byte word straight out of the
// reader's buffer, so reading a word allocates nothing. A word cut
// short by the end of the stream fails with io.ErrUnexpectedEOF.
func readWord(r *bufio.Reader) (uint64, error) {
	b, err := r.Peek(8)
	if err != nil {
		if err == io.EOF && len(b) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, err
	}
	x := binary.LittleEndian.Uint64(b)
	_, _ = r.Discard(8) // cannot fail: Peek just buffered the 8 bytes
	return x, nil
}

// readColumnRun decodes one column run, rejecting unknown kind tags.
func readColumnRun(r *bufio.Reader, c *column, rows int) error {
	kb, err := r.ReadByte()
	if err != nil {
		return err
	}
	kind := colKind(kb)
	if kind > colGeneric {
		return fmt.Errorf("sqlengine: corrupt spill file: column kind %d", kb)
	}
	c.reset()
	c.kind = kind
	if kind == colGeneric {
		for i := 0; i < rows; i++ {
			v, err := decodeValue(r)
			if err != nil {
				return err
			}
			c.vals = append(c.vals, v)
		}
		return nil
	}
	hasNulls, err := r.ReadByte()
	if err != nil {
		return err
	}
	if hasNulls == 1 {
		if err := readBitmap(r, rows, c.setNull); err != nil {
			return err
		}
	}
	switch kind {
	case colInt:
		for i := 0; i < rows; i++ {
			x, err := readWord(r)
			if err != nil {
				return err
			}
			c.ints = append(c.ints, int64(x))
		}
	case colFloat:
		for i := 0; i < rows; i++ {
			x, err := readWord(r)
			if err != nil {
				return err
			}
			c.floats = append(c.floats, math.Float64frombits(x))
		}
	case colStr:
		for i := 0; i < rows; i++ {
			ln, err := binary.ReadUvarint(r)
			if err != nil {
				return err
			}
			sb := make([]byte, ln)
			if _, err := io.ReadFull(r, sb); err != nil {
				return err
			}
			c.strs = append(c.strs, string(sb))
		}
	case colBool:
		c.bools = append(c.bools, make([]bool, rows)...)
		if err := readBitmap(r, rows, func(i int) { c.bools[i] = true }); err != nil {
			return err
		}
	}
	return nil
}

// Per-value codec of the generic (mixed-type) column runs in spill
// chunks: a kind tag, then the value.

const (
	encNull  byte = 0
	encInt   byte = 1
	encFloat byte = 2
	encText  byte = 3
	encBool  byte = 4
)

// encodeValue writes one tagged value, returning the bytes written.
func encodeValue(w *bufio.Writer, v Value) (int, error) {
	var scratch [binary.MaxVarintLen64]byte
	total := 0
	if err := w.WriteByte(encTag(v)); err != nil {
		return total, err
	}
	total++
	switch v.T {
	case TypeNull:
	case TypeInt:
		n := binary.PutVarint(scratch[:], v.I)
		if _, err := w.Write(scratch[:n]); err != nil {
			return total, err
		}
		total += n
	case TypeFloat:
		binary.LittleEndian.PutUint64(scratch[:8], math.Float64bits(v.F))
		if _, err := w.Write(scratch[:8]); err != nil {
			return total, err
		}
		total += 8
	case TypeText:
		n := binary.PutUvarint(scratch[:], uint64(len(v.S)))
		if _, err := w.Write(scratch[:n]); err != nil {
			return total, err
		}
		total += n
		if _, err := w.WriteString(v.S); err != nil {
			return total, err
		}
		total += len(v.S)
	case TypeBool:
		b := byte(0)
		if v.I != 0 {
			b = 1
		}
		if err := w.WriteByte(b); err != nil {
			return total, err
		}
		total++
	}
	return total, nil
}

func encTag(v Value) byte {
	switch v.T {
	case TypeInt:
		return encInt
	case TypeFloat:
		return encFloat
	case TypeText:
		return encText
	case TypeBool:
		return encBool
	}
	return encNull
}

// decodeValue reads one tagged value.
func decodeValue(r *bufio.Reader) (Value, error) {
	tag, err := r.ReadByte()
	if err != nil {
		return Null, err
	}
	switch tag {
	case encNull:
		return Null, nil
	case encInt:
		x, err := binary.ReadVarint(r)
		if err != nil {
			return Null, err
		}
		return NewInt(x), nil
	case encFloat:
		x, err := readWord(r)
		if err != nil {
			return Null, err
		}
		return NewFloat(math.Float64frombits(x)), nil
	case encText:
		ln, err := binary.ReadUvarint(r)
		if err != nil {
			return Null, err
		}
		buf := make([]byte, ln)
		if _, err := io.ReadFull(r, buf); err != nil {
			return Null, err
		}
		return NewText(string(buf)), nil
	case encBool:
		b, err := r.ReadByte()
		if err != nil {
			return Null, err
		}
		return NewBool(b != 0), nil
	}
	return Null, fmt.Errorf("sqlengine: corrupt spill file: tag %d", tag)
}
