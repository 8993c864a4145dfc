package sqlengine

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// RowStore is the legacy row-major table store: an append-then-read
// sequence of []Row that keeps a bounded in-memory tail and spills its
// prefix to a temporary file when the engine-wide budget is exceeded.
// The columnar ColStore (colstore.go) replaced it as the default
// layout; RowStore survives behind Config.Layout = "row" as the
// reference implementation for differential testing — every query must
// produce bitwise-identical results on both layouts.
type RowStore struct {
	env      *storageEnv
	width    int // -1 until the first append
	mem      []Row
	memBytes int64
	file     *os.File
	w        *bufio.Writer
	fileRows int64
	frozen   bool
	// stats, when non-nil, is updated incrementally on every append
	// (base tables; see stats.go).
	stats *tableStats
}

func newRowStore(env *storageEnv) *RowStore { return &RowStore{env: env, width: -1} }

// setStatsCollector / statsSnapshot implement statsCollecting.
func (rs *RowStore) setStatsCollector(ts *tableStats) { rs.stats = ts }
func (rs *RowStore) statsSnapshot() *tableStats       { return rs.stats }

// frozenState reports whether the store is currently frozen.
func (rs *RowStore) frozenState() bool { return rs.frozen }

// Append adds a row. The store takes ownership of the slice.
func (rs *RowStore) Append(row Row) error {
	if rs.frozen {
		return fmt.Errorf("sqlengine: internal: append to frozen row store")
	}
	if rs.width < 0 {
		rs.width = len(row)
	}
	n := rowBytes(row)
	if rs.env.budget.tryReserve(n) {
		rs.mem = append(rs.mem, row)
		rs.memBytes += n
		if rs.stats != nil {
			rs.stats.observeRow(row)
		}
		return nil
	}
	if !rs.env.spillEnabled {
		return ErrBudget
	}
	// Spill everything buffered so far, then the new row, keeping memory
	// near zero for this store.
	if err := rs.spillBuffered(); err != nil {
		return err
	}
	if err := rs.writeSpilled(row); err != nil {
		return err
	}
	if rs.stats != nil {
		rs.stats.observeRow(row)
	}
	return nil
}

// spillBuffered flushes the in-memory rows to the spill file and releases
// their reservation.
func (rs *RowStore) spillBuffered() error {
	if rs.file == nil {
		f, err := os.CreateTemp(rs.env.spillDir, "qymera-spill-*.rows")
		if err != nil {
			return fmt.Errorf("sqlengine: creating spill file: %w", err)
		}
		rs.file = f
		rs.w = getSpillWriter(f)
		rs.env.spillFiles.Add(1)
	}
	for _, row := range rs.mem {
		if err := rs.writeSpilled(row); err != nil {
			return err
		}
	}
	rs.env.budget.release(rs.memBytes)
	rs.mem = rs.mem[:0]
	rs.memBytes = 0
	return nil
}

func (rs *RowStore) writeSpilled(row Row) error {
	if rs.file == nil {
		if err := rs.spillBuffered(); err != nil {
			return err
		}
	}
	n, err := encodeRow(rs.w, row)
	if err != nil {
		return err
	}
	rs.fileRows++
	rs.env.spilledRows.Add(1)
	rs.env.spilledBytes.Add(int64(n))
	return nil
}

// AppendBatch appends every selected row of a batch, materializing each
// into a fresh Row. The per-row gather is inherent to the row layout —
// the columnar store appends batches without it — and exists only so
// the legacy layout satisfies the tableStore contract for differential
// testing.
func (rs *RowStore) AppendBatch(b *rowBatch) error {
	for _, pos := range b.selection() {
		if err := rs.Append(b.materializeRow(pos)); err != nil {
			return err
		}
	}
	return nil
}

// Len returns the total number of rows.
func (rs *RowStore) Len() int64 { return rs.fileRows + int64(len(rs.mem)) }

// Spilled reports whether any rows live on disk.
func (rs *RowStore) Spilled() bool { return rs.fileRows > 0 }

// Freeze transitions the store from writing to reading. Idempotent.
func (rs *RowStore) Freeze() error {
	if rs.frozen {
		return nil
	}
	rs.frozen = true
	if rs.w != nil {
		if err := rs.w.Flush(); err != nil {
			return fmt.Errorf("sqlengine: flushing spill file: %w", err)
		}
		putSpillWriter(rs.w)
		rs.w = nil
	}
	return nil
}

// Thaw reopens a frozen store for appending. Callers must serialize
// writes (the database write lock does); spill readers use independent
// offsets, so iterators created before thawing keep their snapshot of the
// on-disk prefix.
func (rs *RowStore) Thaw() {
	if !rs.frozen {
		return
	}
	rs.frozen = false
	if rs.file != nil {
		rs.w = getSpillWriter(rs.file)
	}
}

func (rs *RowStore) layout() string { return LayoutRow }

// vectorKinds is nil: the row layout has no typed column vectors.
func (rs *RowStore) vectorKinds() []string { return nil }

// morselCount is the number of fixed-size morsels the in-memory rows
// split into for parallel scans, or 0 for a spilled store. Boundaries
// depend only on the data, so the morsel schedule is identical for
// every worker count.
func (rs *RowStore) morselCount() int {
	if rs.Spilled() {
		return 0
	}
	return (len(rs.mem) + morselRows - 1) / morselRows
}

// morsel returns the rows of morsel i. The store must be frozen and
// fully in memory.
func (rs *RowStore) morsel(i int) []Row {
	lo := i * morselRows
	hi := min(lo+morselRows, len(rs.mem))
	return rs.mem[lo:hi]
}

func (rs *RowStore) morselScanner() (morselScanner, error) {
	if err := rs.Freeze(); err != nil {
		return nil, err
	}
	return &rowMorselScan{rs: rs}, nil
}

// rowMorselScan transposes one claimed morsel's rows into reusable
// column-major batches.
type rowMorselScan struct {
	rs   *RowStore
	rows []Row // remainder of the current morsel
	buf  *rowBatch
}

func (s *rowMorselScan) setMorsel(i int) { s.rows = s.rs.morsel(i) }

func (s *rowMorselScan) NextBatch() (*rowBatch, error) {
	if len(s.rows) == 0 {
		return nil, nil
	}
	if s.buf == nil {
		s.buf = newRowBatch(s.rs.width)
	}
	s.buf.reset()
	n := min(len(s.rows), batchSize)
	for _, r := range s.rows[:n] {
		s.buf.appendRow(r)
	}
	s.rows = s.rows[n:]
	return s.buf, nil
}

// Cursor returns a fresh row iterator over all rows (disk prefix first,
// then the in-memory tail). Multiple concurrent cursors are allowed
// once the store is frozen.
func (rs *RowStore) Cursor() (rowCursor, error) {
	if err := rs.Freeze(); err != nil {
		return nil, err
	}
	it := &RowIterator{store: rs}
	if rs.file != nil && rs.fileRows > 0 {
		info, err := rs.file.Stat()
		if err != nil {
			return nil, err
		}
		it.r = newSpillReader(rs.file, info.Size())
		it.fileLeft = rs.fileRows
	}
	return it, nil
}

// batchScan reads the store in batches, transposing stored rows into a
// reusable column-major batch (the row layout's scan cost; the columnar
// store serves column slices instead).
func (rs *RowStore) batchScan() (storeScan, error) {
	cur, err := rs.Cursor()
	if err != nil {
		return nil, err
	}
	return &rowStoreScan{it: cur.(*RowIterator), width: max(rs.width, 0)}, nil
}

type rowStoreScan struct {
	it    *RowIterator
	width int
	buf   *rowBatch
	done  bool
}

func (s *rowStoreScan) NextBatch() (*rowBatch, error) {
	if s.done {
		return nil, nil
	}
	if s.buf == nil {
		s.buf = newRowBatch(s.width)
	}
	s.buf.reset()
	for !s.buf.full() {
		row, ok, err := s.it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			s.done = true
			break
		}
		s.buf.appendRow(row)
	}
	if s.buf.n == 0 {
		return nil, nil
	}
	return s.buf, nil
}

// Release frees memory reservations and deletes any spill file. The
// store must not be used afterwards.
func (rs *RowStore) Release() {
	rs.env.budget.release(rs.memBytes)
	rs.mem = nil
	rs.memBytes = 0
	if rs.file != nil {
		name := rs.file.Name()
		rs.file.Close()
		os.Remove(name)
		rs.file = nil
		putSpillWriter(rs.w)
		rs.w = nil
	}
}

// RowIterator walks a frozen RowStore.
type RowIterator struct {
	store    *RowStore
	r        *bufio.Reader
	fileLeft int64
	memIdx   int
}

// Next returns the next row, or ok=false at the end.
func (it *RowIterator) Next() (Row, bool, error) {
	if it.fileLeft > 0 {
		row, err := decodeRow(it.r)
		if err != nil {
			return nil, false, fmt.Errorf("sqlengine: reading spill file: %w", err)
		}
		it.fileLeft--
		return row, true, nil
	}
	if it.memIdx < len(it.store.mem) {
		row := it.store.mem[it.memIdx]
		it.memIdx++
		return row, true, nil
	}
	return nil, false, nil
}

// Row/value binary encoding for row-layout spill files; the columnar
// spill format reuses the per-value codec for generic (mixed-type)
// column runs.

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

func encodeRow(w *bufio.Writer, row Row) (int, error) {
	var scratch [binary.MaxVarintLen64]byte
	total := 0
	n := binary.PutUvarint(scratch[:], uint64(len(row)))
	if _, err := w.Write(scratch[:n]); err != nil {
		return total, err
	}
	total += n
	for _, v := range row {
		vn, err := encodeValue(w, v)
		total += vn
		if err != nil {
			return total, err
		}
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
		var buf [8]byte
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return Null, err
		}
		return NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))), nil
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

func decodeRow(r *bufio.Reader) (Row, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	row := make(Row, n)
	for i := range row {
		v, err := decodeValue(r)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return row, nil
}

// encodeValueKey produces a canonical byte-string key for grouping and
// DISTINCT. Numerically equal INTEGER/REAL/BOOLEAN values map to the same
// key (SQL equality), while remaining distinct from texts.
func encodeValueKey(v Value) string {
	switch v.T {
	case TypeNull:
		return "\x00"
	case TypeInt, TypeBool:
		var buf [1 + binary.MaxVarintLen64]byte
		buf[0] = 1
		n := binary.PutVarint(buf[1:], v.I)
		return string(buf[:1+n])
	case TypeFloat:
		// Integral floats share keys with equal ints.
		if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1<<62 {
			var buf [1 + binary.MaxVarintLen64]byte
			buf[0] = 1
			n := binary.PutVarint(buf[1:], int64(v.F))
			return string(buf[:1+n])
		}
		var buf [9]byte
		buf[0] = 2
		binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(v.F))
		return string(buf[:])
	case TypeText:
		return "\x03" + v.S
	}
	return "\x7f"
}

// encodeRowKey concatenates value keys with length prefixes so composite
// keys cannot collide.
func encodeRowKey(vals []Value) string {
	total := 0
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = encodeValueKey(v)
		total += len(parts[i]) + binary.MaxVarintLen64
	}
	buf := make([]byte, 0, total)
	var scratch [binary.MaxVarintLen64]byte
	for _, p := range parts {
		n := binary.PutUvarint(scratch[:], uint64(len(p)))
		buf = append(buf, scratch[:n]...)
		buf = append(buf, p...)
	}
	return string(buf)
}
