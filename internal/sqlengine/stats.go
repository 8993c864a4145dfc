package sqlengine

import (
	"fmt"
	"hash/fnv"
	"math"
)

// Table statistics. Every base-table store carries an optional
// *tableStats collector that the storage layer updates incrementally at
// append time (ColStore.Append/AppendBatch): row count,
// per-column null count, integer min/max, a zero count on numeric
// columns (the sparsity signal of the amplitude columns in translated
// gate queries), and a cheap probabilistic distinct estimate. ANALYZE
// <table> rebuilds the same statistics from a full scan, for tables
// whose store predates collection (CREATE TABLE AS SELECT results).
//
// The statistics feed the cost model in optimize.go: filter
// selectivities, join and aggregation cardinalities, and the hash-table
// pre-sizing hints derive from them.
// Statistics after DELETE/UPDATE stay exact because those statements
// rewrite the table into a fresh store with a fresh collector.

// distinctBits is the size of the distinct-count bitmap. Linear
// (probabilistic) counting over 4096 bits estimates distinct counts with
// a few percent error up to ~10k distinct values and degrades gracefully
// to a saturating lower bound beyond — plenty for selectivity
// estimation, at 512 bytes per column.
const distinctBits = 4096

// distinctSketch is a linear probabilistic counting bitmap.
type distinctSketch struct {
	bits [distinctBits / 64]uint64
	set  int
}

func (s *distinctSketch) add(h uint64) {
	i := h % distinctBits
	w, b := i>>6, uint64(1)<<(i&63)
	if s.bits[w]&b == 0 {
		s.bits[w] |= b
		s.set++
	}
}

// estimate returns the estimated number of distinct values observed.
func (s *distinctSketch) estimate() float64 {
	m := float64(distinctBits)
	unset := m - float64(s.set)
	if unset < 1 {
		// Saturated: every slot hit. The true count is at least ~m ln m.
		return m * math.Log(m)
	}
	return m * math.Log(m/unset)
}

// valueHash hashes a value for distinct counting. Values that compare
// SQL-equal must collide: integer-valued floats hash like the integer
// (mirroring intKey), booleans like 0/1.
func valueHash(v Value) uint64 {
	switch v.T {
	case TypeInt, TypeBool:
		return mix64(uint64(v.I), 0)
	case TypeFloat:
		if ik, ok := intKey(v); ok {
			return mix64(uint64(ik), 0)
		}
		return mix64(math.Float64bits(v.F), 1)
	case TypeText:
		h := fnv.New64a()
		h.Write([]byte(v.S))
		return h.Sum64()
	}
	return 0
}

// colStats accumulates one column's statistics.
type colStats struct {
	nulls int64
	// zeros counts numeric values equal to zero — the sparsity signal:
	// on an amplitude column, rows/(rows-zeros) bounds how much
	// zero-amplitude pruning can shrink the state.
	zeros int64
	// intMin/intMax track INTEGER values only (intSeen reports whether
	// any were observed).
	intMin, intMax int64
	intSeen        bool
	sketch         distinctSketch
}

func (c *colStats) observe(v Value) {
	switch v.T {
	case TypeNull:
		c.nulls++
		return
	case TypeInt:
		if !c.intSeen || v.I < c.intMin {
			c.intMin = v.I
		}
		if !c.intSeen || v.I > c.intMax {
			c.intMax = v.I
		}
		c.intSeen = true
		if v.I == 0 {
			c.zeros++
		}
	case TypeFloat:
		if v.F == 0 {
			c.zeros++
		}
	}
	c.sketch.add(valueHash(v))
}

// distinct returns the column's estimated distinct count, at least 1.
func (c *colStats) distinct() float64 {
	d := c.sketch.estimate()
	if d < 1 {
		return 1
	}
	return d
}

// tableStats is one table's statistics collector and snapshot. Appends
// run under the database write lock and the planner reads under the read
// lock, so plain fields suffice.
type tableStats struct {
	rows int64
	cols []colStats
}

func (ts *tableStats) observeRow(row Row) {
	ts.ensureWidth(len(row))
	for i, v := range row {
		ts.cols[i].observe(v)
	}
	ts.rows++
}

// observeBatch folds every selected row of a batch into the statistics,
// column at a time.
func (ts *tableStats) observeBatch(b *rowBatch) {
	ts.ensureWidth(b.width())
	for i := range b.cols {
		col := b.cols[i]
		cs := &ts.cols[i]
		if b.sel == nil {
			for _, v := range col[:b.n] {
				cs.observe(v)
			}
		} else {
			for _, p := range b.sel {
				cs.observe(col[p])
			}
		}
	}
	ts.rows += int64(b.rows())
}

// observeAmps is observeBatch for rows given as typed (s, r, i)
// vectors (ColStore.appendAmps): the same values observed in the same
// order.
func (ts *tableStats) observeAmps(s []int64, r, i []float64) {
	ts.ensureWidth(3)
	for _, x := range s {
		ts.cols[0].observe(NewInt(x))
	}
	for _, x := range r {
		ts.cols[1].observe(NewFloat(x))
	}
	for _, x := range i {
		ts.cols[2].observe(NewFloat(x))
	}
	ts.rows += int64(len(s))
}

func (ts *tableStats) ensureWidth(w int) {
	for len(ts.cols) < w {
		ts.cols = append(ts.cols, colStats{})
	}
}

// col returns the statistics for column i, or nil when not collected.
func (ts *tableStats) col(i int) *colStats {
	if ts == nil || i < 0 || i >= len(ts.cols) {
		return nil
	}
	return &ts.cols[i]
}

// nullFraction and zeroFraction report per-column fractions of the
// table's rows (0 when no rows were observed).
func (c *colStats) nullFraction(rows int64) float64 {
	if rows <= 0 {
		return 0
	}
	return float64(c.nulls) / float64(rows)
}

func (c *colStats) zeroFraction(rows int64) float64 {
	if rows <= 0 {
		return 0
	}
	return float64(c.zeros) / float64(rows)
}

// AnalyzeStmt is ANALYZE <table>: recompute the table's statistics from
// a full scan and attach them to the store for the planner.
type AnalyzeStmt struct {
	Table string
}

func (*AnalyzeStmt) stmt() {}

// execAnalyze scans the table once, rebuilding its statistics. It
// returns the number of rows analyzed.
func (db *DB) execAnalyze(s *AnalyzeStmt) (int64, error) {
	if db.closed {
		return 0, fmt.Errorf("sqlengine: database is closed")
	}
	meta := db.lookupTable(s.Table)
	if meta == nil {
		return 0, fmt.Errorf("sqlengine: no such table: %s", s.Table)
	}
	// Incrementally collected statistics are exact by construction (a
	// collector attached at CREATE observes every append, and
	// DELETE/UPDATE rewrites re-collect); skip the rescan then.
	// core.Translate emits ANALYZE after its setup inserts, so this
	// keeps repeated translations and cached-plan rebinds cheap.
	if cur := meta.store.stats; cur != nil && cur.rows == meta.store.Len() {
		return cur.rows, nil
	}
	ts := &tableStats{}
	frozen := meta.store.frozen
	restore := func() {
		if !frozen {
			meta.store.Thaw()
		}
	}
	scan, err := meta.store.batchScan() // freezes the store
	if err != nil {
		restore()
		return 0, err
	}
	for {
		b, err := scan.NextBatch()
		if err != nil {
			restore()
			return 0, err
		}
		if b == nil {
			break
		}
		ts.observeBatch(b)
	}
	restore()
	meta.store.stats = ts
	return ts.rows, nil
}
