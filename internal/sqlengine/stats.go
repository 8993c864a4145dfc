package sqlengine

import "fmt"

// Table statistics. Every base-table store carries an optional
// *tableStats collector that the storage layer updates incrementally at
// append time (ColStore.Append/AppendBatch): row count, per-column null
// count and integer min/max. ANALYZE <table> rebuilds the same
// statistics from a full scan, for tables whose store predates
// collection (CREATE TABLE AS SELECT results).
//
// One reader uses them, and it needs exact values: the kernel's dense
// key bound (denseBound in kernel_gate.go) reads the state index
// column's min, max and null count. No plan is chosen from them.
// Statistics after DELETE/UPDATE stay exact because those statements
// rewrite the table into a fresh store with a fresh collector.

// colStats accumulates one column's statistics.
type colStats struct {
	nulls int64
	// intMin/intMax track INTEGER values only (intSeen reports whether
	// any were observed).
	intMin, intMax int64
	intSeen        bool
}

func (c *colStats) observe(v Value) {
	switch v.T {
	case TypeNull:
		c.nulls++
	case TypeInt:
		if !c.intSeen || v.I < c.intMin {
			c.intMin = v.I
		}
		if !c.intSeen || v.I > c.intMax {
			c.intMax = v.I
		}
		c.intSeen = true
	}
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
