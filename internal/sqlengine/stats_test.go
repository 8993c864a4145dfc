package sqlengine

import "testing"

// TestStatsIncrementalAtAppend: base tables collect row counts, null
// counts, int min/max and zero counts as rows are appended — no ANALYZE
// needed.
func TestStatsIncrementalAtAppend(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (s INTEGER, r REAL, name TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (5, 0.0, 'a'), (7, 1.5, 'b'), (-3, 0.0, NULL), (7, 2.5, 'a')")
	ts := db.lookupTable("t").store.stats
	if ts == nil {
		t.Fatal("no statistics collected")
	}
	if ts.rows != 4 {
		t.Fatalf("rows = %d", ts.rows)
	}
	s := ts.col(0)
	if !s.intSeen || s.intMin != -3 || s.intMax != 7 {
		t.Fatalf("int min/max = %+v", s)
	}
	if s.nulls != 0 || s.zeros != 0 {
		t.Fatalf("nulls/zeros(s) = %+v", s)
	}
	r := ts.col(1)
	if r.zeros != 2 || r.nulls != 0 || r.intSeen {
		t.Fatalf("stats(r) = %+v, want 2 zeros, no nulls, no integers", r)
	}
	name := ts.col(2)
	if name.nulls != 1 || name.zeros != 0 || name.intSeen {
		t.Fatalf("stats(name) = %+v, want 1 null, no zeros, no integers", name)
	}
	mustExec(t, db, "INSERT INTO t VALUES (0, NULL, 'c')")
	ts = db.lookupTable("t").store.stats
	if s, r := ts.col(0), ts.col(1); ts.rows != 5 || s.zeros != 1 || s.intMin != -3 || r.nulls != 1 || r.zeros != 2 {
		t.Fatalf("after one more row: rows=%d s=%+v r=%+v", ts.rows, s, r)
	}
}

// TestStatsSurviveDeleteUpdate: DELETE/UPDATE rewrite the table through
// a fresh collector, so statistics stay exact.
func TestStatsSurviveDeleteUpdate(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b INTEGER)")
	fillSequence(t, db, "t", 100)
	mustExec(t, db, "DELETE FROM t WHERE a >= 50")
	ts := db.lookupTable("t").store.stats
	if ts == nil || ts.rows != 50 {
		t.Fatalf("stats after DELETE: %+v", ts)
	}
	if c := ts.col(0); c.intMax != 49 {
		t.Fatalf("intMax after DELETE = %d, want 49", c.intMax)
	}
	mustExec(t, db, "UPDATE t SET a = a + 1000 WHERE a < 10")
	ts = db.lookupTable("t").store.stats
	if c := ts.col(0); c.intMax != 1009 || c.intMin != 10 {
		t.Fatalf("min/max after UPDATE = [%d, %d], want [10, 1009]", c.intMin, c.intMax)
	}
}

// TestAnalyzeStatement: CTAS results collect column statistics during
// materialization, so ANALYZE finds them fresh and just reports the
// row count instead of rescanning.
func TestAnalyzeStatement(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE src (a INTEGER, b REAL)")
	fillSequence(t, db, "src", 200)
	mustExec(t, db, "CREATE TABLE derived AS SELECT a * 2 AS a2, b FROM src")
	ts := db.lookupTable("derived").store.stats
	if ts == nil || ts.rows != 200 {
		t.Fatalf("stats after CTAS: %+v", ts)
	}
	if c := ts.col(0); c.intMin != 0 || c.intMax != 398 {
		t.Fatalf("min/max after CTAS = [%d, %d]", c.intMin, c.intMax)
	}
	n := mustExec(t, db, "ANALYZE derived")
	if n != 200 {
		t.Fatalf("ANALYZE returned %d rows", n)
	}
	// The analyzed table keeps collecting on later appends.
	mustExec(t, db, "INSERT INTO derived VALUES (1000, 0.0)")
	ts = db.lookupTable("derived").store.stats
	if ts.rows != 201 || ts.col(0).intMax != 1000 {
		t.Fatalf("stats not incremental after ANALYZE: %+v", ts)
	}
	// Errors.
	if _, err := db.Exec("ANALYZE missing"); err == nil {
		t.Fatal("expected error for ANALYZE of missing table")
	}
}

// TestAnalyzeKeepsThawedState: ANALYZE freezes the store for its scan
// but must restore writability for subsequent inserts.
func TestAnalyzeKeepsThawedState(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	mustExec(t, db, "ANALYZE t")
	mustExec(t, db, "INSERT INTO t VALUES (2)")
	rows := queryAll(t, db, "SELECT a FROM t ORDER BY a")
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
}
