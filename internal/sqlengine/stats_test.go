package sqlengine

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestStatsIncrementalAtAppend: base tables collect row counts, null
// counts, int min/max, zero counts, and distinct estimates as rows are
// appended — no ANALYZE needed.
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
	if d := s.distinct(); d < 2.5 || d > 3.5 {
		t.Fatalf("distinct(s) = %g, want ~3", d)
	}
	r := ts.col(1)
	if r.zeros != 2 {
		t.Fatalf("zeros(r) = %d", r.zeros)
	}
	name := ts.col(2)
	if name.nulls != 1 {
		t.Fatalf("nulls(name) = %d", name.nulls)
	}
	if d := name.distinct(); d < 1.5 || d > 2.5 {
		t.Fatalf("distinct(name) = %g, want ~2", d)
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

// TestDistinctSketchAccuracy: the linear-counting sketch stays within a
// usable error band in its design range and saturates gracefully.
func TestDistinctSketchAccuracy(t *testing.T) {
	for _, n := range []int{10, 100, 1000, 5000} {
		var s distinctSketch
		for i := 0; i < n; i++ {
			s.add(mix64(uint64(i), 7))
		}
		est := s.estimate()
		relErr := math.Abs(est-float64(n)) / float64(n)
		if n <= 1000 && relErr > 0.15 {
			t.Fatalf("n=%d: estimate %.0f (err %.2f)", n, est, relErr)
		}
		if est < float64(n)/3 {
			t.Fatalf("n=%d: estimate %.0f collapsed", n, est)
		}
	}
}

// TestStatsDriveJoinEstimate: the gate-query join estimate uses the
// gate table's key distinct count (fanout), mirroring the paper's
// T ⋈ G cardinality |T| * |G| / distinct(in_s).
func TestStatsDriveJoinEstimate(t *testing.T) {
	db := newOptDB(t, Config{})
	mustExec(t, db, "CREATE TABLE t0 (s INTEGER, r REAL, i REAL)")
	mustExec(t, db, "CREATE TABLE h (in_s INTEGER, out_s INTEGER, r REAL, i REAL)")
	mustExec(t, db, "INSERT INTO h VALUES (0,0,0.7,0),(0,1,0.7,0),(1,0,0.7,0),(1,1,-0.7,0)")
	var vals []string
	for k := 0; k < 1024; k++ {
		vals = append(vals, fmt.Sprintf("(%d, 1.0, 0.0)", k))
	}
	mustExec(t, db, "INSERT INTO t0 VALUES "+strings.Join(vals, ","))
	plan, err := db.Explain("SELECT t0.s, h.out_s FROM t0 JOIN h ON h.in_s = (t0.s & 1)")
	if err != nil {
		t.Fatal(err)
	}
	// |t0|=1024, |h|=4, distinct(in_s)~2 -> est ~2048 (the probabilistic
	// sketch lands within a fraction of a percent).
	if !strings.Contains(plan, "HashJoin (INNER) on (t0.s & 1) = h.in_s [streaming batch probe] (est_rows=204") {
		t.Fatalf("join estimate missing or wrong:\n%s", plan)
	}
}
