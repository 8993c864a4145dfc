package sqlengine

import (
	"strings"
	"testing"
)

func TestExplainSimpleScan(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b REAL)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 2.0), (3, 4.0)")
	plan, err := db.Explain("SELECT a FROM t WHERE a > 1 ORDER BY a LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"output: a", "Limit", "Sort", "Project a", "Filter (a > 1)", "Scan t (rows=2"} {
		if !strings.Contains(plan, frag) {
			t.Fatalf("plan missing %q:\n%s", frag, plan)
		}
	}
}

func TestExplainHashJoinAndAggregate(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE a (x INTEGER)")
	mustExec(t, db, "CREATE TABLE b (x INTEGER, y INTEGER)")
	plan, err := db.Explain("SELECT a.x, COUNT(*) FROM a JOIN b ON a.x = b.x GROUP BY a.x")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "HashJoin (INNER) on a.x = b.x") {
		t.Fatalf("plan:\n%s", plan)
	}
	if !strings.Contains(plan, "HashAggregate keys=[a.x] aggs=[COUNT(*)]") {
		t.Fatalf("plan:\n%s", plan)
	}
}

func TestExplainCTEInlined(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (s INTEGER, r REAL)")
	plan, err := db.Explain(`WITH u AS (SELECT s * 2 AS d FROM t) SELECT d FROM u WHERE d > 0`)
	if err != nil {
		t.Fatal(err)
	}
	// The CTE is inlined: its Project over the base scan appears in the
	// plan and no data was touched.
	if !strings.Contains(plan, "As u") || !strings.Contains(plan, "Scan t") {
		t.Fatalf("plan:\n%s", plan)
	}
}

// TestExplainDoesNotExecute verifies EXPLAIN leaves tables and engine
// stats untouched even for queries over large tables.
func TestExplainDoesNotExecute(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (x INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2), (3)")
	before := db.Stats()
	if _, err := db.Explain("WITH big AS (SELECT a.x FROM t a, t b, t c) SELECT COUNT(*) FROM big"); err != nil {
		t.Fatal(err)
	}
	after := db.Stats()
	if after.SpilledRows != before.SpilledRows {
		t.Fatal("EXPLAIN caused spilling")
	}
}

func TestExplainFig2Query(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE T0 (s INTEGER, r REAL, i REAL)")
	mustExec(t, db, "CREATE TABLE H (in_s INTEGER, out_s INTEGER, r REAL, i REAL)")
	plan, err := db.Explain(`WITH T1 AS (
		SELECT ((T0.s & ~1) | H.out_s) AS s,
		       SUM((T0.r * H.r) - (T0.i * H.i)) AS r,
		       SUM((T0.r * H.i) + (T0.i * H.r)) AS i
		FROM T0 JOIN H ON H.in_s = (T0.s & 1)
		GROUP BY ((T0.s & ~1) | H.out_s)
	) SELECT s, r, i FROM T1 ORDER BY s`)
	if err != nil {
		t.Fatal(err)
	}
	// The gate application shows up as HashJoin + HashAggregate — the
	// relational machinery the paper delegates to the RDBMS.
	if !strings.Contains(plan, "HashJoin (INNER) on (T0.s & 1) = H.in_s") {
		t.Fatalf("plan:\n%s", plan)
	}
	if !strings.Contains(plan, "HashAggregate") || !strings.Contains(plan, "SUM(") {
		t.Fatalf("plan:\n%s", plan)
	}
}

func TestExplainErrors(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Explain("CREATE TABLE t (x INTEGER)"); err == nil {
		t.Fatal("expected error for non-SELECT")
	}
	if _, err := db.Explain("SELECT * FROM missing"); err == nil {
		t.Fatal("expected error for missing table")
	}
}

// TestExplainBatchOperators pins the vectorized executor's operator
// names and per-operator row counts: plans must advertise the batched
// physical operators (BatchScan/BatchFilter/BatchProject), the batch
// size, and the scanned row count.
func TestExplainBatchOperators(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b REAL)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 2.0), (3, 4.0), (5, 6.0)")
	plan, err := db.Explain("SELECT a * 2 FROM t WHERE a > 1 ORDER BY a LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"executor: vectorized (batch=1024, selection vectors)",
		"BatchScan t (rows=3, cols=2, batch=1024, layout=columnar[int64 float64])",
		"BatchFilter (a > 1) [selection vector]",
		"BatchProject (a * 2)",
	} {
		if !strings.Contains(plan, frag) {
			t.Fatalf("plan missing %q:\n%s", frag, plan)
		}
	}
}

// TestExplainStorageLayout pins the storage annotations: the header
// names the configured layout and every base-table scan reports its
// physical format — for the columnar store, the vector type of each
// column.
func TestExplainStorageLayout(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (s INTEGER, r REAL, name TEXT, ok BOOLEAN)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 0.5, 'x', TRUE), (2, 0.25, NULL, FALSE)")
	plan, err := db.Explain("SELECT s FROM t")
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"storage: columnar (typed column vectors + null bitmaps, spill=column chunks, encodings=on)",
		"layout=columnar[int64 float64 string bool]",
	} {
		if !strings.Contains(plan, frag) {
			t.Fatalf("plan missing %q:\n%s", frag, plan)
		}
	}

	// A column that mixes types degrades to the generic vector and says
	// so.
	mustExec(t, db, "CREATE TABLE m (v INTEGER)")
	mustExec(t, db, "INSERT INTO m VALUES (1), ('text')")
	plan, err = db.Explain("SELECT v FROM m")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "layout=columnar[values]") {
		t.Fatalf("plan missing generic-vector annotation:\n%s", plan)
	}

	// The legacy row layout is reported as such, with no vector kinds.
	rowDB, err := Open(Config{Layout: LayoutRow})
	if err != nil {
		t.Fatal(err)
	}
	defer rowDB.Close()
	mustExec(t, rowDB, "CREATE TABLE t (s INTEGER)")
	plan, err = rowDB.Explain("SELECT s FROM t")
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"storage: row (legacy []Row layout)", "layout=row)"} {
		if !strings.Contains(plan, frag) {
			t.Fatalf("plan missing %q:\n%s", frag, plan)
		}
	}
}

// TestExplainBatchJoinAggregateModes verifies the blocking operators
// report their batch execution strategy: streaming probe for hash
// joins, streaming vs materialized hash aggregation (DISTINCT
// aggregates cannot stream).
func TestExplainBatchJoinAggregateModes(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE a (x INTEGER)")
	mustExec(t, db, "CREATE TABLE b (x INTEGER, y INTEGER)")
	plan, err := db.Explain("SELECT a.x, COUNT(*) FROM a JOIN b ON a.x = b.x GROUP BY a.x")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "HashJoin (INNER) on a.x = b.x [streaming batch probe]") {
		t.Fatalf("plan:\n%s", plan)
	}
	if !strings.Contains(plan, "HashAggregate keys=[a.x] aggs=[COUNT(*)] [streaming]") {
		t.Fatalf("plan:\n%s", plan)
	}
	plan, err = db.Explain("SELECT COUNT(DISTINCT y) FROM b")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "aggs=[COUNT(DISTINCT y)] [materialized]") {
		t.Fatalf("plan:\n%s", plan)
	}
}

func TestExplainWithUnboundParams(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (x INTEGER)")
	plan, err := db.Explain("SELECT x FROM t WHERE x > ?")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "Filter") {
		t.Fatalf("plan:\n%s", plan)
	}
}
