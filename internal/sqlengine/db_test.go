package sqlengine

import (
	"math"
	"strings"
	"testing"
)

func newTestDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func mustExec(t *testing.T, db *DB, sql string, params ...Value) int64 {
	t.Helper()
	n, err := db.Exec(sql, params...)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return n
}

func queryAll(t *testing.T, db *DB, sql string, params ...Value) []Row {
	t.Helper()
	rs, err := db.Query(sql, params...)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	defer rs.Close()
	rows, err := rs.All()
	if err != nil {
		t.Fatalf("drain %q: %v", sql, err)
	}
	return rows
}

func TestCreateInsertSelect(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b REAL, c TEXT)")
	n := mustExec(t, db, "INSERT INTO t VALUES (1, 2.5, 'x'), (2, -1.0, 'y')")
	if n != 2 {
		t.Fatalf("inserted %d", n)
	}
	rows := queryAll(t, db, "SELECT a, b, c FROM t ORDER BY a")
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0].I != 1 || rows[0][1].F != 2.5 || rows[0][2].S != "x" {
		t.Fatalf("row0 = %v", rows[0])
	}
}

func TestInsertColumnSubsetAndAffinity(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b REAL, c TEXT)")
	mustExec(t, db, "INSERT INTO t (b, a) VALUES (7, 3.0)")
	rows := queryAll(t, db, "SELECT a, b, c FROM t")
	// a gets integer affinity from 3.0; b gets real from 7; c is NULL.
	if rows[0][0].T != TypeInt || rows[0][0].I != 3 {
		t.Fatalf("a = %+v", rows[0][0])
	}
	if rows[0][1].T != TypeFloat || rows[0][1].F != 7 {
		t.Fatalf("b = %+v", rows[0][1])
	}
	if !rows[0][2].IsNull() {
		t.Fatalf("c = %+v", rows[0][2])
	}
}

func TestSelectExpressionsNoFrom(t *testing.T) {
	db := newTestDB(t)
	rows := queryAll(t, db, "SELECT 1 + 2 * 3, 7 / 2, 7.0 / 2, 7 % 3")
	r := rows[0]
	if r[0].I != 7 || r[1].I != 3 || r[2].F != 3.5 || r[3].I != 1 {
		t.Fatalf("row = %v", r)
	}
}

func TestWhereFilterAndParams(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (x INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2), (3), (4), (5)")
	rows := queryAll(t, db, "SELECT x FROM t WHERE x > ? AND x < ? ORDER BY x", NewInt(1), NewInt(5))
	if len(rows) != 3 || rows[0][0].I != 2 || rows[2][0].I != 4 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestJoinHash(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE a (id INTEGER, v TEXT)")
	mustExec(t, db, "CREATE TABLE b (id INTEGER, w TEXT)")
	mustExec(t, db, "INSERT INTO a VALUES (1,'a1'), (2,'a2'), (3,'a3')")
	mustExec(t, db, "INSERT INTO b VALUES (2,'b2'), (3,'b3'), (3,'b3x'), (4,'b4')")
	rows := queryAll(t, db, "SELECT a.id, a.v, b.w FROM a JOIN b ON a.id = b.id ORDER BY a.id, b.w")
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0].I != 2 || rows[1][2].S != "b3" || rows[2][2].S != "b3x" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestLeftJoin(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE a (id INTEGER)")
	mustExec(t, db, "CREATE TABLE b (id INTEGER, w TEXT)")
	mustExec(t, db, "INSERT INTO a VALUES (1), (2)")
	mustExec(t, db, "INSERT INTO b VALUES (2, 'two')")
	rows := queryAll(t, db, "SELECT a.id, b.w FROM a LEFT JOIN b ON a.id = b.id ORDER BY a.id")
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if !rows[0][1].IsNull() || rows[1][1].S != "two" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestJoinOnNullNeverMatches(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE a (id INTEGER)")
	mustExec(t, db, "CREATE TABLE b (id INTEGER)")
	mustExec(t, db, "INSERT INTO a VALUES (NULL), (1)")
	mustExec(t, db, "INSERT INTO b VALUES (NULL), (1)")
	rows := queryAll(t, db, "SELECT a.id FROM a JOIN b ON a.id = b.id")
	if len(rows) != 1 || rows[0][0].I != 1 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestCrossJoinAndNestedLoop(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE a (x INTEGER)")
	mustExec(t, db, "CREATE TABLE b (y INTEGER)")
	mustExec(t, db, "INSERT INTO a VALUES (1), (2)")
	mustExec(t, db, "INSERT INTO b VALUES (10), (20)")
	rows := queryAll(t, db, "SELECT x, y FROM a CROSS JOIN b ORDER BY x, y")
	if len(rows) != 4 {
		t.Fatalf("rows = %v", rows)
	}
	// Non-equi join falls back to nested loop.
	rows = queryAll(t, db, "SELECT x, y FROM a JOIN b ON y > x * 10 ORDER BY x, y")
	if len(rows) != 3 { // (1,20),(2,? no: 20 <= 20 false... y>x*10: (1,20) yes, (1,10)? 10>10 no, (2,10) no, (2,20) no
		// recompute: (1,10): 10>10 false; (1,20): 20>10 true; (2,10): 10>20 false; (2,20): 20>20 false
		if len(rows) != 1 {
			t.Fatalf("rows = %v", rows)
		}
	}
}

func TestGroupByAggregates(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (k INTEGER, v REAL)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 1.0), (1, 2.0), (2, 5.0), (2, NULL)")
	rows := queryAll(t, db, "SELECT k, COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM t GROUP BY k ORDER BY k")
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	r1 := rows[0]
	if r1[1].I != 2 || r1[2].I != 2 || r1[3].F != 3.0 || r1[4].F != 1.5 {
		t.Fatalf("group1 = %v", r1)
	}
	r2 := rows[1]
	if r2[1].I != 2 || r2[2].I != 1 || r2[3].F != 5.0 {
		t.Fatalf("group2 = %v", r2)
	}
}

func TestGroupByExpressionMatching(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (s INTEGER, r REAL)")
	mustExec(t, db, "INSERT INTO t VALUES (0, 0.5), (1, 0.5), (2, 0.25), (3, 0.25)")
	// The grouped expression appears verbatim in SELECT — the paper's
	// translation relies on this.
	rows := queryAll(t, db, "SELECT (s & ~1) AS b, SUM(r) FROM t GROUP BY (s & ~1) ORDER BY b")
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0].I != 0 || rows[0][1].F != 1.0 {
		t.Fatalf("row0 = %v", rows[0])
	}
	if rows[1][0].I != 2 || rows[1][1].F != 0.5 {
		t.Fatalf("row1 = %v", rows[1])
	}
	// Qualified vs unqualified references must still match.
	rows = queryAll(t, db, "SELECT (t.s & ~1) AS b FROM t GROUP BY (s & ~1) ORDER BY b")
	if len(rows) != 2 {
		t.Fatalf("qualified match rows = %v", rows)
	}
}

func TestHaving(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (k INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (1), (2)")
	rows := queryAll(t, db, "SELECT k FROM t GROUP BY k HAVING COUNT(*) > 1")
	if len(rows) != 1 || rows[0][0].I != 1 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestGlobalAggregateEmptyInput(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (x INTEGER)")
	rows := queryAll(t, db, "SELECT COUNT(*), SUM(x), MIN(x) FROM t")
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0].I != 0 || !rows[0][1].IsNull() || !rows[0][2].IsNull() {
		t.Fatalf("row = %v", rows[0])
	}
	// With GROUP BY there must be zero rows.
	rows = queryAll(t, db, "SELECT x, COUNT(*) FROM t GROUP BY x")
	if len(rows) != 0 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestDistinct(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (x INTEGER, y INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1,1), (1,1), (1,2), (2,1)")
	rows := queryAll(t, db, "SELECT DISTINCT x, y FROM t ORDER BY x, y")
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	rows = queryAll(t, db, "SELECT COUNT(DISTINCT x) FROM t")
	if rows[0][0].I != 2 {
		t.Fatalf("count distinct = %v", rows[0])
	}
}

func TestOrderByVariants(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (3,'c'), (1,'a'), (2,'b')")
	// By alias.
	rows := queryAll(t, db, "SELECT a AS n FROM t ORDER BY n DESC")
	if rows[0][0].I != 3 || rows[2][0].I != 1 {
		t.Fatalf("rows = %v", rows)
	}
	// By position.
	rows = queryAll(t, db, "SELECT a, b FROM t ORDER BY 2")
	if rows[0][1].S != "a" {
		t.Fatalf("rows = %v", rows)
	}
	// By expression not in the projection (hidden key).
	rows = queryAll(t, db, "SELECT b FROM t ORDER BY a * -1")
	if rows[0][0].S != "c" || rows[2][0].S != "a" {
		t.Fatalf("rows = %v", rows)
	}
	if len(rows[0]) != 1 {
		t.Fatalf("hidden key leaked: %v", rows[0])
	}
}

func TestLimitOffset(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (x INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1),(2),(3),(4),(5)")
	rows := queryAll(t, db, "SELECT x FROM t ORDER BY x LIMIT 2 OFFSET 1")
	if len(rows) != 2 || rows[0][0].I != 2 || rows[1][0].I != 3 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestCTEsChained(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (x INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1),(2),(3)")
	rows := queryAll(t, db, `WITH a AS (SELECT x * 2 AS y FROM t),
		b AS (SELECT y + 1 AS z FROM a)
		SELECT z FROM b ORDER BY z`)
	if len(rows) != 3 || rows[0][0].I != 3 || rows[2][0].I != 7 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestSubqueryInFrom(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (x INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1),(2),(3),(4)")
	rows := queryAll(t, db, "SELECT q.big FROM (SELECT x AS big FROM t WHERE x > 2) q ORDER BY q.big")
	if len(rows) != 2 || rows[0][0].I != 3 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestCreateTableAsSelect(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (x INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1),(2),(3)")
	n := mustExec(t, db, "CREATE TABLE u AS SELECT x * 10 AS y FROM t WHERE x > 1")
	if n != 2 {
		t.Fatalf("CTAS rows = %d", n)
	}
	rows := queryAll(t, db, "SELECT y FROM u ORDER BY y")
	if len(rows) != 2 || rows[0][0].I != 20 {
		t.Fatalf("rows = %v", rows)
	}
	// CTAS table stays writable.
	mustExec(t, db, "INSERT INTO u VALUES (99)")
	rows = queryAll(t, db, "SELECT COUNT(*) FROM u")
	if rows[0][0].I != 3 {
		t.Fatalf("count = %v", rows[0])
	}
}

func TestDeleteUpdate(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (x INTEGER, y INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 0), (2, 0), (3, 0)")
	if n := mustExec(t, db, "UPDATE t SET y = x * x WHERE x >= 2"); n != 2 {
		t.Fatalf("updated %d", n)
	}
	rows := queryAll(t, db, "SELECT y FROM t ORDER BY x")
	if rows[0][0].I != 0 || rows[1][0].I != 4 || rows[2][0].I != 9 {
		t.Fatalf("rows = %v", rows)
	}
	if n := mustExec(t, db, "DELETE FROM t WHERE y = 0"); n != 1 {
		t.Fatalf("deleted %d", n)
	}
	rows = queryAll(t, db, "SELECT COUNT(*) FROM t")
	if rows[0][0].I != 2 {
		t.Fatalf("count = %v", rows[0])
	}
}

func TestDropTable(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (x INTEGER)")
	mustExec(t, db, "DROP TABLE t")
	if _, err := db.Query("SELECT * FROM t"); err == nil {
		t.Fatal("expected error after drop")
	}
	mustExec(t, db, "DROP TABLE IF EXISTS t")
	if _, err := db.Exec("DROP TABLE t"); err == nil {
		t.Fatal("expected error on double drop")
	}
}

func TestNullSemantics(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (x INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (NULL), (3)")
	// NULL comparisons are unknown, filtered out.
	rows := queryAll(t, db, "SELECT x FROM t WHERE x > 0")
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	rows = queryAll(t, db, "SELECT x FROM t WHERE x IS NULL")
	if len(rows) != 1 || !rows[0][0].IsNull() {
		t.Fatalf("rows = %v", rows)
	}
	// Arithmetic propagates NULL; division by zero is NULL.
	rows = queryAll(t, db, "SELECT NULL + 1, 1 / 0, 1.0 / 0.0")
	for i, v := range rows[0] {
		if !v.IsNull() {
			t.Fatalf("col %d = %v, want NULL", i, v)
		}
	}
}

func TestCaseExpression(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (x INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (-5), (0), (7)")
	rows := queryAll(t, db, "SELECT CASE WHEN x > 0 THEN 'pos' WHEN x < 0 THEN 'neg' ELSE 'zero' END FROM t ORDER BY x")
	if rows[0][0].S != "neg" || rows[1][0].S != "zero" || rows[2][0].S != "pos" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestScalarFunctions(t *testing.T) {
	db := newTestDB(t)
	rows := queryAll(t, db, "SELECT ABS(-4), ROUND(2.567, 2), SQRT(9.0), POWER(2, 10), MOD(7, 3), SIGN(-2), LENGTH('abc'), UPPER('ab'), COALESCE(NULL, 5)")
	r := rows[0]
	if r[0].I != 4 || math.Abs(r[1].F-2.57) > 1e-9 || r[2].F != 3 || r[3].F != 1024 || r[4].I != 1 || r[5].I != -1 || r[6].I != 3 || r[7].S != "AB" || r[8].I != 5 {
		t.Fatalf("row = %v", r)
	}
}

func TestLikeAndIn(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (s TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES ('hello'), ('help'), ('world')")
	rows := queryAll(t, db, "SELECT s FROM t WHERE s LIKE 'hel%' ORDER BY s")
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	rows = queryAll(t, db, "SELECT s FROM t WHERE s IN ('world', 'nothing')")
	if len(rows) != 1 || rows[0][0].S != "world" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestAmbiguousColumnError(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE a (x INTEGER)")
	mustExec(t, db, "CREATE TABLE b (x INTEGER)")
	mustExec(t, db, "INSERT INTO a VALUES (1)")
	mustExec(t, db, "INSERT INTO b VALUES (1)")
	_, err := db.Query("SELECT x FROM a JOIN b ON a.x = b.x")
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("err = %v", err)
	}
}

func TestAggregateInWhereRejected(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (x INTEGER)")
	if _, err := db.Query("SELECT x FROM t WHERE SUM(x) > 1"); err == nil {
		t.Fatal("expected error")
	}
}

func TestColumnNotInGroupByRejected(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 2)")
	if _, err := db.Query("SELECT b, COUNT(*) FROM t GROUP BY a"); err == nil {
		t.Fatal("expected error for b not in GROUP BY")
	}
}

func TestStarExpansion(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE a (x INTEGER, y INTEGER)")
	mustExec(t, db, "CREATE TABLE b (z INTEGER)")
	mustExec(t, db, "INSERT INTO a VALUES (1, 2)")
	mustExec(t, db, "INSERT INTO b VALUES (3)")
	rs, err := db.Query("SELECT * FROM a JOIN b ON 1 = 1")
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if len(rs.Columns) != 3 {
		t.Fatalf("cols = %v", rs.Columns)
	}
	rs2, err := db.Query("SELECT b.* FROM a JOIN b ON 1 = 1")
	if err != nil {
		t.Fatal(err)
	}
	defer rs2.Close()
	if len(rs2.Columns) != 1 || rs2.Columns[0] != "z" {
		t.Fatalf("cols = %v", rs2.Columns)
	}
}

func TestResultColumnNames(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (s INTEGER, r REAL)")
	rs, err := db.Query("SELECT s, r AS amp, s + 1 FROM t")
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if rs.Columns[0] != "s" || rs.Columns[1] != "amp" || rs.Columns[2] != "(s + 1)" {
		t.Fatalf("cols = %v", rs.Columns)
	}
}

func TestQueryRejectsNonSelect(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Query("CREATE TABLE t (x INTEGER)"); err == nil {
		t.Fatal("expected error")
	}
}

func TestExecScript(t *testing.T) {
	db := newTestDB(t)
	err := db.ExecScript(`
		CREATE TABLE t (x INTEGER);
		INSERT INTO t VALUES (1), (2);
		UPDATE t SET x = x + 10;
	`)
	if err != nil {
		t.Fatal(err)
	}
	rows := queryAll(t, db, "SELECT SUM(x) FROM t")
	if rows[0][0].I != 23 {
		t.Fatalf("sum = %v", rows[0])
	}
}

func TestBoolsAndIIF(t *testing.T) {
	db := newTestDB(t)
	rows := queryAll(t, db, "SELECT TRUE, FALSE, IIF(TRUE, 1, 2), NOT TRUE")
	r := rows[0]
	if r[0].T != TypeBool || r[0].I != 1 || r[2].I != 1 {
		t.Fatalf("row = %v", r)
	}
	if b, _ := r[3].Bool(); b {
		t.Fatalf("NOT TRUE = %v", r[3])
	}
}

func TestCast(t *testing.T) {
	db := newTestDB(t)
	rows := queryAll(t, db, "SELECT CAST(3.7 AS INTEGER), CAST(5 AS REAL), CAST(42 AS TEXT)")
	r := rows[0]
	if r[0].I != 3 || r[1].F != 5.0 || r[2].S != "42" {
		t.Fatalf("row = %v", r)
	}
}

// TestOpenRejectsRemovedSwitches: the deprecated Config fields of the
// removed engine switches fail Open with an error naming the field
// instead of silently running the one remaining engine.
func TestOpenRejectsRemovedSwitches(t *testing.T) {
	for _, tc := range []struct {
		field string
		cfg   Config
	}{
		{"Layout", Config{Layout: "row"}},
		{"Layout", Config{Layout: "columnar"}},
		{"Optimizer", Config{Optimizer: "off"}},
		{"Optimizer", Config{Optimizer: "on"}},
		{"Encodings", Config{Encodings: "off"}},
		{"Kernels", Config{Kernels: "off"}},
		{"Kernels", Config{Kernels: "on"}},
		{"Fusion", Config{Fusion: "off"}},
		{"Fusion", Config{Fusion: "on"}},
		{"Tracing", Config{Tracing: "off"}},
		{"Tracing", Config{Tracing: "on"}},
		{"Parallelism", Config{Parallelism: 2}},
	} {
		db, err := Open(tc.cfg)
		if err == nil {
			db.Close()
			t.Errorf("Open(%+v) accepted a removed switch", tc.cfg)
			continue
		}
		if !strings.Contains(err.Error(), "Config."+tc.field) {
			t.Errorf("Open(%+v) error %q does not name Config.%s", tc.cfg, err, tc.field)
		}
	}
}

// TestAnalyzeStatement: ANALYZE <table> stays valid SQL. It reports the
// table's row count and fails on a missing table.
func TestAnalyzeStatement(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE src (a INTEGER, b REAL)")
	if n := mustExec(t, db, "ANALYZE src"); n != 0 {
		t.Fatalf("ANALYZE of an empty table returned %d rows", n)
	}
	fillSequence(t, db, "src", 200)
	mustExec(t, db, "CREATE TABLE derived AS SELECT a * 2 AS a2, b FROM src")
	for _, tbl := range []string{"src", "derived", "DERIVED"} {
		if n := mustExec(t, db, "ANALYZE "+tbl); n != 200 {
			t.Fatalf("ANALYZE %s returned %d rows, want 200", tbl, n)
		}
	}
	if _, err := db.Exec("ANALYZE missing"); err == nil || !strings.Contains(err.Error(), "no such table") {
		t.Fatalf("ANALYZE of a missing table: err = %v, want no such table", err)
	}
}

// TestAnalyzeKeepsThawedState: ANALYZE must leave the store writable
// for subsequent inserts.
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
