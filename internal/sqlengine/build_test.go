package sqlengine

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func newOptDB(t *testing.T, cfg Config) *DB {
	t.Helper()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestSingleUseCTEInlined is the regression test for the eager-CTE bug:
// a CTE referenced once must be inlined into its consumer instead of
// being materialized into a temporary store.
func TestSingleUseCTEInlined(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b INTEGER)")
	fillSequence(t, db, "t", 100)
	rows := queryAll(t, db, "WITH u AS (SELECT a, b FROM t WHERE a < 10) SELECT b FROM u WHERE b > 3 ORDER BY b")
	if len(rows) != 6 { // b = a%97 = a for a in 4..9
		t.Fatalf("rows = %v", rows)
	}
	// The plan must show the base scan directly (no MaterializeCTE).
	plan, err := db.Explain("WITH u AS (SELECT a, b FROM t WHERE a < 10) SELECT b FROM u WHERE b > 3 ORDER BY b")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "MaterializeCTE") {
		t.Fatalf("single-use CTE still materialized:\n%s", plan)
	}
	if !strings.Contains(plan, "BatchScan t") {
		t.Fatalf("inlined plan missing base scan:\n%s", plan)
	}
}

// TestMultiUseCTEStaysMaterialized: a CTE referenced twice must be
// computed once and shared, never inlined twice.
func TestMultiUseCTEStaysMaterialized(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b INTEGER)")
	fillSequence(t, db, "t", 50)
	plan, err := db.Explain("WITH u AS (SELECT a FROM t WHERE a < 10) SELECT x.a FROM u x JOIN u y ON x.a = y.a ORDER BY x.a")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "MaterializeCTE u (refs=2)") {
		t.Fatalf("multi-use CTE not marked materialized:\n%s", plan)
	}
	rows := queryAll(t, db, "WITH u AS (SELECT a FROM t WHERE a < 10) SELECT x.a FROM u x JOIN u y ON x.a = y.a ORDER BY x.a")
	if len(rows) != 10 {
		t.Fatalf("rows = %v", rows)
	}
}

// TestCTEUnderSumNotInlined: the planner does not prove that
// inlining keeps the order rows reach a SUM consumer, so it must keep
// SUM consumers on the materialized path.
func TestCTEUnderSumNotInlined(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b REAL)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 0.25), (2, 0.5), (1, 0.125)")
	plan, err := db.Explain("WITH u AS (SELECT a, b FROM t WHERE a > 0) SELECT a, SUM(b) FROM u GROUP BY a")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "MaterializeCTE u") {
		t.Fatalf("CTE under SUM was inlined:\n%s", plan)
	}
	// COUNT/MIN/MAX are accumulation-order-insensitive: inlining is fine.
	plan, err = db.Explain("WITH u AS (SELECT a, b FROM t WHERE a > 0) SELECT a, COUNT(*) FROM u GROUP BY a")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "MaterializeCTE u") {
		t.Fatalf("CTE under COUNT not inlined:\n%s", plan)
	}
}

// TestDeadCTEEliminated: an unreferenced CTE must never execute: this
// one would fail on SUM over text if it ran.
func TestDeadCTEEliminated(t *testing.T) {
	script := []string{
		"CREATE TABLE t (a INTEGER)",
		"INSERT INTO t VALUES (1), (0)",
	}
	q := "WITH dead AS (SELECT SUM(c) AS x FROM u) SELECT a FROM t ORDER BY a"
	script = append(script, "CREATE TABLE u (c TEXT)", "INSERT INTO u VALUES ('not a number')")

	on := newOptDB(t, Config{})
	for _, s := range script {
		mustExec(t, on, s)
	}
	if _, err := on.Query(q); err != nil {
		t.Fatalf("dead CTE executed: %v", err)
	}
	if _, err := on.Query("WITH dead AS (SELECT SUM(c) AS x FROM u) SELECT x FROM dead"); err == nil {
		t.Fatal("the CTE, once referenced, should fail on SUM over text")
	}
}

// TestConstantFolding: the expression compilers evaluate a constant
// subtree once, with the code every row would run, so folding changes
// no answer: 1/0 is NULL in this engine (SQLite semantics), a subtree
// whose evaluation errors is left to report the error at run time, and
// a > 1 + 1 keeps the rows a > 2 keeps.
func TestConstantFolding(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	rows := queryAll(t, db, "SELECT 1/0 FROM t")
	if len(rows) != 1 || !rows[0][0].IsNull() {
		t.Fatalf("1/0 = %v, want NULL", rows)
	}
	if _, err := db.Query("SELECT ABS('x') FROM t"); err == nil {
		t.Fatal("expected ABS('x') to keep erroring after folding")
	}
	mustExec(t, db, "INSERT INTO t VALUES (2), (3), (NULL), (4)")
	folded := queryAll(t, db, "SELECT a FROM t WHERE a > 1 + 1 ORDER BY a")
	plain := queryAll(t, db, "SELECT a FROM t WHERE a > 2 ORDER BY a")
	if len(folded) != 2 || !reflect.DeepEqual(folded, plain) {
		t.Fatalf("a > 1 + 1 kept %v, a > 2 kept %v", folded, plain)
	}
}

// TestPlanningLeavesASTUnchanged: planning never writes into a parsed
// statement. The statement cache plans one AST many times, on many
// engines, so a plan may share the AST's own slices (the aggregate's
// GROUP BY keys are the statement's) but must build every node and
// expression it changes. Two plans of one parsed gate stage, with a
// constant (~1) in its group key, return the same rows, and the
// statement still equals a fresh parse afterwards.
func TestPlanningLeavesASTUnchanged(t *testing.T) {
	stmt, _, err := ParseStatement(gateStageQuery(true))
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, _ := ParseStatement(gateStageQuery(true))
	var want string
	for run := 0; run < 2; run++ {
		db := newOptDB(t, Config{})
		setupGateStage(t, db, 64)
		rs, err := db.runSelect(context.Background(), stmt.(*SelectStmt), nil)
		if err != nil {
			t.Fatalf("plan %d of one parsed statement: %v", run+1, err)
		}
		rows, err := rs.All()
		rs.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := rowsBits(rows); run == 0 {
			want = got
		} else if got != want {
			t.Fatal("second plan of one parsed statement returned different rows")
		}
	}
	if !reflect.DeepEqual(stmt, fresh) {
		t.Fatal("planning wrote into the parsed statement")
	}
}

// TestGracePrechoice: when the build side exceeds the whole budget,
// planner.bind sends the join straight to the grace join.
func TestGracePrechoice(t *testing.T) {
	db := newOptDB(t, Config{MemoryBudget: 64 * 1024, SpillDir: t.TempDir()})
	mustExec(t, db, "CREATE TABLE l (x INTEGER, y INTEGER)")
	mustExec(t, db, "CREATE TABLE r (x INTEGER, y INTEGER)")
	fillSequence(t, db, "l", 4000)
	fillSequence(t, db, "r", 4000)
	plan, err := db.Explain("SELECT l.y FROM l JOIN r ON l.x = r.x")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "[grace partitioned: build exceeds budget]") {
		t.Fatalf("grace not pre-chosen:\n%s", plan)
	}
	rows := queryAll(t, db, "SELECT COUNT(*) FROM l JOIN r ON l.x = r.x")
	if rows[0][0].I != 4000 {
		t.Fatalf("grace join wrong result: %v", rows)
	}
}

// TestOptimizerRandomizedFilterEquivalence cross-checks filters over
// subqueries, CTEs and joins against answers computed in Go from the
// inserted rows, with SQL three-valued logic (a comparison with NULL is
// never true), over a grid of generated predicates (property-style).
func TestOptimizerRandomizedFilterEquivalence(t *testing.T) {
	db := newOptDB(t, Config{})
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b INTEGER)")
	fillSequence(t, db, "t", 500)
	mustExec(t, db, "INSERT INTO t VALUES (NULL, 1), (1, NULL)")

	type row struct{ a, b Value }
	var table []row
	for i := int64(0); i < 500; i++ {
		table = append(table, row{NewInt(i), NewInt(i % 97)})
	}
	table = append(table, row{Null, NewInt(1)}, row{NewInt(1), Null})
	// holds is the WHERE verdict of "v op c": NULL compares unknown,
	// which filters the row out like false.
	holds := func(v Value, op string, c int64) bool {
		if v.T == TypeNull {
			return false
		}
		switch op {
		case "<":
			return v.I < c
		case "<=":
			return v.I <= c
		case ">":
			return v.I > c
		case ">=":
			return v.I >= c
		case "=":
			return v.I == c
		case "!=":
			return v.I != c
		}
		t.Fatalf("unknown operator %q", op)
		return false
	}
	sortRows := func(rows []Row) {
		sort.Slice(rows, func(i, j int) bool { return CompareTotal(rows[i][0], rows[j][0]) < 0 })
	}

	for _, op := range []string{"<", "<=", ">", ">=", "=", "!="} {
		for _, c := range []int64{-1, 0, 48, 96, 499, 1000} {
			var sub, cte, join []Row
			for _, r := range table {
				if holds(r.b, op, c) {
					sub = append(sub, Row{r.a})
				}
				if holds(r.a, op, c) {
					cte = append(cte, Row{r.b})
				}
				if r.a.T == TypeNull || !holds(r.b, op, c) {
					continue
				}
				for _, r2 := range table { // t1.a = t2.a: NULL never matches
					if r2.a.T != TypeNull && r2.a.I == r.a.I {
						join = append(join, Row{r.a})
					}
				}
			}
			for _, tc := range []struct {
				shape string
				want  []Row
			}{
				{"SELECT a FROM (SELECT a, b FROM t WHERE b %s %d) s ORDER BY a", sub},
				{"WITH u AS (SELECT a, b FROM t) SELECT b FROM u WHERE a %s %d ORDER BY b", cte},
				{"SELECT t1.a FROM t t1 JOIN t t2 ON t1.a = t2.a WHERE t1.b %s %d ORDER BY t1.a", join},
			} {
				q := fmt.Sprintf(tc.shape, op, c)
				got := queryAll(t, db, q)
				if len(got) != len(tc.want) {
					t.Fatalf("%s: %d rows, want %d", q, len(got), len(tc.want))
				}
				sortRows(got)
				sortRows(tc.want)
				for i := range got {
					if len(got[i]) != 1 || CompareTotal(got[i][0], tc.want[i][0]) != 0 {
						t.Fatalf("%s: row %d: %v, want %v", q, i, got[i], tc.want[i])
					}
				}
			}
		}
	}
}

func TestExplainAnalyze(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b INTEGER)")
	fillSequence(t, db, "t", 100)
	out, err := db.ExplainAnalyze(context.Background(), "SELECT a FROM t WHERE a < 10 ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"actual:", "actual_rows=100", "actual_rows=10"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("EXPLAIN ANALYZE missing %q:\n%s", frag, out)
		}
	}
}

// TestExplainStatementSQL: EXPLAIN [ANALYZE] works as a SQL statement
// through the Query surface.
func TestExplainStatementSQL(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2)")
	rs, err := db.Query("EXPLAIN SELECT a FROM t WHERE a > 1")
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if len(rs.Columns) != 1 || rs.Columns[0] != "plan" {
		t.Fatalf("columns = %v", rs.Columns)
	}
	rows, err := rs.All()
	if err != nil {
		t.Fatal(err)
	}
	text := ""
	for _, r := range rows {
		text += r[0].S + "\n"
	}
	if !strings.Contains(text, "BatchScan t") || !strings.Contains(text, "BatchFilter (a > 1)") {
		t.Fatalf("plan:\n%s", text)
	}
	rs2, err := db.Query("EXPLAIN ANALYZE SELECT a FROM t WHERE a > 1")
	if err != nil {
		t.Fatal(err)
	}
	defer rs2.Close()
	rows2, _ := rs2.All()
	text = ""
	for _, r := range rows2 {
		text += r[0].S + "\n"
	}
	if !strings.Contains(text, "actual_rows=1") {
		t.Fatalf("analyze plan:\n%s", text)
	}
}

// TestDuplicateNameColumnRefs: a column the planner makes — a star's
// expansion, an ORDER BY key, a DISTINCT group key — refers to the
// column below it by position, so output columns that share a name
// stay distinct. The answers are SQLite's on the same table (NULLs sort
// first; REALs in shortest form). A name the query itself writes still
// resolves by name: against two columns called a it is ambiguous, as
// in PostgreSQL.
func TestDuplicateNameColumnRefs(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b REAL)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 1.5), (2, 2.5), (2, 3.5), (3, NULL), (NULL, 4.0)")
	for _, tc := range []struct {
		query string
		want  []string
	}{
		{"SELECT a, a FROM t ORDER BY 1",
			[]string{"NULL|NULL", "1|1", "2|2", "2|2", "3|3"}},
		{"SELECT a AS x, b AS x FROM t ORDER BY 2",
			[]string{"3|NULL", "1|1.5", "2|2.5", "2|3.5", "NULL|4"}},
		{"SELECT * FROM t JOIN t u ON t.a = u.a ORDER BY 1, 2, 4",
			[]string{"1|1.5|1|1.5", "2|2.5|2|2.5", "2|2.5|2|3.5", "2|3.5|2|2.5", "2|3.5|2|3.5", "3|NULL|3|NULL"}},
		{"SELECT DISTINCT a, a FROM t ORDER BY 1",
			[]string{"NULL|NULL", "1|1", "2|2", "3|3"}},
		{"WITH u AS (SELECT a, a FROM t) SELECT * FROM u ORDER BY 1",
			[]string{"NULL|NULL", "1|1", "2|2", "2|2", "3|3"}},
	} {
		rs, err := db.Query(tc.query)
		if err != nil {
			t.Errorf("%s: %v", tc.query, err)
			continue
		}
		rows, err := rs.All()
		rs.Close()
		if err != nil {
			t.Errorf("%s: %v", tc.query, err)
			continue
		}
		if got, want := renderGoldenRows(rows, true), strings.Join(tc.want, "\n")+"\n"; got != want {
			t.Errorf("%s:\ngot\n%swant\n%s", tc.query, got, want)
		}
	}
	if _, err := db.Query("SELECT a FROM (SELECT a, a FROM t) s"); err == nil || !strings.Contains(err.Error(), "ambiguous column") {
		t.Fatalf("a over two columns named a: err = %v, want ambiguous column", err)
	}
}
