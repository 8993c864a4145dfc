package sqlengine

import (
	"context"
	"fmt"
	"math"
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
	before := OptimizerCounters()["cte_inlined"]
	rows := queryAll(t, db, "WITH u AS (SELECT a, b FROM t WHERE a < 10) SELECT b FROM u WHERE b > 3 ORDER BY b")
	if after := OptimizerCounters()["cte_inlined"]; after <= before {
		t.Fatalf("single-use CTE was not inlined (counter %d -> %d)", before, after)
	}
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

// TestCTEUnderSumNotInlined: inlining would change the base store the
// consumer's aggregation morselizes over, perturbing float summation
// grouping — the optimizer must keep SUM consumers on the materialized
// path.
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

// TestDeadCTEEliminated: an unreferenced CTE must never execute with the
// optimizer on (the legacy planner materialized it eagerly).
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
		t.Fatalf("optimizer on: dead CTE executed: %v", err)
	}

	off := newOptDB(t, Config{Optimizer: "off"})
	for _, s := range script {
		mustExec(t, off, s)
	}
	if _, err := off.Query(q); err == nil {
		t.Fatal("optimizer off: expected the legacy planner to eagerly run the dead CTE and fail on SUM over text")
	}
}

func TestConstantFolding(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	plan, err := db.Explain("SELECT a FROM t WHERE a > 1 + 1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "(a > 2)") {
		t.Fatalf("constant not folded:\n%s", plan)
	}
	// Folding must preserve semantics exactly: 1/0 is NULL in this
	// engine (SQLite semantics) and a folding-time error keeps the
	// original expression so execution reports it.
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	rows := queryAll(t, db, "SELECT 1/0 FROM t")
	if len(rows) != 1 || !rows[0][0].IsNull() {
		t.Fatalf("1/0 = %v, want NULL", rows)
	}
	if _, err := db.Query("SELECT ABS('x') FROM t"); err == nil {
		t.Fatal("expected ABS('x') to keep erroring after folding")
	}
}

// TestConstantFoldingLeavesASTUnchanged is the regression test for
// folding through the parsed statement: GROUP BY ((t0.s & ~1) | …)
// reaches the aggregate as the AST's own slice, and folding it in place
// rewrote the statement to (t0.s & -2), so a second plan of the same
// *SelectStmt no longer matched its SELECT item to the group key. The
// statement cache plans one AST many times, on many engines.
func TestConstantFoldingLeavesASTUnchanged(t *testing.T) {
	stmt, _, err := ParseStatement(gateStageQuery(true))
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, _ := ParseStatement(gateStageQuery(true))
	var want string
	for run := 0; run < 2; run++ {
		db := newOptDB(t, Config{Parallelism: 1})
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

// TestOptimizerOnOffBitIdentical runs a battery of queries — the
// translated gate-stage chain, CTEs, joins, aggregation, sorting — with
// the optimizer on and off, on both storage layouts at workers 1 and 4,
// and requires bitwise-identical results: same types, same int64
// values, same float64 bit patterns, same row order.
func TestOptimizerOnOffBitIdentical(t *testing.T) {
	setup := []string{
		"CREATE TABLE t0 (s INTEGER, r REAL, i REAL)",
		"CREATE TABLE h (in_s INTEGER, out_s INTEGER, r REAL, i REAL)",
		"INSERT INTO h VALUES (0,0,0.7071067811865476,0),(0,1,0.7071067811865476,0),(1,0,0.7071067811865476,0),(1,1,-0.7071067811865476,0)",
	}
	var seed []string
	for k := 0; k < 3000; k++ {
		seed = append(seed, fmt.Sprintf("(%d, %g, %g)", k, 1.0/3000.0, float64(k)*1e-7))
	}
	queries := []string{
		// One translated gate stage (join + float SUM + HAVING prune).
		`WITH t1 AS (
			SELECT ((t0.s & ~1) | h.out_s) AS s,
			       SUM((t0.r * h.r) - (t0.i * h.i)) AS r,
			       SUM((t0.r * h.i) + (t0.i * h.r)) AS i
			FROM t0 JOIN h ON h.in_s = (t0.s & 1)
			GROUP BY ((t0.s & ~1) | h.out_s)
			HAVING ((SUM((t0.r * h.r) - (t0.i * h.i)) * SUM((t0.r * h.r) - (t0.i * h.i))) + (SUM((t0.r * h.i) + (t0.i * h.r)) * SUM((t0.r * h.i) + (t0.i * h.r)))) > 1e-20
		) SELECT s, r, i FROM t1 ORDER BY s`,
		// Chained single-use CTEs with filters and projections.
		`WITH u AS (SELECT s, r FROM t0 WHERE s < 1000),
		      v AS (SELECT s * 2 AS d, r FROM u WHERE s > 10)
		 SELECT d, r FROM v WHERE d < 500 ORDER BY d`,
		// Aggregation over expressions, DISTINCT, float sums.
		"SELECT (s & 7) AS g, SUM(r), COUNT(*), MIN(i), AVG(r) FROM t0 GROUP BY (s & 7) ORDER BY g",
		"SELECT DISTINCT (s & 3) FROM t0 ORDER BY 1",
		// Join + WHERE mixture.
		"SELECT t0.s, h.out_s FROM t0 JOIN h ON h.in_s = (t0.s & 1) WHERE t0.s < 20 AND h.out_s = 1 ORDER BY t0.s, h.out_s",
		// Subquery with hidden sort keys and limit.
		"SELECT v FROM (SELECT s AS v, r FROM t0) q WHERE v > 100 ORDER BY r DESC, v LIMIT 37",
	}

	type key struct {
		optimizer, layout string
		workers           int
	}
	results := map[key]map[int][]Row{}
	for _, opt := range []string{"on", "off"} {
		for _, layout := range []string{LayoutColumnar, LayoutRow} {
			for _, workers := range []int{1, 4} {
				db := newOptDB(t, Config{Optimizer: opt, Layout: layout, Parallelism: workers})
				for _, s := range setup {
					mustExec(t, db, s)
				}
				for i := 0; i < len(seed); i += 500 {
					end := min(i+500, len(seed))
					mustExec(t, db, "INSERT INTO t0 VALUES "+strings.Join(seed[i:end], ","))
				}
				byQuery := map[int][]Row{}
				for qi, q := range queries {
					byQuery[qi] = queryAll(t, db, q)
				}
				results[key{opt, layout, workers}] = byQuery
			}
		}
	}
	ref := results[key{"off", LayoutColumnar, 1}]
	for k, byQuery := range results {
		for qi := range queries {
			got, want := byQuery[qi], ref[qi]
			if len(got) != len(want) {
				t.Fatalf("%v query %d: %d rows vs %d", k, qi, len(got), len(want))
			}
			for i := range got {
				for j := range got[i] {
					a, b := want[i][j], got[i][j]
					if a.T != b.T || a.I != b.I || math.Float64bits(a.F) != math.Float64bits(b.F) || a.S != b.S {
						t.Fatalf("%v query %d row %d col %d: %v vs %v (bits %x vs %x)",
							k, qi, i, j, a, b, math.Float64bits(a.F), math.Float64bits(b.F))
					}
				}
			}
		}
	}
}

// TestOptimizerRandomizedFilterEquivalence cross-checks filters over
// subqueries, CTEs and joins against the unoptimized engine over a grid
// of generated predicates (property-style).
func TestOptimizerRandomizedFilterEquivalence(t *testing.T) {
	on := newOptDB(t, Config{})
	off := newOptDB(t, Config{Optimizer: "off"})
	for _, db := range []*DB{on, off} {
		mustExec(t, db, "CREATE TABLE t (a INTEGER, b INTEGER)")
		fillSequence(t, db, "t", 500)
		mustExec(t, db, "INSERT INTO t VALUES (NULL, 1), (1, NULL)")
	}
	ops := []string{"<", "<=", ">", ">=", "=", "!="}
	for _, op := range ops {
		for _, c := range []int{-1, 0, 48, 96, 499, 1000} {
			for _, shape := range []string{
				"SELECT a FROM (SELECT a, b FROM t WHERE b %s %d) s ORDER BY a",
				"WITH u AS (SELECT a, b FROM t) SELECT b FROM u WHERE a %s %d ORDER BY b",
				"SELECT t1.a FROM t t1 JOIN t t2 ON t1.a = t2.a WHERE t1.b %s %d ORDER BY t1.a",
			} {
				q := fmt.Sprintf(shape, op, c)
				got := queryAll(t, on, q)
				want := queryAll(t, off, q)
				if len(got) != len(want) {
					t.Fatalf("%s: %d rows vs %d", q, len(got), len(want))
				}
				sortRows := func(rows []Row) {
					sort.Slice(rows, func(i, j int) bool {
						for c := range rows[i] {
							if d := CompareTotal(rows[i][c], rows[j][c]); d != 0 {
								return d < 0
							}
						}
						return false
					})
				}
				sortRows(got)
				sortRows(want)
				for i := range got {
					for j := range got[i] {
						if CompareTotal(got[i][j], want[i][j]) != 0 {
							t.Fatalf("%s: row %d: %v vs %v", q, i, got[i], want[i])
						}
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
	if !strings.Contains(text, "BatchScan t") || !strings.Contains(text, "est_rows=") {
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

// TestEstimatesInExplain: cardinality estimates derive from statistics.
func TestEstimatesInExplain(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b INTEGER)")
	fillSequence(t, db, "t", 1000)
	plan, err := db.Explain("SELECT a FROM t WHERE a < 100")
	if err != nil {
		t.Fatal(err)
	}
	// a is uniform over [0,999]: the range estimate must land near 100.
	if !strings.Contains(plan, "est_rows=100 ") && !strings.Contains(plan, "est_rows=100)") {
		t.Fatalf("range selectivity not derived from min/max stats:\n%s", plan)
	}
}
