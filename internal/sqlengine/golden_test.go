package sqlengine

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden plan snapshots")

// goldenDB opens the engine and schema the golden plan queries run
// against.
func goldenDB(t *testing.T, cfg Config) *DB {
	t.Helper()
	db := newOptDB(t, cfg)
	setup := []string{
		"CREATE TABLE t0 (s INTEGER, r REAL, i REAL)",
		"CREATE TABLE h (in_s INTEGER, out_s INTEGER, r REAL, i REAL)",
		"INSERT INTO h VALUES (0,0,0.7071067811865476,0.0),(0,1,0.7071067811865476,0.0),(1,0,0.7071067811865476,0.0),(1,1,-0.7071067811865476,0.0)",
		"CREATE TABLE wide (a INTEGER, b REAL, c TEXT, d INTEGER)",
		"CREATE TABLE small (id INTEGER, name TEXT)",
		"CREATE TABLE big (id INTEGER, v INTEGER)",
		"INSERT INTO small VALUES (1, 'a'), (2, 'b'), (3, 'c')",
		"INSERT INTO wide VALUES (1, 2.0, 'x', 4)",
	}
	for _, s := range setup {
		mustExec(t, db, s)
	}
	var t0 []string
	for k := 0; k < 4096; k++ {
		t0 = append(t0, fmt.Sprintf("(%d, 0.015625, 0.0)", k))
		if len(t0) == 512 {
			mustExec(t, db, "INSERT INTO t0 VALUES "+strings.Join(t0, ","))
			t0 = t0[:0]
		}
	}
	fillSequence(t, db, "big", 6000)

	return db
}

// goldenCases is the pinned query set: EXPLAIN output for each lives in
// testdata/plans/<name>.golden and its answer in <name>.rows.golden.
var goldenCases = []struct {
	name  string
	query string
}{
	{"gate_stage", `WITH t1 AS (
			SELECT ((t0.s & ~1) | h.out_s) AS s,
			       SUM((t0.r * h.r) - (t0.i * h.i)) AS r,
			       SUM((t0.r * h.i) + (t0.i * h.r)) AS i
			FROM t0 JOIN h ON h.in_s = (t0.s & 1)
			GROUP BY ((t0.s & ~1) | h.out_s)
		) SELECT s, r, i FROM t1 ORDER BY s`},
	{"gate_chain", `WITH c1 AS (
			SELECT ((t0.s & ~1) | h.out_s) AS s,
			       SUM((t0.r * h.r) - (t0.i * h.i)) AS r,
			       SUM((t0.r * h.i) + (t0.i * h.r)) AS i
			FROM t0 JOIN h ON h.in_s = (t0.s & 1)
			GROUP BY ((t0.s & ~1) | h.out_s)
		), c2 AS (
			SELECT ((c1.s & ~1) | h.out_s) AS s,
			       SUM((c1.r * h.r) - (c1.i * h.i)) AS r,
			       SUM((c1.r * h.i) + (c1.i * h.r)) AS i
			FROM c1 JOIN h ON h.in_s = (c1.s & 1)
			GROUP BY ((c1.s & ~1) | h.out_s)
		), c3 AS (
			SELECT ((c2.s & ~1) | h.out_s) AS s,
			       SUM((c2.r * h.r) - (c2.i * h.i)) AS r,
			       SUM((c2.r * h.i) + (c2.i * h.r)) AS i
			FROM c2 JOIN h ON h.in_s = (c2.s & 1)
			GROUP BY ((c2.s & ~1) | h.out_s)
		), c4 AS (
			SELECT ((c3.s & ~1) | h.out_s) AS s,
			       SUM((c3.r * h.r) - (c3.i * h.i)) AS r,
			       SUM((c3.r * h.i) + (c3.i * h.r)) AS i
			FROM c3 JOIN h ON h.in_s = (c3.s & 1)
			GROUP BY ((c3.s & ~1) | h.out_s)
		) SELECT s, r, i FROM c4 ORDER BY s`},
	{"pushdown_join", "SELECT small.name FROM small JOIN big ON big.id = small.id WHERE big.v > 10 AND small.name = 'a'"},
	{"pruned_scan", "SELECT a FROM wide WHERE a > 1 + 1"},
	{"cte_inlined", "WITH u AS (SELECT a, b FROM wide WHERE a < 10) SELECT b FROM u WHERE b > 0.5"},
	{"cte_shared", "WITH u AS (SELECT id FROM small) SELECT x.id FROM u x JOIN u y ON x.id = y.id"},
	{"build_side_flip", "SELECT small.name, big.v FROM small JOIN big ON big.id = small.id"},
	{"join_reorder", "SELECT t0.s, big.v, small.id FROM t0 JOIN big ON big.id = t0.s JOIN small ON small.id = t0.s"},
}

// TestGoldenPlans is the plan-regression gate: EXPLAIN output for a
// fixed schema and query set is pinned under testdata/plans/. An
// accidental plan change — the builder making another tree, a CTE
// inlined differently, a join strategy flipping — fails CI with a
// readable diff. Each query's answer is pinned beside its plan, so a plan that
// changes on purpose must still return the same rows, float bits
// included. Regenerate intentionally with:
//
//	go test ./internal/sqlengine -run TestGoldenPlans -update
func TestGoldenPlans(t *testing.T) {
	db := goldenDB(t, Config{})
	dir := filepath.Join("testdata", "plans")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	// Answers come from a second engine: running a query freezes its
	// tables, which the scans' layout annotations in EXPLAIN would show.
	rowsDB := goldenDB(t, Config{})
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := db.Explain(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join(dir, tc.name+".golden"), "plan", plan)
			answer := renderGoldenRows(queryAll(t, rowsDB, tc.query), strings.Contains(tc.query, "ORDER BY"))
			checkGolden(t, filepath.Join(dir, tc.name+".rows.golden"), "answer", answer)
		})
	}
}

// checkGolden compares got with the snapshot at path, or rewrites the
// snapshot under -update.
func checkGolden(t *testing.T, path, what, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden snapshot (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s changed for %s.\n--- want\n%s\n--- got\n%s", what, path, want, got)
	}
}

// renderGoldenRows renders a result one row per line, with REAL values
// in their shortest round-tripping form so every float bit is pinned.
// Rows are sorted unless the query orders them, since an unordered
// answer may legitimately come back in another order. More than 64
// rows collapse to the row count and a SHA-256 of the rendering.
func renderGoldenRows(rows []Row, ordered bool) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		var b strings.Builder
		for j, v := range r {
			if j > 0 {
				b.WriteByte('|')
			}
			switch v.T {
			case TypeNull:
				b.WriteString("NULL")
			case TypeInt:
				b.WriteString(strconv.FormatInt(v.I, 10))
			case TypeBool:
				b.WriteString(strconv.FormatBool(v.I != 0))
			case TypeFloat:
				b.WriteString(strconv.FormatFloat(v.F, 'g', -1, 64))
			default:
				b.WriteString(strconv.Quote(v.S))
			}
		}
		lines[i] = b.String()
	}
	if len(lines) == 0 {
		return "(no rows)\n"
	}
	if !ordered {
		sort.Strings(lines)
	}
	text := strings.Join(lines, "\n") + "\n"
	if len(rows) > 64 {
		return fmt.Sprintf("rows: %d\nsha256: %x\n", len(rows), sha256.Sum256([]byte(text)))
	}
	return text
}
