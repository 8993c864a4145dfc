package sqlengine

import (
	"testing"
	"testing/quick"
)

func parseExprForTest(t *testing.T, src string) Expr {
	t.Helper()
	stmt, _, err := ParseStatement("SELECT " + src + " FROM t")
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return stmt.(*SelectStmt).Items[0].Expr
}

func TestCanonicalExprStringMatchesQualifiedUnqualified(t *testing.T) {
	schema := planSchema{
		{table: "t0", name: "s"},
		{table: "t0", name: "r"},
		{table: "h", name: "in_s"},
	}
	a := canonicalExprString(parseExprForTest(t, "(T0.s & ~1)"), schema)
	b := canonicalExprString(parseExprForTest(t, "(s & ~1)"), schema)
	if a != b {
		t.Fatalf("canonical mismatch: %q vs %q", a, b)
	}
	// Different columns stay different.
	c := canonicalExprString(parseExprForTest(t, "(r & ~1)"), schema)
	if a == c {
		t.Fatal("distinct columns collided")
	}
	// Unresolvable references never match resolvable ones.
	d := canonicalExprString(parseExprForTest(t, "(missing & ~1)"), schema)
	if a == d {
		t.Fatal("unresolved column matched")
	}

	// sameExpr, which GROUP BY matching uses, agrees with equality of
	// the canonical strings on every pair.
	srcs := []string{
		"(T0.s & ~1)", "(s & ~1)", "(r & ~1)", "(missing & ~1)", "(MISSING & ~1)",
		"((t0.s & ~1) | h.in_s)", "((s & -2) | in_s)", "(s & 1.0)", "(s & 1)", "-s", "~s",
		"SUM((t0.r * t0.r) - (r * r))", "SUM((r * r) - (r * r))", "SUM(DISTINCT r)", "COUNT(*)",
		"CASE WHEN s > 0 THEN r ELSE 0 END", "CASE s WHEN 0 THEN r END", "CAST(s AS REAL)",
		"s IS NULL", "s IS NOT NULL", "s IN (1, 2)", "s NOT IN (1, 2)", "s BETWEEN 1 AND 2", "? + s", "'x'",
	}
	for _, x := range srcs {
		for _, y := range srcs {
			ex, ey := parseExprForTest(t, x), parseExprForTest(t, y)
			want := canonicalExprString(ex, schema) == canonicalExprString(ey, schema)
			if got := sameExpr(ex, ey, schema); got != want {
				t.Errorf("sameExpr(%s, %s) = %v, canonical strings equal = %v", x, y, got, want)
			}
		}
	}
}

func TestSplitConjuncts(t *testing.T) {
	e := parseExprForTest(t, "a = 1 AND b > 2 AND (c < 3 OR d = 4)")
	parts := splitConjuncts(e)
	if len(parts) != 3 {
		t.Fatalf("parts = %d", len(parts))
	}
	single := splitConjuncts(parseExprForTest(t, "a = 1"))
	if len(single) != 1 {
		t.Fatalf("single = %d", len(single))
	}
}

func TestExtractEquiKeys(t *testing.T) {
	left := planSchema{{table: "a", name: "x"}, {table: "a", name: "y"}}
	right := planSchema{{table: "b", name: "x"}, {table: "b", name: "z"}}

	on := parseExprForTest(t, "a.x = b.x AND a.y > b.z")
	lks, rks, residual := extractEquiKeys(on, left, right)
	if len(lks) != 1 || len(rks) != 1 {
		t.Fatalf("keys = %d/%d", len(lks), len(rks))
	}
	if lks[0].Deparse() != "a.x" || rks[0].Deparse() != "b.x" {
		t.Fatalf("keys = %s, %s", lks[0].Deparse(), rks[0].Deparse())
	}
	if residual == nil {
		t.Fatal("residual lost")
	}

	// Swapped sides are normalized.
	on2 := parseExprForTest(t, "b.z = a.y")
	lks2, rks2, res2 := extractEquiKeys(on2, left, right)
	if len(lks2) != 1 || lks2[0].Deparse() != "a.y" || rks2[0].Deparse() != "b.z" || res2 != nil {
		t.Fatalf("swapped: %v %v %v", lks2, rks2, res2)
	}

	// Expression keys work (the translator's join shape).
	on3 := parseExprForTest(t, "b.x = (a.x & 3)")
	lks3, _, _ := extractEquiKeys(on3, left, right)
	if len(lks3) != 1 || lks3[0].Deparse() != "(a.x & 3)" {
		t.Fatalf("expr key = %v", lks3)
	}

	// Cross-side expressions stay residual.
	on4 := parseExprForTest(t, "a.x + b.x = 3")
	lks4, _, res4 := extractEquiKeys(on4, left, right)
	if len(lks4) != 0 || res4 == nil {
		t.Fatalf("cross-side: %v %v", lks4, res4)
	}
}

func TestResolveColumnRules(t *testing.T) {
	s := planSchema{
		{table: "a", name: "x"},
		{table: "b", name: "x"},
		{table: "b", name: "y"},
	}
	if _, err := s.resolveColumn("", "x"); err == nil {
		t.Fatal("ambiguous x must error")
	}
	if i, err := s.resolveColumn("a", "x"); err != nil || i != 0 {
		t.Fatalf("a.x = %d, %v", i, err)
	}
	if i, err := s.resolveColumn("", "y"); err != nil || i != 2 {
		t.Fatalf("y = %d, %v", i, err)
	}
	if _, err := s.resolveColumn("c", "x"); err == nil {
		t.Fatal("unknown table must error")
	}
	// Case-insensitive matching.
	if i, err := s.resolveColumn("B", "Y"); err != nil || i != 2 {
		t.Fatalf("B.Y = %d, %v", i, err)
	}
}

// TestAggregationMatchesGoProperty cross-checks SQL grouping against a
// direct Go computation on random data.
func TestAggregationMatchesGoProperty(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (k INTEGER, v INTEGER)")

	f := func(data []int16) bool {
		if len(data) == 0 {
			return true
		}
		mustExec(t, db, "DELETE FROM t")
		type agg struct {
			count int64
			sum   int64
			min   int64
			max   int64
		}
		want := map[int64]*agg{}
		for _, d := range data {
			k := int64(d) % 7
			v := int64(d)
			mustExec(t, db, "INSERT INTO t VALUES (?, ?)", NewInt(k), NewInt(v))
			a := want[k]
			if a == nil {
				a = &agg{min: v, max: v}
				want[k] = a
			} else {
				if v < a.min {
					a.min = v
				}
				if v > a.max {
					a.max = v
				}
			}
			a.count++
			a.sum += v
		}
		rows := queryAll(t, db, "SELECT k, COUNT(*), SUM(v), MIN(v), MAX(v) FROM t GROUP BY k")
		if len(rows) != len(want) {
			return false
		}
		for _, r := range rows {
			k, _ := r[0].AsInt()
			a := want[k]
			if a == nil {
				return false
			}
			c, _ := r[1].AsInt()
			s, _ := r[2].AsInt()
			mn, _ := r[3].AsInt()
			mx, _ := r[4].AsInt()
			if c != a.count || s != a.sum || mn != a.min || mx != a.max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
