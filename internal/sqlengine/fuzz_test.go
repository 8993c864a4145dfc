package sqlengine

import (
	"reflect"
	"testing"
)

// FuzzLex feeds arbitrary strings to the SQL lexer. Lex errors are
// expected on garbage; panics or hangs are bugs.
func FuzzLex(f *testing.F) {
	f.Add("SELECT s, r, i FROM state")
	f.Add("WITH t AS (SELECT 1 AS x) SELECT x FROM t;")
	f.Add("SELECT 1e309, .5, 0x, 'unterminated")
	f.Add(`SELECT "quoted ident", b.s & 3 | 4 # 5 FROM b`)
	f.Add("-- comment only\n")
	f.Add("SELECT /* nested? /* */ 1")
	f.Add("\x00\xff\xfe")
	f.Add("((((((((((")

	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return
		}
		toks, err := lexSQL(src)
		if err != nil {
			return
		}
		// A successful lex always terminates the stream with EOF.
		if len(toks) == 0 {
			t.Fatal("lexSQL returned no tokens and no error")
		}
	})
}

// FuzzParse feeds arbitrary strings to the SQL parser (lexer
// included). Parse errors are expected; panics, hangs, or unbounded
// recursion are bugs.
func FuzzParse(f *testing.F) {
	f.Add("SELECT s, r, i FROM state WHERE r != 0 ORDER BY s")
	f.Add("WITH g0 AS (SELECT s # 1 AS s, r, i FROM state) SELECT * FROM g0;")
	f.Add("SELECT a.s, a.r*b.r - a.i*b.i AS r FROM a JOIN b ON a.s = b.s")
	f.Add("CREATE TABLE state (s INTEGER, r REAL, i REAL); INSERT INTO state VALUES (0, 1.0, 0.0);")
	f.Add("SELECT CASE WHEN s & 1 = 0 THEN r ELSE -r END FROM state GROUP BY s HAVING SUM(r) > 0")
	f.Add("SELECT ((((((1))))))")
	f.Add("SELECT FROM WHERE GROUP")
	f.Add(";;;;")
	f.Add("SELECT 1 UNION ALL SELECT 2")
	// Chained multi-stage shapes: the fused CTAS statements that
	// core.FusedStatements emits (CREATE TABLE ... AS WITH interior
	// gate stages as CTEs), plus degenerate variants.
	f.Add(`CREATE TABLE q_state_2 AS WITH q_state_1 AS (
  SELECT ((t.s & ~1) | h.out_s) AS s,
         SUM((t.r * h.r) - (t.i * h.i)) AS r,
         SUM((t.r * h.i) + (t.i * h.r)) AS i
  FROM t JOIN h ON h.in_s = (t.s & 1)
  GROUP BY ((t.s & ~1) | h.out_s)
)
SELECT ((q_state_1.s & ~2) | (h.out_s << 1)) AS s,
       SUM((q_state_1.r * h.r) - (q_state_1.i * h.i)) AS r,
       SUM((q_state_1.r * h.i) + (q_state_1.i * h.r)) AS i
FROM q_state_1 JOIN h ON h.in_s = ((q_state_1.s >> 1) & 1)
GROUP BY ((q_state_1.s & ~2) | (h.out_s << 1));
DROP TABLE q_state_0;`)
	f.Add("CREATE TABLE t2 AS WITH c1 AS (SELECT s, r, i FROM t0), c2 AS (SELECT s, r, i FROM c1) SELECT * FROM c2")
	f.Add("CREATE TABLE x AS WITH x AS (SELECT 1) SELECT * FROM x;CREATE TABLE y AS WITH a AS (SELECT * FROM x) SELECT * FROM a")
	f.Add("CREATE TABLE t1 AS WITH c1 AS (SELECT s FROM t0 GROUP BY s HAVING SUM(r) > 0.0) SELECT s FROM c1 ORDER BY s;CREATE TABLE t2 AS SELECT * FROM t1;DROP TABLE t1;")
	f.Add("CREATE TABLE AS WITH AS (SELECT) SELECT")

	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return
		}
		stmts, err := ParseScript(src)
		if err != nil {
			return
		}
		for i, st := range stmts {
			if st == nil {
				t.Fatalf("ParseScript returned nil statement %d without error", i)
			}
		}
	})
}

// FuzzParseCached checks the statement cache against the parser: for
// any text that parses, the cached parse deep-equals ParseStatement's,
// and a second lookup returns the very same cached entry.
func FuzzParseCached(f *testing.F) {
	f.Add("SELECT s, r, i FROM state WHERE r != 0 ORDER BY s")
	f.Add("INSERT INTO g0 VALUES (0, 0, 0.7071067811865476, 0.0), (1, 1, -0.7071067811865476, 0.0)")
	f.Add("CREATE TABLE q_state_1 AS SELECT ((t.s & ~1) | h.out_s) AS s, SUM((t.r * h.r) - (t.i * h.i)) AS r, SUM((t.r * h.i) + (t.i * h.r)) AS i FROM t JOIN h ON h.in_s = (t.s & 1) GROUP BY ((t.s & ~1) | h.out_s)")
	f.Add("SELECT ? + ?, CASE WHEN s & 1 = 0 THEN r ELSE -r END FROM state")
	f.Add("EXPLAIN ANALYZE SELECT 1")
	f.Add("SELECT FROM WHERE GROUP")
	cache := newLRU[parsedStmt](1 << 16)

	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return
		}
		want, wantN, err := ParseStatement(src)
		got, gotN, cerr := parseCached(cache, src)
		if (err == nil) != (cerr == nil) {
			t.Fatalf("ParseStatement error %v, cached parse error %v", err, cerr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) || gotN != wantN {
			t.Fatalf("cached parse differs from ParseStatement for %q", src)
		}
		if len(src) > cache.limit/8 {
			return
		}
		again, _, _ := parseCached(cache, src)
		if again != got {
			t.Fatalf("second lookup of %q did not return the cached entry", src)
		}
	})
}
