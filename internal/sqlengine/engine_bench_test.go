package sqlengine

import (
	"fmt"
	"strings"
	"testing"
)

// Engine micro-benchmarks: the operator costs underlying the SQL
// backend's per-gate time. End-to-end numbers live in benchmarks/e2e.

// benchDB loads the gate-stage schema: a state table t of the given
// size with uniform real amplitudes, and the 4-row Hadamard gate table h.
func benchDB(tb testing.TB, rows int, cfg Config) *DB {
	tb.Helper()
	db, err := Open(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	exec := func(sql string) {
		if _, err := db.Exec(sql); err != nil {
			tb.Fatal(err)
		}
	}
	exec("CREATE TABLE t (s INTEGER, r REAL, i REAL)")
	batch := make([]string, 0, 500)
	for k := 0; k < rows; k++ {
		batch = append(batch, fmt.Sprintf("(%d, %g, 0.0)", k, 1.0/float64(rows)))
		if len(batch) == 500 || k == rows-1 {
			exec("INSERT INTO t VALUES " + strings.Join(batch, ","))
			batch = batch[:0]
		}
	}
	exec("CREATE TABLE h (in_s INTEGER, out_s INTEGER, r REAL, i REAL)")
	exec("INSERT INTO h VALUES (0,0,0.70710678,0),(0,1,0.70710678,0),(1,0,0.70710678,0),(1,1,-0.70710678,0)")
	return db
}

// benchGateStageSQL is the exact shape of one translated gate
// application over benchDB's tables.
const benchGateStageSQL = `SELECT ((t.s & ~1) | h.out_s) AS s,
       SUM((t.r * h.r) - (t.i * h.i)) AS r,
       SUM((t.r * h.i) + (t.i * h.r)) AS i
FROM t JOIN h ON h.in_s = (t.s & 1)
GROUP BY ((t.s & ~1) | h.out_s)`

func BenchmarkParse(b *testing.B) {
	src := `WITH T1 AS (
	  SELECT ((T0.s & ~1) | H.out_s) AS s,
	         SUM((T0.r * H.r) - (T0.i * H.i)) AS r,
	         SUM((T0.r * H.i) + (T0.i * H.r)) AS i
	  FROM T0 JOIN H ON H.in_s = (T0.s & 1)
	  GROUP BY ((T0.s & ~1) | H.out_s)
	) SELECT s, r, i FROM T1 ORDER BY s`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := ParseStatement(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanFilter(b *testing.B) {
	db := benchDB(b, 4096, Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := db.Query("SELECT s FROM t WHERE (s & 7) = 3")
		if err != nil {
			b.Fatal(err)
		}
		if rs.Len() != 512 {
			b.Fatalf("rows = %d", rs.Len())
		}
		rs.Close()
	}
}

func BenchmarkHashJoin(b *testing.B) {
	db := benchDB(b, 4096, Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := db.Query("SELECT COUNT(*) FROM t JOIN h ON h.in_s = (t.s & 1)")
		if err != nil {
			b.Fatal(err)
		}
		rs.Close()
	}
}

func BenchmarkGroupByAggregate(b *testing.B) {
	db := benchDB(b, 4096, Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := db.Query("SELECT (s & 255) AS k, SUM(r), COUNT(*) FROM t GROUP BY (s & 255)")
		if err != nil {
			b.Fatal(err)
		}
		if rs.Len() != 256 {
			b.Fatalf("groups = %d", rs.Len())
		}
		rs.Close()
	}
}

func BenchmarkOrderBy(b *testing.B) {
	db := benchDB(b, 4096, Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := db.Query("SELECT s FROM t ORDER BY r DESC, s")
		if err != nil {
			b.Fatal(err)
		}
		rs.Close()
	}
}

func BenchmarkGateStageQuery(b *testing.B) {
	db := benchDB(b, 4096, Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := db.Query(benchGateStageSQL)
		if err != nil {
			b.Fatal(err)
		}
		if rs.Len() != 4096 {
			b.Fatalf("rows = %d", rs.Len())
		}
		rs.Close()
	}
}

// TestEngineMicroWorkloads executes the benchmarked operator shapes
// once — predicate scan, hash join, hash aggregation, and the full gate
// stage — so they stay runnable without -bench.
func TestEngineMicroWorkloads(t *testing.T) {
	db := benchDB(t, 4096, Config{})
	for _, w := range []struct {
		sql  string
		rows int
	}{
		{"SELECT s FROM t WHERE (s & 7) = 3", 512},
		{"SELECT COUNT(*) FROM t JOIN h ON h.in_s = (t.s & 1)", 1},
		{"SELECT (s & 255) AS k, SUM(r), COUNT(*) FROM t GROUP BY (s & 255)", 256},
		{benchGateStageSQL, 4096},
	} {
		if rows := queryAll(t, db, w.sql); len(rows) != w.rows {
			t.Errorf("%s: %d rows, want %d", w.sql, len(rows), w.rows)
		}
	}
}

// gateStageAllocBound caps the heap allocations of one 16,384-row
// gate-stage query: 1.2x the ~1,160 measured when the bound was set,
// so an allocation regression fails here instead of surfacing as GC
// time end to end.
const gateStageAllocBound = 1390

// TestGateStageQueryAllocs is the allocation regression gate for the
// translated gate-stage query (join + group-by over the amplitude
// table) on the deterministic serial path.
func TestGateStageQueryAllocs(t *testing.T) {
	const rows = 1 << 14
	allocs := func(cfg Config) float64 {
		db := benchDB(t, rows, cfg)
		return testing.AllocsPerRun(5, func() {
			rs, err := db.Query(benchGateStageSQL)
			if err != nil {
				t.Fatal(err)
			}
			if rs.Len() != rows {
				t.Fatalf("rows = %d, want %d", rs.Len(), rows)
			}
			rs.Close()
		})
	}
	if got := allocs(Config{}); got > gateStageAllocBound {
		t.Errorf("%.0f allocs/op, bound %d", got, gateStageAllocBound)
	}
}

func BenchmarkSpillingAggregate(b *testing.B) {
	db, err := Open(Config{MemoryBudget: 64 << 10, SpillDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (s INTEGER, r REAL, i REAL)"); err != nil {
		b.Fatal(err)
	}
	batch := make([]string, 0, 500)
	for k := 0; k < 8192; k++ {
		batch = append(batch, fmt.Sprintf("(%d, 0.5, 0.0)", k))
		if len(batch) == 500 || k == 8191 {
			if _, err := db.Exec("INSERT INTO t VALUES " + strings.Join(batch, ",")); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := db.Query("SELECT s, SUM(r) FROM t GROUP BY s")
		if err != nil {
			b.Fatal(err)
		}
		rs.Close()
	}
}
