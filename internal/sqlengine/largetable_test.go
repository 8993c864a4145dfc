package sqlengine

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Tests over a table that spans several batches and several fused-loop
// cancellation strides (cancelPollRows), with an uneven tail. Every
// statement runs on one goroutine in one accumulation order, so the
// expected results are computed in Go, taken from the interpreter, or
// taken from an unbounded run.

// fillAmplitudeTable inserts a synthetic nonzero-amplitude table t and
// the 4-row Hadamard gate table h.
func fillAmplitudeTable(t *testing.T, db *DB, rows int) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE t (s INTEGER, r REAL, i REAL)")
	batch := make([]string, 0, 500)
	for k := 0; k < rows; k++ {
		batch = append(batch, fmt.Sprintf("(%d, %g, %g)", k, ampR(k), 0.25/float64(k+3)))
		if len(batch) == 500 || k == rows-1 {
			mustExec(t, db, "INSERT INTO t VALUES "+strings.Join(batch, ","))
			batch = batch[:0]
		}
	}
	mustExec(t, db, "CREATE TABLE h (in_s INTEGER, out_s INTEGER, r REAL, i REAL)")
	mustExec(t, db, "INSERT INTO h VALUES (0,0,0.70710678,0),(0,1,0.70710678,0),(1,0,0.70710678,0),(1,1,-0.70710678,0)")
}

// requireBitIdentical compares two result sets exactly, including the
// IEEE-754 bit pattern of every REAL value and the row order.
func requireBitIdentical(t *testing.T, name string, a, b []Row) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: row counts differ: %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("%s: row %d widths differ", name, i)
		}
		for j := range a[i] {
			va, vb := a[i][j], b[i][j]
			if va.T != vb.T || va.I != vb.I || va.S != vb.S ||
				math.Float64bits(va.F) != math.Float64bits(vb.F) {
				t.Fatalf("%s: row %d col %d differs: %#v vs %#v", name, i, j, va, vb)
			}
		}
	}
}

// testRows spans three cancellation strides, the last one partial.
const testRows = 2*cancelPollRows + 1531

// ampR is the r column fillAmplitudeTable stores for row k.
func ampR(k int) float64 { return 1.0 / float64(k+1) }

func TestParallelScanFilterProjectMatchesSerial(t *testing.T) {
	db := newOptDB(t, Config{})
	fillAmplitudeTable(t, db, testRows)
	rows := queryAll(t, db, "SELECT s * 2 + 1, r, (s & 7) FROM t WHERE (s & 3) = 1")
	if want := (testRows + 2) / 4; len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	for n, row := range rows {
		k := 4*n + 1
		if row[0].I != int64(2*k+1) || row[2].I != int64(k&7) || math.Float64bits(row[1].F) != math.Float64bits(ampR(k)) {
			t.Fatalf("row %d = %v, want (%d, %g, %d)", n, row, 2*k+1, ampR(k), k&7)
		}
	}
}

// TestParallelGateStageBitIdentical runs one gate stage over the large
// table through the fused kernel and through the interpreter: both add
// the state rows in row order, so the amplitudes agree bit for bit.
func TestParallelGateStageBitIdentical(t *testing.T) {
	q := `SELECT ((t.s & ~1) | h.out_s) AS s,
	       SUM((t.r * h.r) - (t.i * h.i)) AS r,
	       SUM((t.r * h.i) + (t.i * h.r)) AS i
	FROM t JOIN h ON h.in_s = (t.s & 1)
	GROUP BY ((t.s & ~1) | h.out_s)
	ORDER BY s`
	var ref []Row
	for _, kernels := range []bool{false, true} {
		db := withKernels(newOptDB(t, Config{}), kernels)
		fillAmplitudeTable(t, db, testRows)
		rows := queryAll(t, db, q)
		if len(rows) != testRows+1 { // out states extend one past the input range
			t.Fatalf("kernels=%v: got %d groups, want %d", kernels, len(rows), testRows+1)
		}
		if ref == nil {
			ref = rows
			continue
		}
		requireBitIdentical(t, fmt.Sprintf("kernels=%v", kernels), ref, rows)
	}
}

func TestParallelLeftJoinResidualMatchesSerial(t *testing.T) {
	// LEFT join with a residual predicate: every probe row must appear,
	// null-extended when the residual rejects all matches. Even s meets
	// two positive gate rows; odd s one positive and one rejected.
	q := `SELECT t.s, h.out_s FROM t LEFT JOIN h ON h.in_s = (t.s & 1) AND h.r > 0`
	db := newOptDB(t, Config{})
	fillAmplitudeTable(t, db, testRows)
	rows := queryAll(t, db, q)
	perS := make(map[int64]int, testRows)
	for _, row := range rows {
		if row[1].IsNull() || row[1].I != 0 && row[0].I&1 == 1 {
			t.Fatalf("row %v: odd s may only meet out_s 0", row)
		}
		perS[row[0].I]++
	}
	for k := 0; k < testRows; k++ {
		if want := 2 - k&1; perS[int64(k)] != want {
			t.Fatalf("s=%d: %d rows, want %d", k, perS[int64(k)], want)
		}
	}
	if want := testRows + (testRows+1)/2; len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
}

// TestParallelDistinctDeterministic: DISTINCT keeps first-seen order,
// which for s = 0, 1, 2, … is 0..63.
func TestParallelDistinctDeterministic(t *testing.T) {
	db := newOptDB(t, Config{})
	fillAmplitudeTable(t, db, testRows)
	rows := queryAll(t, db, "SELECT DISTINCT (s & 63) FROM t")
	if len(rows) != 64 {
		t.Fatalf("got %d distinct values, want 64", len(rows))
	}
	for k, row := range rows {
		if row[0].I != int64(k) {
			t.Fatalf("row %d = %v, want %d", k, row[0], k)
		}
	}
}

// TestParallelAggBudgetFallback runs a grouped aggregation under a
// budget too small for a full hash table of one group per row, so it
// spills; results must match an unconstrained run.
func TestParallelAggBudgetFallback(t *testing.T) {
	q := "SELECT s, SUM(r), COUNT(*) FROM t GROUP BY s ORDER BY s"
	ref := func() []Row {
		db := newOptDB(t, Config{})
		fillAmplitudeTable(t, db, testRows)
		return queryAll(t, db, q)
	}()
	// A budget that holds the base tables but not a full hash table of
	// one group per row.
	db := newOptDB(t, Config{MemoryBudget: 3 << 20, SpillDir: t.TempDir()})
	fillAmplitudeTable(t, db, testRows)
	rows := queryAll(t, db, q)
	if len(rows) != len(ref) {
		t.Fatalf("got %d rows, want %d", len(rows), len(ref))
	}
	for i := range rows {
		for j := range rows[i] {
			if CompareTotal(rows[i][j], ref[i][j]) != 0 {
				t.Fatalf("row %d col %d: %v != %v", i, j, rows[i][j], ref[i][j])
			}
		}
	}
	if live := db.Stats().LiveBytes; live <= 0 {
		t.Fatalf("expected live table bytes, got %d", live)
	}
}

// TestParallelAggBudgetFallbackBitIdentical: a budget that the
// aggregation's working set fits leaves the accumulation order alone,
// so multi-row floating-point groups sum bit for bit as in an
// unbounded run.
func TestParallelAggBudgetFallbackBitIdentical(t *testing.T) {
	// 64 rows per group: SUM(r) order matters in the last bits.
	q := "SELECT (s & ~63), SUM(r), AVG(r) FROM t GROUP BY (s & ~63) ORDER BY 1"
	var ref []Row
	for _, budget := range []int64{0, 3 << 20, 1 << 20} {
		db := newOptDB(t, Config{MemoryBudget: budget, SpillDir: t.TempDir()})
		fillAmplitudeTable(t, db, testRows)
		rows := queryAll(t, db, q)
		if ref == nil {
			ref = rows
			continue
		}
		requireBitIdentical(t, fmt.Sprintf("budget=%d", budget), ref, rows)
	}
}

// TestParallelEarlyCloseReleases verifies a query starts no goroutine
// that outlives it and that closing the result set early releases
// every budget reservation.
func TestParallelEarlyCloseReleases(t *testing.T) {
	db := newOptDB(t, Config{})
	fillAmplitudeTable(t, db, testRows)
	baseline := db.Stats().LiveBytes
	goroutines := runtime.NumGoroutine()

	rs, err := db.Query(`SELECT ((t.s & ~1) | h.out_s) AS s, SUM(t.r * h.r) AS r
		FROM t JOIN h ON h.in_s = (t.s & 1) GROUP BY ((t.s & ~1) | h.out_s)`)
	if err != nil {
		t.Fatal(err)
	}
	// Read one row, then abandon the rest.
	if _, ok, err := rs.Next(); err != nil || !ok {
		t.Fatalf("first row: ok=%v err=%v", ok, err)
	}
	rs.Close()

	if live := db.Stats().LiveBytes; live != baseline {
		t.Fatalf("live bytes after Close = %d, want %d (baseline)", live, baseline)
	}
	// Allow scheduler lag for goroutines other tests end.
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= goroutines {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines after query = %d, want <= %d", runtime.NumGoroutine(), goroutines)
}

// TestParallelGlobalAggregate covers the no-GROUP-BY path: one group
// whose SUM adds the rows in table order, exactly as a Go loop does.
func TestParallelGlobalAggregate(t *testing.T) {
	db := newOptDB(t, Config{})
	fillAmplitudeTable(t, db, testRows)
	rows := queryAll(t, db, "SELECT COUNT(*), SUM(r), MIN(s), MAX(s) FROM t")
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	sum := 0.0
	for k := 0; k < testRows; k++ {
		sum += ampR(k)
	}
	got := rows[0]
	if got[0].I != int64(testRows) || got[2].I != 0 || got[3].I != int64(testRows-1) {
		t.Fatalf("COUNT, MIN, MAX = %v, %v, %v", got[0], got[2], got[3])
	}
	if math.Float64bits(got[1].F) != math.Float64bits(sum) {
		t.Fatalf("SUM(r) = %v, want %v (rows added in table order)", got[1].F, sum)
	}
}
