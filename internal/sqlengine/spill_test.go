package sqlengine

import (
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// newBudgetDB opens a DB with a small memory budget that forces the
// out-of-core paths; spill files go to the test's temp dir.
func newBudgetDB(t *testing.T, budget int64) *DB {
	t.Helper()
	db, err := Open(Config{MemoryBudget: budget, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// freezeTables freezes (and, with encodings on, encodes) base tables up
// front, so budget baselines taken afterwards reflect the tables'
// steady-state resident footprint rather than their pre-encode size.
func freezeTables(t *testing.T, db *DB, names ...string) {
	t.Helper()
	for _, name := range names {
		if err := db.lookupTable(name).store.Freeze(); err != nil {
			t.Fatal(err)
		}
	}
}

// fillSequence inserts rows 0..n-1 in batches.
func fillSequence(t *testing.T, db *DB, table string, n int) {
	t.Helper()
	batch := make([]string, 0, 500)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		mustExec(t, db, fmt.Sprintf("INSERT INTO %s VALUES %s", table, strings.Join(batch, ",")))
		batch = batch[:0]
	}
	for i := 0; i < n; i++ {
		batch = append(batch, fmt.Sprintf("(%d, %d)", i, i%97))
		if len(batch) == 500 {
			flush()
		}
	}
	flush()
}

func TestTableSpillsUnderBudget(t *testing.T) {
	db := newBudgetDB(t, 32*1024)
	mustExec(t, db, "CREATE TABLE t (x INTEGER, y INTEGER)")
	fillSequence(t, db, "t", 5000)
	if st := db.Stats(); st.SpilledRows == 0 {
		t.Fatalf("expected spill, stats = %+v", st)
	}
	rows := queryAll(t, db, "SELECT COUNT(*), SUM(x) FROM t")
	if rows[0][0].I != 5000 {
		t.Fatalf("count = %v", rows[0])
	}
	want := int64(5000) * 4999 / 2
	if rows[0][1].I != want {
		t.Fatalf("sum = %v, want %d", rows[0][1], want)
	}
}

func TestGraceAggregationMatchesInMemory(t *testing.T) {
	big := newBudgetDB(t, 24*1024)
	small, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()

	for _, db := range []*DB{big, small} {
		if _, err := db.Exec("CREATE TABLE t (x INTEGER, y INTEGER)"); err != nil {
			t.Fatal(err)
		}
	}
	fillSequence(t, big, "t", 4000)
	fillSequence2 := func(db *DB) {
		batch := make([]string, 0, 500)
		for i := 0; i < 4000; i++ {
			batch = append(batch, fmt.Sprintf("(%d, %d)", i, i%97))
			if len(batch) == 500 {
				if _, err := db.Exec("INSERT INTO t VALUES " + strings.Join(batch, ",")); err != nil {
					t.Fatal(err)
				}
				batch = batch[:0]
			}
		}
	}
	fillSequence2(small)

	q := "SELECT y, COUNT(*), SUM(x) FROM t GROUP BY y ORDER BY y"
	bigRows := queryAll(t, big, q)
	smallRows := queryAll(t, small, q)
	if len(bigRows) != 97 || len(smallRows) != 97 {
		t.Fatalf("groups = %d vs %d", len(bigRows), len(smallRows))
	}
	for i := range bigRows {
		for j := range bigRows[i] {
			if CompareTotal(bigRows[i][j], smallRows[i][j]) != 0 {
				t.Fatalf("row %d col %d: %v vs %v", i, j, bigRows[i][j], smallRows[i][j])
			}
		}
	}
}

func TestGraceHashJoinMatchesInMemory(t *testing.T) {
	budget := newBudgetDB(t, 24*1024)
	mustExec(t, budget, "CREATE TABLE a (x INTEGER, y INTEGER)")
	mustExec(t, budget, "CREATE TABLE b (x INTEGER, y INTEGER)")
	fillSequence(t, budget, "a", 3000)
	fillSequence(t, budget, "b", 3000)

	// Join on y (97 distinct values): 3000 rows per side → ~92k matches
	// per... too many; join on x instead (1:1) plus a selective filter.
	rows := queryAll(t, budget, "SELECT COUNT(*) FROM a JOIN b ON a.x = b.x")
	if rows[0][0].I != 3000 {
		t.Fatalf("join count = %v", rows[0])
	}
	rows = queryAll(t, budget, "SELECT SUM(a.x + b.x) FROM a JOIN b ON a.x = b.x WHERE a.x < 100")
	if rows[0][0].I != 9900 { // 2 * (0+..+99)
		t.Fatalf("sum = %v", rows[0])
	}
}

func TestExternalSort(t *testing.T) {
	db := newBudgetDB(t, 24*1024)
	mustExec(t, db, "CREATE TABLE t (x INTEGER, y INTEGER)")
	fillSequence(t, db, "t", 4000)
	rows := queryAll(t, db, "SELECT x FROM t ORDER BY x DESC")
	if len(rows) != 4000 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i][0].I > rows[i-1][0].I {
			t.Fatalf("not sorted at %d: %v > %v", i, rows[i][0], rows[i-1][0])
		}
	}
	if rows[0][0].I != 3999 || rows[3999][0].I != 0 {
		t.Fatalf("bounds: %v .. %v", rows[0][0], rows[3999][0])
	}
}

func TestBudgetErrorWhenSpillDisabled(t *testing.T) {
	db, err := Open(Config{MemoryBudget: 4 * 1024, DisableSpill: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (x INTEGER, y INTEGER)"); err != nil {
		t.Fatal(err)
	}
	var sawErr error
	for i := 0; i < 10000 && sawErr == nil; i++ {
		_, sawErr = db.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i))
	}
	if sawErr == nil {
		t.Fatal("expected a budget error with spilling disabled")
	}
	if !errors.Is(sawErr, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", sawErr)
	}
}

func TestSpillFilesCleanedUp(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{MemoryBudget: 16 * 1024, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (x INTEGER, y INTEGER)")
	fillSequence(t, db, "t", 3000)
	rs, err := db.Query("SELECT x FROM t ORDER BY x")
	if err != nil {
		t.Fatal(err)
	}
	rs.Close()
	db.Close()
	// After close, every spill file must be removed.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("leftover spill files: %v", entries)
	}
}

// tableScanNode builds a storeScanNode over a base table for tests that
// open operator iterators directly.
func tableScanNode(t *testing.T, db *DB, name string) *storeScanNode {
	t.Helper()
	meta := db.lookupTable(name)
	if meta == nil {
		t.Fatalf("no table %s", name)
	}
	cols := make(planSchema, len(meta.Cols))
	for i, c := range meta.Cols {
		cols[i] = planCol{table: strings.ToLower(name), name: strings.ToLower(c.Name)}
	}
	return &storeScanNode{store: meta.store, cols: cols}
}

// TestBatchSortEarlyCloseReleasesBudget verifies that closing a batched
// sort iterator mid-stream releases its full memBudget reservation and
// that Close stays idempotent.
func TestBatchSortEarlyCloseReleasesBudget(t *testing.T) {
	db := newBudgetDB(t, 1<<20)
	mustExec(t, db, "CREATE TABLE t (x INTEGER, y INTEGER)")
	fillSequence(t, db, "t", 4000)
	freezeTables(t, db, "t")
	baseline := db.env.budget.used.Load()

	ctx := &execCtx{env: db.env}
	sn := &sortNode{child: tableScanNode(t, db, "t"), keys: []sortSpec{{expr: &ColumnRef{Name: "x"}, desc: true}}}
	it, err := sn.open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if db.env.budget.used.Load() <= baseline {
		t.Fatal("sort buffer should hold a budget reservation while open")
	}
	if b, err := it.NextBatch(); err != nil || b == nil || b.rows() == 0 {
		t.Fatalf("first batch: %v rows, err %v", b, err)
	}
	it.Close()
	it.Close() // must be idempotent
	if got := db.env.budget.used.Load(); got != baseline {
		t.Fatalf("budget after early close = %d, want baseline %d", got, baseline)
	}
}

// TestBatchJoinEarlyCloseReleasesBudget does the same for the streaming
// hash-join probe, whose build table holds the reservation.
func TestBatchJoinEarlyCloseReleasesBudget(t *testing.T) {
	db := newBudgetDB(t, 8<<20)
	mustExec(t, db, "CREATE TABLE a (x INTEGER, y INTEGER)")
	mustExec(t, db, "CREATE TABLE b (x INTEGER, y INTEGER)")
	fillSequence(t, db, "a", 3000)
	fillSequence(t, db, "b", 3000)
	freezeTables(t, db, "a", "b")
	baseline := db.env.budget.used.Load()

	ctx := &execCtx{env: db.env}
	jn := &joinNode{
		left:     tableScanNode(t, db, "a"),
		right:    tableScanNode(t, db, "b"),
		joinType: "INNER",
		leftKeys: []Expr{&ColumnRef{Table: "a", Name: "x"}}, rightKeys: []Expr{&ColumnRef{Table: "b", Name: "x"}},
	}
	it, err := jn.open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if db.env.budget.used.Load() <= baseline {
		t.Fatal("join build table should hold a budget reservation while open")
	}
	if b, err := it.NextBatch(); err != nil || b == nil || b.rows() == 0 {
		t.Fatalf("first batch: %v rows, err %v", b, err)
	}
	it.Close()
	it.Close()
	if got := db.env.budget.used.Load(); got != baseline {
		t.Fatalf("budget after early close = %d, want baseline %d", got, baseline)
	}
}

// TestBatchAggregateEarlyCloseReleasesBudget closes a streaming
// aggregation's output mid-stream; the owned result store must be
// released.
func TestBatchAggregateEarlyCloseReleasesBudget(t *testing.T) {
	db := newBudgetDB(t, 1<<20)
	mustExec(t, db, "CREATE TABLE t (x INTEGER, y INTEGER)")
	fillSequence(t, db, "t", 4000)
	freezeTables(t, db, "t")
	baseline := db.env.budget.used.Load()

	ctx := &execCtx{env: db.env}
	an := &aggNode{
		child:   tableScanNode(t, db, "t"),
		groupBy: []Expr{&ColumnRef{Name: "y"}},
		aggs:    []aggCall{{Name: "SUM", Arg: &ColumnRef{Name: "x"}}},
	}
	it, err := an.open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := it.NextBatch(); err != nil || b == nil || b.rows() == 0 {
		t.Fatalf("first batch: %v rows, err %v", b, err)
	}
	it.Close()
	it.Close()
	if got := db.env.budget.used.Load(); got != baseline {
		t.Fatalf("budget after early close = %d, want baseline %d", got, baseline)
	}
}

// TestStreamingAggregateSpillMatchesInMemory drives the partial-spill
// path (streaming aggregation overflowing the budget) and checks the
// merged results against an unconstrained engine.
func TestStreamingAggregateSpillMatchesInMemory(t *testing.T) {
	big := newBudgetDB(t, 24*1024)
	small, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	for _, db := range []*DB{big, small} {
		if _, err := db.Exec("CREATE TABLE t (x INTEGER, y INTEGER)"); err != nil {
			t.Fatal(err)
		}
	}
	for _, db := range []*DB{big, small} {
		batch := make([]string, 0, 500)
		for i := 0; i < 6000; i++ {
			batch = append(batch, fmt.Sprintf("(%d, %d)", i, i%997))
			if len(batch) == 500 {
				if _, err := db.Exec("INSERT INTO t VALUES " + strings.Join(batch, ",")); err != nil {
					t.Fatal(err)
				}
				batch = batch[:0]
			}
		}
	}
	q := "SELECT y, COUNT(*), SUM(x), AVG(x), MIN(x), MAX(x), TOTAL(x) FROM t GROUP BY y ORDER BY y"
	bigRows := queryAll(t, big, q)
	smallRows := queryAll(t, small, q)
	if len(bigRows) != 997 || len(smallRows) != 997 {
		t.Fatalf("groups = %d vs %d", len(bigRows), len(smallRows))
	}
	for i := range bigRows {
		for j := range bigRows[i] {
			if CompareTotal(bigRows[i][j], smallRows[i][j]) != 0 {
				t.Fatalf("row %d col %d: %v vs %v", i, j, bigRows[i][j], smallRows[i][j])
			}
		}
	}
	if st := big.Stats(); st.SpilledRows == 0 {
		t.Fatalf("expected the partial-aggregate spill path to engage, stats = %+v", st)
	}
}

// TestColumnarCTASSpillsAndRestores drives the tentpole's out-of-core
// path: a CREATE TABLE AS SELECT whose result overflows the memBudget
// must fall back to the columnar chunk spill, and reading the spilled
// table back must restore every row and type exactly.
func TestColumnarCTASSpillsAndRestores(t *testing.T) {
	db := newBudgetDB(t, 24*1024)
	mustExec(t, db, "CREATE TABLE t (x INTEGER, y INTEGER)")
	fillSequence(t, db, "t", 5000)
	before := db.Stats().SpilledRows
	mustExec(t, db, "CREATE TABLE u AS SELECT x, x * 2 AS d, 'v' AS tag FROM t")
	if db.Stats().SpilledRows == before {
		t.Fatalf("expected CTAS to spill, stats = %+v", db.Stats())
	}
	meta := db.lookupTable("u")
	if meta == nil || !meta.store.Spilled() {
		t.Fatal("CTAS result store should be spilled")
	}
	rows := queryAll(t, db, "SELECT COUNT(*), SUM(d), MIN(tag) FROM u")
	if rows[0][0].I != 5000 {
		t.Fatalf("count = %v", rows[0])
	}
	if want := int64(5000) * 4999; rows[0][1].I != want {
		t.Fatalf("sum = %v, want %d", rows[0][1], want)
	}
	if rows[0][2].S != "v" {
		t.Fatalf("tag = %v", rows[0][2])
	}
}

// TestColumnarEarlyCloseReleasesColumnReservations closes a result set
// backed by a columnar store before draining it: Close must release
// every column-vector reservation (and stay idempotent).
func TestColumnarEarlyCloseReleasesColumnReservations(t *testing.T) {
	db := newBudgetDB(t, 1<<20)
	mustExec(t, db, "CREATE TABLE t (x INTEGER, y INTEGER)")
	fillSequence(t, db, "t", 4000)
	freezeTables(t, db, "t")
	baseline := db.env.budget.used.Load()

	rs, err := db.Query("SELECT x, y, x + y FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if db.env.budget.used.Load() <= baseline {
		t.Fatal("materialized columnar result should hold a reservation")
	}
	if _, ok, err := rs.Next(); !ok || err != nil {
		t.Fatalf("first row: ok=%v err=%v", ok, err)
	}
	rs.Close()
	rs.Close() // idempotent
	if got := db.env.budget.used.Load(); got != baseline {
		t.Fatalf("budget after early close = %d, want baseline %d", got, baseline)
	}
}

// layoutDBs opens one engine per storage layout with otherwise
// identical configuration.
func layoutDBs(t *testing.T, cfg Config) map[string]*DB {
	t.Helper()
	out := map[string]*DB{}
	for _, layout := range []string{LayoutColumnar, LayoutRow} {
		c := cfg
		c.Layout = layout
		db, err := Open(c)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		out[layout] = db
	}
	return out
}

// TestLayoutDifferentialBitIdentical runs the translated gate-stage
// workload — inserts, per-gate CTAS chain, joins, aggregation, ORDER BY
// — on the columnar and the row layout at workers=1 and workers=4, and
// requires bitwise-identical results everywhere: same types, same int64
// values, same float64 bit patterns, same row order.
func TestLayoutDifferentialBitIdentical(t *testing.T) {
	script := []string{
		"CREATE TABLE t0 (s INTEGER, r REAL, i REAL)",
		"CREATE TABLE h (in_s INTEGER, out_s INTEGER, r REAL, i REAL)",
		"INSERT INTO h VALUES (0,0,0.7071067811865476,0),(0,1,0.7071067811865476,0),(1,0,0.7071067811865476,0),(1,1,-0.7071067811865476,0)",
	}
	gate := `CREATE TABLE %s AS
		SELECT ((t.s & ~%d) | (h.out_s << %d)) AS s,
		       SUM((t.r * h.r) - (t.i * h.i)) AS r,
		       SUM((t.r * h.i) + (t.i * h.r)) AS i
		FROM %s t JOIN h ON h.in_s = ((t.s >> %d) & 1)
		GROUP BY ((t.s & ~%d) | (h.out_s << %d))`
	final := "SELECT s, r, i FROM t3 ORDER BY s"

	type key struct {
		layout  string
		workers int
	}
	results := map[key][]Row{}
	for _, workers := range []int{1, 4} {
		for layout, db := range layoutDBs(t, Config{Parallelism: workers}) {
			for _, stmt := range script {
				mustExec(t, db, stmt)
			}
			// Seed a 4096-row superposition.
			batch := make([]string, 0, 512)
			for k := 0; k < 4096; k++ {
				batch = append(batch, fmt.Sprintf("(%d, %g, %g)", k, 1.0/4096.0, float64(k)*1e-7))
				if len(batch) == 512 {
					mustExec(t, db, "INSERT INTO t0 VALUES "+strings.Join(batch, ","))
					batch = batch[:0]
				}
			}
			for g := 0; g < 3; g++ {
				bit := 1 << g
				mustExec(t, db, fmt.Sprintf(gate, fmt.Sprintf("t%d", g+1), bit, g, fmt.Sprintf("t%d", g), g, bit, g))
			}
			results[key{layout, workers}] = queryAll(t, db, final)
		}
	}

	ref := results[key{LayoutColumnar, 1}]
	if len(ref) == 0 {
		t.Fatal("no reference rows")
	}
	for k, rows := range results {
		if len(rows) != len(ref) {
			t.Fatalf("%v: %d rows vs %d", k, len(rows), len(ref))
		}
		for i := range rows {
			for j := range rows[i] {
				a, b := ref[i][j], rows[i][j]
				if a.T != b.T || a.I != b.I || math.Float64bits(a.F) != math.Float64bits(b.F) || a.S != b.S {
					t.Fatalf("%v: row %d col %d: %v vs %v (bits %x vs %x)",
						k, i, j, a, b, math.Float64bits(a.F), math.Float64bits(b.F))
				}
			}
		}
	}
}

func TestPeakMemoryStaysNearBudget(t *testing.T) {
	// The budget is a soft cap: each blocking operator may claim one
	// working floor (budget/4) beyond it, so a join+sort pipeline stays
	// within 2x. What matters for the out-of-core claim is that peak
	// memory does not scale with the data size.
	const budget = 64 * 1024
	db := newBudgetDB(t, budget)
	mustExec(t, db, "CREATE TABLE t (x INTEGER, y INTEGER)")
	fillSequence(t, db, "t", 8000)
	queryAll(t, db, "SELECT y, COUNT(*) FROM t GROUP BY y ORDER BY y")
	st := db.Stats()
	if st.PeakBytes > 2*budget {
		t.Fatalf("peak %d exceeded 2x budget %d", st.PeakBytes, budget)
	}
	if st.SpilledRows == 0 {
		t.Fatalf("expected spilling, stats = %+v", st)
	}
}
