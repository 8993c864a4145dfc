package sqlengine

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"testing/quick"
)

func TestColStoreInMemoryRoundTrip(t *testing.T) {
	env := testEnv(t, 0)
	cs := env.newStore()
	for i := 0; i < 100; i++ {
		if err := cs.Append(Row{NewInt(int64(i)), NewText(fmt.Sprint(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if cs.Len() != 100 || cs.Spilled() {
		t.Fatalf("len=%d spilled=%v", cs.Len(), cs.Spilled())
	}
	if kinds := cs.vectorKinds(); len(kinds) != 2 || kinds[0] != "int64" || kinds[1] != "string" {
		t.Fatalf("kinds = %v", kinds)
	}
	it, err := cs.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		row, ok, err := it.Next()
		if err != nil || !ok {
			t.Fatalf("row %d: ok=%v err=%v", i, ok, err)
		}
		if row[0].T != TypeInt || row[0].I != int64(i) || row[1].S != fmt.Sprint(i) {
			t.Fatalf("row %d = %v", i, row)
		}
	}
	if _, ok, _ := it.Next(); ok {
		t.Fatal("cursor should be exhausted")
	}
	cs.Release()
	if env.budget.used.Load() != 0 {
		t.Fatalf("leaked %d bytes", env.budget.used.Load())
	}
}

func TestColStoreAppendBatchRoundTrip(t *testing.T) {
	env := testEnv(t, 0)
	cs := env.newStore()
	// Three batches with a selection vector on the second.
	for bi := 0; bi < 3; bi++ {
		b := newRowBatch(2)
		for k := 0; k < 10; k++ {
			b.appendRow(Row{NewInt(int64(bi*10 + k)), NewFloat(float64(k) / 2)})
		}
		if bi == 1 {
			b.sel = []int{1, 3, 5}
		}
		if err := cs.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if cs.Len() != 23 {
		t.Fatalf("len = %d", cs.Len())
	}
	sc, err := cs.batchScan()
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for {
		b, err := sc.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		for _, pos := range b.selection() {
			got = append(got, b.cols[0][pos].I)
		}
	}
	want := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 15, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %d, want %d", i, got[i], want[i])
		}
	}
	cs.Release()
}

func TestColStoreSpillRoundTrip(t *testing.T) {
	env := testEnv(t, 1024) // tiny budget forces columnar chunk spilling
	cs := env.newStore()
	const n = 2000
	for i := 0; i < n; i++ {
		row := Row{NewInt(int64(i)), NewFloat(float64(i) / 3), NewText("x"), Null, NewBool(i%2 == 0)}
		if err := cs.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if !cs.Spilled() {
		t.Fatal("expected spill under 1KB budget")
	}
	// Two concurrent cursors must both see everything, with exact types.
	it1, err := cs.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	it2, err := cs.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r1, ok1, err1 := it1.Next()
		r2, ok2, err2 := it2.Next()
		if !ok1 || !ok2 || err1 != nil || err2 != nil {
			t.Fatalf("row %d: %v %v %v %v", i, ok1, ok2, err1, err2)
		}
		if r1[0].I != int64(i) || r2[0].I != int64(i) {
			t.Fatalf("row %d: %v / %v", i, r1, r2)
		}
		if r1[1].F != float64(i)/3 || r1[2].S != "x" {
			t.Fatalf("row %d values lost in spill: %v", i, r1)
		}
		if r1[3].T != TypeNull || r1[4].T != TypeBool || (r1[4].I != 0) != (i%2 == 0) {
			t.Fatalf("types lost in columnar spill: %v", r1)
		}
	}
	cs.Release()
	if env.budget.used.Load() != 0 {
		t.Fatalf("leaked %d bytes", env.budget.used.Load())
	}
}

func TestColStoreThawAppends(t *testing.T) {
	env := testEnv(t, 0)
	cs := env.newStore()
	for i := 0; i < 50; i++ {
		if err := cs.Append(Row{NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cs.Freeze(); err != nil {
		t.Fatal(err)
	}
	cs.Thaw()
	for i := 50; i < 80; i++ {
		if err := cs.Append(Row{NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	it, err := cs.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for {
		_, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		count++
	}
	if count != 80 {
		t.Fatalf("count = %d", count)
	}
	cs.Release()
}

// TestColStoreMixedTypeColumnDegrades drives the generic-vector
// fallback: a column that mixes types must round-trip every value
// exactly, in memory and through the spill format.
func TestColStoreMixedTypeColumnDegrades(t *testing.T) {
	for _, budget := range []int64{0, 1} { // in-memory and all-spilled
		env := testEnv(t, budget)
		cs := env.newStore()
		rows := []Row{
			{NewInt(7)},
			{NewText("seven")},
			{Null},
			{NewFloat(2.5)},
			{NewBool(true)},
		}
		for _, r := range rows {
			if err := cs.Append(cloneRow(r)); err != nil {
				t.Fatal(err)
			}
		}
		if budget == 0 {
			if kinds := cs.vectorKinds(); kinds[0] != "values" {
				t.Fatalf("kinds = %v, want generic fallback", kinds)
			}
		}
		it, err := cs.Cursor()
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range rows {
			got, ok, err := it.Next()
			if err != nil || !ok {
				t.Fatalf("row %d: ok=%v err=%v", i, ok, err)
			}
			if got[0].T != want[0].T || got[0].String() != want[0].String() {
				t.Fatalf("row %d = %v, want %v (budget=%d)", i, got[0], want[0], budget)
			}
		}
		cs.Release()
	}
}

// TestColStorePropertyRoundTrip pushes random values through the
// all-spilled columnar chunk codec and demands exact round-trips (type
// tags and float bit patterns included).
func TestColStorePropertyRoundTrip(t *testing.T) {
	env := testEnv(t, 1) // everything spills → full chunk encode/decode
	f := func(i int64, fl float64, s string, b bool, hasNull bool) bool {
		cs := env.newStore()
		defer cs.Release()
		row := Row{NewInt(i), NewFloat(fl), NewText(s), NewBool(b)}
		if hasNull {
			row = append(row, Null)
		}
		if err := cs.Append(cloneRow(row)); err != nil {
			return false
		}
		it, err := cs.Cursor()
		if err != nil {
			return false
		}
		got, ok, err := it.Next()
		if err != nil || !ok || len(got) != len(row) {
			return false
		}
		for j := range row {
			if got[j].T != row[j].T {
				return false
			}
			// NaN != NaN: compare rendered bit patterns via String.
			if got[j].String() != row[j].String() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestColStoreNullRunsPromote covers kind inference across NULL runs: a
// column that starts with NULLs adopts the first real type and keeps
// the earlier rows NULL.
func TestColStoreNullRunsPromote(t *testing.T) {
	env := testEnv(t, 0)
	cs := env.newStore()
	for i := 0; i < 70; i++ { // span a bitmap word boundary
		if err := cs.Append(Row{Null}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cs.Append(Row{NewFloat(1.25)}); err != nil {
		t.Fatal(err)
	}
	if kinds := cs.vectorKinds(); kinds[0] != "float64" {
		t.Fatalf("kinds = %v", kinds)
	}
	it, err := cs.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 70; i++ {
		row, ok, _ := it.Next()
		if !ok || row[0].T != TypeNull {
			t.Fatalf("row %d = %v, want NULL", i, row)
		}
	}
	row, ok, _ := it.Next()
	if !ok || row[0].T != TypeFloat || row[0].F != 1.25 {
		t.Fatalf("promoted row = %v", row)
	}
	cs.Release()
}

// TestColStoreInsertValuesSizedToRows: an INSERT ... VALUES into a
// fresh table sizes every typed vector to exactly its rows, a column
// whose first rows are NULL included; a later INSERT still appends, and
// a CTAS store keeps the batch-sized floor.
func TestColStoreInsertValuesSizedToRows(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE g (in_s INTEGER, out_s INTEGER, r REAL, i REAL, name TEXT, ok BOOLEAN)")
	mustExec(t, db, "INSERT INTO g VALUES (0, 0, 0.5, NULL, 'a', TRUE), (0, 1, 0.5, 0.25, 'b', FALSE), "+
		"(1, 0, 0.5, 0.0, 'c', TRUE), (1, 1, -0.5, 1.0, 'd', FALSE)")
	cs := db.lookupTable("g").store
	caps := func(c *column) int {
		switch c.kind {
		case colInt:
			return cap(c.ints)
		case colFloat:
			return cap(c.floats)
		case colStr:
			return cap(c.strs)
		case colBool:
			return cap(c.bools)
		}
		t.Fatalf("column kind %s is not a typed vector", c.kind)
		return 0
	}
	for i := range cs.cols {
		if got := caps(&cs.cols[i]); got != 4 {
			t.Errorf("column %d (%s): cap %d after a 4-row INSERT, want 4", i, cs.cols[i].kind, got)
		}
	}

	mustExec(t, db, "INSERT INTO g VALUES (2, 3, 0.125, 0.0, 'e', TRUE)")
	rows := queryAll(t, db, "SELECT in_s, i, name FROM g ORDER BY in_s, out_s")
	if len(rows) != 5 || rows[4][0].I != 2 || rows[0][1].T != TypeNull || rows[4][2].S != "e" {
		t.Fatalf("rows after the second INSERT = %v", rows)
	}

	mustExec(t, db, "CREATE TABLE c AS SELECT in_s, r FROM g")
	ctas := db.lookupTable("c").store
	for i := range ctas.cols {
		if got := caps(&ctas.cols[i]); got < batchSize {
			t.Errorf("CTAS column %d (%s): cap %d, want the %d-row floor", i, ctas.cols[i].kind, got, batchSize)
		}
	}
}

func TestColStoreReleaseFreesBudget(t *testing.T) {
	for _, budget := range []int64{0, 1} { // in memory; everything spills
		env := testEnv(t, budget)
		cs := env.newStore()
		for i := 0; i < 100; i++ {
			if err := cs.Append(Row{NewText("some content here")}); err != nil {
				t.Fatal(err)
			}
		}
		if budget == 0 && env.budget.used.Load() == 0 {
			t.Fatal("expected live reservation")
		}
		var spill string
		if budget > 0 {
			if cs.file == nil {
				t.Fatal("expected the store to open a spill file")
			}
			spill = cs.file.Name()
		}
		cs.Release()
		if env.budget.used.Load() != 0 {
			t.Fatalf("budget=%d: leaked %d bytes", budget, env.budget.used.Load())
		}
		if spill != "" {
			if _, err := os.Stat(spill); !os.IsNotExist(err) {
				t.Fatalf("spill file %s survived Release: %v", spill, err)
			}
		}
	}
}

// TestRowEncodingPropertyRoundTrip checks the per-value codec of generic
// spill runs (encodeValue/decodeValue): every type round-trips, REAL
// values bit for bit, and encodeValue reports the bytes it wrote.
func TestRowEncodingPropertyRoundTrip(t *testing.T) {
	f := func(i int64, fl float64, bits uint64, s string, b bool) bool {
		row := Row{NewInt(i), NewFloat(fl), NewFloat(math.Float64frombits(bits)), NewText(s), NewBool(b), Null}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		written := 0
		for _, v := range row {
			n, err := encodeValue(w, v)
			if err != nil {
				return false
			}
			written += n
		}
		if w.Flush() != nil || written != buf.Len() {
			return false
		}
		r := bufio.NewReader(&buf)
		for _, want := range row {
			got, err := decodeValue(r)
			if err != nil || !sameBits(got, want) {
				return false
			}
		}
		_, err := r.ReadByte()
		return err != nil // nothing left over
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestResultSetDrainAllocs: draining a result row by row allocates per
// batch, not per row — the cursor carves each batch's rows from one
// slab — and every row stays the caller's: rows hold their own values,
// and appending to one does not write into the next.
func TestResultSetDrainAllocs(t *testing.T) {
	const n = 4096
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE t (s INTEGER, r REAL, i REAL)")
	rows := make([]string, n)
	for k := range rows {
		rows[k] = fmt.Sprintf("(%d, %d.5, -%d.25)", k, k, k)
	}
	for k := 0; k < n; k += 512 {
		mustExec(t, db, "INSERT INTO t VALUES "+strings.Join(rows[k:k+512], ","))
	}
	res, err := db.Query("SELECT s, r, i FROM t")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	drain := func() []Row {
		rs := &ResultSet{Columns: res.Columns, store: res.store}
		out, err := rs.All()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	got := drain()
	if len(got) != n {
		t.Fatalf("drained %d rows, want %d", len(got), n)
	}
	for k, row := range got {
		if len(row) != 3 || cap(row) != 3 || row[0].I != int64(k) || row[1].F != float64(k)+0.5 || row[2].F != -float64(k)-0.25 {
			t.Fatalf("row %d = %v (cap %d)", k, row, cap(row))
		}
	}
	grown := append(got[0], NewInt(-1))
	if grown[0].I != 0 || got[1][0].I != 1 {
		t.Fatalf("appending to row 0 changed row 1: %v", got[1])
	}
	var sink int
	allocs := testing.AllocsPerRun(5, func() {
		rs := &ResultSet{Columns: res.Columns, store: res.store}
		sink = 0
		for {
			row, ok, err := rs.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			sink += len(row)
		}
	})
	if sink != 3*n {
		t.Fatalf("drained %d values, want %d", sink, 3*n)
	}
	batches := float64(n / batchSize)
	t.Logf("%v allocs per %d-row drain (%v batches)", allocs, n, batches)
	if allocs > 4*batches {
		t.Fatalf("draining %d rows made %v allocations, want at most %v (4 per %d-row batch)", n, allocs, 4*batches, batchSize)
	}
}
