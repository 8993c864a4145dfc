package sqlengine

import (
	"fmt"
	"testing"
)

func testEnv(t *testing.T, budget int64) *storageEnv {
	t.Helper()
	return &storageEnv{
		budget:       NewMemBudget(budget),
		spillDir:     t.TempDir(),
		spillEnabled: true,
		workingFloor: 8 << 10,
	}
}

func TestMemBudgetAccounting(t *testing.T) {
	b := NewMemBudget(1000)
	if !b.tryReserve(600) {
		t.Fatal("first reserve should fit")
	}
	if b.tryReserve(600) {
		t.Fatal("second reserve must exceed")
	}
	b.release(600)
	if !b.tryReserve(900) {
		t.Fatal("after release it fits")
	}
	if b.peak.Load() != 900 {
		t.Fatalf("peak = %d", b.peak.Load())
	}
	// Unlimited budget always succeeds.
	u := NewMemBudget(0)
	if !u.tryReserve(1 << 40) {
		t.Fatal("unlimited budget refused")
	}
}

// The TestRowStore tests drive the store through its row-at-a-time
// interface (Append, Cursor, Freeze, Thaw), the one the executor's
// row operators use.

func TestRowStoreInMemoryRoundTrip(t *testing.T) {
	env := testEnv(t, 0)
	rs := env.newStore()
	for i := 0; i < 100; i++ {
		if err := rs.Append(Row{NewInt(int64(i)), NewText(fmt.Sprint(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if rs.Len() != 100 || rs.Spilled() {
		t.Fatalf("len=%d spilled=%v", rs.Len(), rs.Spilled())
	}
	it, err := rs.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		row, ok, err := it.Next()
		if err != nil || !ok {
			t.Fatalf("row %d: ok=%v err=%v", i, ok, err)
		}
		if row[0].I != int64(i) {
			t.Fatalf("row %d = %v", i, row)
		}
	}
	if _, ok, _ := it.Next(); ok {
		t.Fatal("iterator should be exhausted")
	}
	rs.Release()
}

func TestRowStoreSpillRoundTrip(t *testing.T) {
	env := testEnv(t, 1024) // tiny budget forces spilling
	rs := env.newStore()
	const n = 2000
	for i := 0; i < n; i++ {
		row := Row{NewInt(int64(i)), NewFloat(float64(i) / 3), NewText("x"), Null, NewBool(i%2 == 0)}
		if err := rs.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if !rs.Spilled() {
		t.Fatal("expected spill under 1KB budget")
	}
	// Two concurrent iterators must both see everything.
	it1, err := rs.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	it2, err := rs.Cursor()
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
		if r1[3].T != TypeNull || r1[4].T != TypeBool {
			t.Fatalf("types lost in spill: %v", r1)
		}
	}
	rs.Release()
}

// TestRowStoreThawAppends appends to a frozen store after Thaw, under a
// tight budget, and reads back every row.
func TestRowStoreThawAppends(t *testing.T) {
	env := testEnv(t, 512)
	rs := env.newStore()
	for i := 0; i < 50; i++ {
		if err := rs.Append(Row{NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.Freeze(); err != nil {
		t.Fatal(err)
	}
	rs.Thaw()
	for i := 50; i < 80; i++ {
		if err := rs.Append(Row{NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	it, err := rs.Cursor()
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
	rs.Release()
}
