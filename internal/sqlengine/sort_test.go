package sqlengine

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The typed ORDER BY path (sortIntKeys) must produce exactly the
// permutation the generic stable CompareTotal sort produces, and must
// step aside whenever a key value is not an INTEGER. The reference in
// every test below is sort.SliceStable with indexCmp — the comparator
// the sort used before the typed path existed, and still its fallback.

// sortIDs returns the last column (a unique row id) of every row.
func sortIDs(rows []Row) []int64 {
	ids := make([]int64, len(rows))
	for i, r := range rows {
		ids[i] = r[len(r)-1].I
	}
	return ids
}

func TestTypedSortMatchesGenericComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// gen builds n rows (k0, k1, id) from a per-row key generator.
	gen := func(n int, key func(i int) (Value, Value)) []Row {
		rows := make([]Row, n)
		for i := range rows {
			a, b := key(i)
			rows[i] = Row{a, b, NewInt(int64(i))}
		}
		return rows
	}
	dupInts := func(int) (Value, Value) { return NewInt(rng.Int63n(20) - 10), NewInt(rng.Int63n(3)) }
	cases := []struct {
		name  string
		rows  []Row
		idx   []int
		descs []bool
		typed bool
	}{
		{"ints-dups-asc", gen(3000, dupInts), []int{0}, []bool{false}, true},
		{"ints-dups-desc", gen(3000, dupInts), []int{0}, []bool{true}, true},
		{"ints-multikey", gen(3000, dupInts), []int{0, 1}, []bool{false, true}, true},
		{"ints-multikey-desc-first", gen(3000, dupInts), []int{1, 0}, []bool{true, false}, true},
		{"int-extremes", gen(500, func(i int) (Value, Value) {
			return NewInt([]int64{-1 << 63, 1<<63 - 1, 0, -1, 1}[i%5]), NewInt(0)
		}), []int{0}, []bool{true}, true},
		{"null-key", gen(1000, func(i int) (Value, Value) {
			if i%97 == 5 {
				return Null, NewInt(0)
			}
			return dupInts(i)
		}), []int{0}, []bool{false}, false},
		{"float-key", gen(1000, func(i int) (Value, Value) {
			if i == 700 {
				return NewFloat(2.5), NewInt(0)
			}
			return dupInts(i)
		}), []int{0}, []bool{false}, false},
		{"text-key", gen(1000, func(i int) (Value, Value) {
			if i == 0 {
				return NewText("3"), NewInt(0)
			}
			return dupInts(i)
		}), []int{0}, []bool{true}, false},
		{"second-key-null", gen(1000, func(i int) (Value, Value) {
			a, _ := dupInts(i)
			if i == 999 {
				return a, Null
			}
			return a, NewInt(int64(i % 4))
		}), []int{0, 1}, []bool{false, false}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := slices.Clone(c.rows)
			cmp := indexCmp(c.idx, c.descs)
			sort.SliceStable(want, func(a, b int) bool { return cmp(want[a], want[b]) < 0 })

			got := slices.Clone(c.rows)
			if typed := sortIntKeys(got, c.idx, c.descs); typed != c.typed {
				t.Fatalf("sortIntKeys took the typed path = %v, want %v", typed, c.typed)
			}
			if !c.typed {
				if !slices.Equal(sortIDs(got), sortIDs(c.rows)) {
					t.Fatal("a declined typed sort must leave the buffer untouched")
				}
				return
			}
			if !slices.Equal(sortIDs(got), sortIDs(want)) {
				t.Fatal("typed sort order differs from the stable CompareTotal sort")
			}
		})
	}
}

// TestTypedSortSQLOrder drives ORDER BY through the engine — in memory
// and under a budget small enough that the sort writes sorted runs and
// merges them — and checks every result order against the reference
// stable sort of the table's insertion order.
func TestTypedSortSQLOrder(t *testing.T) {
	const n = 3000
	rng := rand.New(rand.NewSource(5))
	type rowSpec struct {
		k, j string // SQL literals
	}
	specs := make([]rowSpec, n)
	ref := make([]Row, n)
	for i := range specs {
		k := rng.Int63n(50) - 25
		j := rng.Int63n(4)
		specs[i] = rowSpec{fmt.Sprint(k), fmt.Sprint(j)}
		ref[i] = Row{NewInt(k), NewInt(j), NewInt(int64(i))}
	}
	// Mixed-type variants: one NULL, one REAL and one TEXT key value
	// force the generic comparator.
	mixed := map[string]func(i int) (string, Value){
		"null": func(i int) (string, Value) { return "NULL", Null },
		"real": func(i int) (string, Value) { return "7.5", NewFloat(7.5) },
		"text": func(i int) (string, Value) { return "'x'", NewText("x") },
	}
	load := func(db *DB, variant string) []Row {
		mustExec(t, db, "CREATE TABLE t (k INTEGER, j INTEGER, id INTEGER)")
		rows := slices.Clone(ref)
		var vals []string
		for i, s := range specs {
			k := s.k
			if f := mixed[variant]; f != nil && i == n/2 {
				var v Value
				k, v = f(i)
				rows[i] = Row{v, ref[i][1], ref[i][2]}
			}
			vals = append(vals, fmt.Sprintf("(%s, %s, %d)", k, s.j, i))
			if len(vals) == 500 || i == n-1 {
				mustExec(t, db, "INSERT INTO t VALUES "+strings.Join(vals, ","))
				vals = vals[:0]
			}
		}
		return rows
	}
	orders := []struct {
		by    string
		idx   []int
		descs []bool
	}{
		{"k", []int{0}, []bool{false}},
		{"k DESC", []int{0}, []bool{true}},
		{"k, j DESC", []int{0, 1}, []bool{false, true}},
		{"j DESC, k", []int{1, 0}, []bool{true, false}},
	}
	for _, budget := range []int64{0, 24 << 10} {
		for _, variant := range []string{"int", "null", "real", "text"} {
			for _, o := range orders {
				name := fmt.Sprintf("budget=%d/%s/%s", budget, variant, o.by)
				t.Run(name, func(t *testing.T) {
					db := newBudgetDB(t, budget)
					want := load(db, variant)
					cmp := indexCmp(o.idx, o.descs)
					sort.SliceStable(want, func(a, b int) bool { return cmp(want[a], want[b]) < 0 })
					got := queryAll(t, db, "SELECT k, j, id FROM t ORDER BY "+o.by)
					if !slices.Equal(sortIDs(got), sortIDs(want)) {
						t.Fatal("ORDER BY result differs from the stable CompareTotal order")
					}
				})
			}
		}
	}
}

// TestTypedSortSpilledRunsMerge opens the sort operator directly under
// a tiny budget so it must write sorted runs and merge them, and checks
// the merged order against the reference.
func TestTypedSortSpilledRunsMerge(t *testing.T) {
	db := newBudgetDB(t, 24<<10)
	mustExec(t, db, "CREATE TABLE t (x INTEGER, y INTEGER)")
	fillSequence(t, db, "t", 4000) // y = x % 97: many duplicates
	ctx := &execCtx{env: db.env}
	sn := &sortNode{child: tableScanNode(t, db, "t"), keys: []sortSpec{{expr: &ColumnRef{Name: "y"}, desc: true}}}
	it, err := sn.open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if ad, ok := it.(*rowAdapter); !ok {
		t.Fatalf("sort returned %T", it)
	} else if _, ok := ad.src.(*mergeIter); !ok {
		t.Fatalf("sort did not spill runs under a tiny budget (source %T)", ad.src)
	}
	var got []int64
	for {
		b, err := it.NextBatch()
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
	want := make([]Row, 4000)
	for i := range want {
		want[i] = Row{NewInt(int64(i)), NewInt(int64(i % 97))}
	}
	cmp := indexCmp([]int{1}, []bool{true})
	sort.SliceStable(want, func(a, b int) bool { return cmp(want[a], want[b]) < 0 })
	if len(got) != len(want) {
		t.Fatalf("sorted %d rows, want %d", len(got), len(want))
	}
	for i, r := range want {
		if got[i] != r[0].I {
			t.Fatalf("row %d: x = %d, want %d", i, got[i], r[0].I)
		}
	}
}
