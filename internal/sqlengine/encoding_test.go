package sqlengine

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
)

// Tests for the sparsity-first storage tier: the sparse float column
// encoding and the spill chunk frame's column runs. The differential
// tests assert the core guarantee — results are bitwise independent of
// the encodings setting, across worker counts and the kernel tier.

// encTestEnv is testEnv with the encodings tier enabled (testEnv leaves
// it off so unrelated storage tests see plain vectors).
func encTestEnv(t *testing.T, budget int64) *storageEnv {
	t.Helper()
	env := testEnv(t, budget)
	env.encodings = true
	return env
}

// collectRows drains a store through its cursor into cloned rows.
func collectRows(t *testing.T, cs *ColStore) []Row {
	t.Helper()
	it, err := cs.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	var out []Row
	for {
		row, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, cloneRow(row))
	}
}

func TestEncodeSparseFloatColumn(t *testing.T) {
	env := encTestEnv(t, 0)
	cs := newColStore(env)
	attachStats(cs)
	const n = 2048
	want := make([]float64, n) // bit patterns; row 99 is NULL
	for k := 0; k < n; k++ {
		var v float64
		switch {
		case k == 13:
			v = math.Copysign(0, -1) // -0.0 must survive by bit pattern
		case k == 27:
			v = math.NaN()
		case k%50 == 0:
			v = 1.0 / float64(k+1)
		}
		want[k] = v
		row := Row{NewFloat(v)}
		if k == 99 {
			row = Row{Null}
			want[k] = 0
		}
		if err := cs.Append(cloneRow(row)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cs.Freeze(); err != nil {
		t.Fatal(err)
	}
	if kinds := cs.vectorKinds(); kinds[0] != "float64/sparse" {
		t.Fatalf("kinds = %v, want float64/sparse", kinds)
	}
	got := collectRows(t, cs)
	for i := range got {
		if i == 99 {
			if got[i][0].T != TypeNull {
				t.Fatalf("row 99 = %v, want NULL", got[i])
			}
			continue
		}
		if got[i][0].T != TypeFloat || math.Float64bits(got[i][0].F) != math.Float64bits(want[i]) {
			t.Fatalf("row %d = %v (bits %x), want bits %x", i, got[i], math.Float64bits(got[i][0].F), math.Float64bits(want[i]))
		}
	}
	if !math.Signbit(got[13][0].F) {
		t.Fatal("-0.0 lost its sign bit through the sparse encoding")
	}
	if !math.IsNaN(got[27][0].F) {
		t.Fatal("NaN lost through the sparse encoding")
	}
	cs.Release()
	if env.budget.used.Load() != 0 {
		t.Fatalf("leaked %d bytes", env.budget.used.Load())
	}
}

// TestSparseColumnThawAppendDecodes: a store frozen with a sparse
// column decodes it back to a plain vector when rows are appended after
// a Thaw (the transparent fallback, counted in decode_fallbacks), the
// next Freeze encodes it again, every value survives bit for bit, and
// the budget ends where it began.
func TestSparseColumnThawAppendDecodes(t *testing.T) {
	env := encTestEnv(t, 0)
	cs := newColStore(env)
	attachStats(cs)
	var want []float64
	appendRow := func(v float64) {
		want = append(want, v)
		if err := cs.Append(Row{NewFloat(v)}); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 2048; k++ {
		v := 0.0
		if k%32 == 0 {
			v = math.Copysign(float64(k), -1)
		}
		appendRow(v)
	}
	sparseBefore := StorageCounters()["encoded_sparse"]
	fallbacksBefore := StorageCounters()["decode_fallbacks"]
	if err := cs.Freeze(); err != nil {
		t.Fatal(err)
	}
	if kinds := cs.vectorKinds(); kinds[0] != "float64/sparse" {
		t.Fatalf("kinds = %v, want float64/sparse", kinds)
	}
	if d := StorageCounters()["encoded_sparse"] - sparseBefore; d < 1 {
		t.Fatalf("encoded_sparse delta = %d, want >= 1", d)
	}
	cs.Thaw()
	appendRow(0.5)
	if kinds := cs.vectorKinds(); kinds[0] != "float64" {
		t.Fatalf("kinds after thaw+append = %v, want float64", kinds)
	}
	if d := StorageCounters()["decode_fallbacks"] - fallbacksBefore; d < 1 {
		t.Fatalf("decode_fallbacks delta = %d, want >= 1", d)
	}
	if err := cs.Freeze(); err != nil {
		t.Fatal(err)
	}
	if kinds := cs.vectorKinds(); kinds[0] != "float64/sparse" {
		t.Fatalf("kinds after the second freeze = %v, want float64/sparse", kinds)
	}
	got := collectRows(t, cs)
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i, row := range got {
		if row[0].T != TypeFloat || math.Float64bits(row[0].F) != math.Float64bits(want[i]) {
			t.Fatalf("row %d = %v, want %g", i, row[0], want[i])
		}
	}
	cs.Release()
	if env.budget.used.Load() != 0 {
		t.Fatalf("leaked %d bytes", env.budget.used.Load())
	}
}

// TestEncodedStoreMatchesPlain is the store-level differential: the
// same appends into an encodings-on and an encodings-off store must
// read back bitwise identically, across value shapes that trigger the
// sparse encoding and shapes that trigger none.
func TestEncodedStoreMatchesPlain(t *testing.T) {
	shapes := []struct {
		name string
		val  func(k int) Row
	}{
		{"runs", func(k int) Row { return Row{NewInt(int64(k / 300)), NewFloat(float64(k))} }},
		{"dict", func(k int) Row { return Row{NewInt(int64(k % 13)), NewFloat(0)} }},
		{"sparse", func(k int) Row {
			v := 0.0
			if k%40 == 0 {
				v = -1.5 / float64(k+2)
			}
			return Row{NewInt(int64(k)), NewFloat(v)}
		}},
		{"incompressible", func(k int) Row { return Row{NewInt(int64(k * 2654435761)), NewFloat(1 / float64(k+1))} }},
		{"nulls", func(k int) Row {
			if k%17 == 0 {
				return Row{Null, Null}
			}
			return Row{NewInt(int64(k / 100)), NewFloat(0)}
		}},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			plainEnv, encEnv := testEnv(t, 0), encTestEnv(t, 0)
			plain, enc := newColStore(plainEnv), newColStore(encEnv)
			attachStats(plain)
			attachStats(enc)
			for k := 0; k < 3000; k++ {
				row := shape.val(k)
				if err := plain.Append(cloneRow(row)); err != nil {
					t.Fatal(err)
				}
				if err := enc.Append(cloneRow(row)); err != nil {
					t.Fatal(err)
				}
			}
			if err := plain.Freeze(); err != nil {
				t.Fatal(err)
			}
			if err := enc.Freeze(); err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, shape.name, collectRows(t, plain), collectRows(t, enc))
			plain.Release()
			enc.Release()
		})
	}
}

// TestEncodedQueriesMatchPlain is the SQL-level differential: scans,
// filters, and aggregates over encodable columns return bit-identical
// results with encodings on and off, at one and four workers.
func TestEncodedQueriesMatchPlain(t *testing.T) {
	const n = 3 * morselRows
	queries := []string{
		"SELECT x, y FROM t ORDER BY x",
		"SELECT y, COUNT(*), SUM(x) FROM t GROUP BY y ORDER BY y",
		"SELECT x FROM t WHERE x >= 12000 AND y = 3 ORDER BY x",
	}
	type cfg struct {
		encodings string
		workers   int
	}
	var dbs []*DB
	var names []string
	for _, c := range []cfg{{"off", 1}, {"on", 1}, {"off", 4}, {"on", 4}} {
		db := newParallelDB(t, c.workers, Config{Encodings: c.encodings})
		mustExec(t, db, "CREATE TABLE t (x INTEGER, y INTEGER)")
		fillSequence(t, db, "t", n)
		dbs = append(dbs, db)
		names = append(names, fmt.Sprintf("encodings=%s workers=%d", c.encodings, c.workers))
	}
	for _, q := range queries {
		ref := queryAll(t, dbs[0], q)
		for i := 1; i < len(dbs); i++ {
			requireBitIdentical(t, names[i]+" "+q, ref, queryAll(t, dbs[i], q))
		}
	}
}

// fillSparseAmplitudeTable builds an amplitude table whose state column
// repeats each index 8 times and whose amplitude columns sparse-encode
// (real part nonzero every 64th row, imaginary part all zero), plus the
// Hadamard gate table — the shape that drives the kernel's sparse
// column binds.
func fillSparseAmplitudeTable(t *testing.T, db *DB, rows int) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE t (s INTEGER, r REAL, i REAL)")
	batch := make([]string, 0, 500)
	for k := 0; k < rows; k++ {
		r := 0.0
		if k%64 == 0 {
			r = 0.5 / float64(k+1)
		}
		batch = append(batch, fmt.Sprintf("(%d, %g, 0)", k&^7, r))
		if len(batch) == 500 || k == rows-1 {
			mustExec(t, db, "INSERT INTO t VALUES "+strings.Join(batch, ","))
			batch = batch[:0]
		}
	}
	mustExec(t, db, "CREATE TABLE h (in_s INTEGER, out_s INTEGER, r REAL, i REAL)")
	mustExec(t, db, "INSERT INTO h VALUES (0,0,0.70710678,0),(0,1,0.70710678,0),(1,0,0.70710678,0),(1,1,-0.70710678,0)")
}

// TestGateStageEncodedBitIdentical: the gate-stage join+aggregate over
// an encoded amplitude table is bit-identical across encodings on/off ×
// kernels on/off × workers 1/4, and the kernel actually binds encoded
// columns (sparse amplitude decode).
func TestGateStageEncodedBitIdentical(t *testing.T) {
	q := `SELECT ((t.s & ~1) | h.out_s) AS s,
	       SUM((t.r * h.r) - (t.i * h.i)) AS r,
	       SUM((t.r * h.i) + (t.i * h.r)) AS i
	FROM t JOIN h ON h.in_s = (t.s & 1)
	GROUP BY ((t.s & ~1) | h.out_s)
	ORDER BY s`
	bindsBefore := StorageCounters()["kernel_encoded_binds"]
	var ref []Row
	for _, encodings := range []string{"off", "on"} {
		for _, kernels := range []string{"on", "off"} {
			for _, workers := range []int{1, 4} {
				db := newParallelDB(t, workers, Config{Encodings: encodings, Kernels: kernels})
				fillSparseAmplitudeTable(t, db, testRows)
				rows := queryAll(t, db, q)
				name := fmt.Sprintf("encodings=%s kernels=%s workers=%d", encodings, kernels, workers)
				if ref == nil {
					ref = rows
					continue
				}
				requireBitIdentical(t, name, ref, rows)
			}
		}
	}
	if d := StorageCounters()["kernel_encoded_binds"] - bindsBefore; d < 1 {
		t.Fatalf("kernel_encoded_binds delta = %d, want >= 1", d)
	}
}

// TestSpillV2CorruptColumnRuns: the spill chunk's column-run decoder
// rejects unknown kind tags and inconsistent sparse payloads instead of
// mis-decoding them.
func TestSpillV2CorruptColumnRuns(t *testing.T) {
	enc := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"unknown kind tag", []byte{99}, "column kind"},
		{
			// A zero position delta would repeat or precede the previous
			// sparse position.
			"sparse zero delta",
			enc([]byte{byte(colFloatSparse), 0}, uv(2), uv(1), make([]byte, 8), uv(0), make([]byte, 8)),
			"sparse position",
		},
		{"truncated payload", []byte{byte(colInt), 0, 1, 2}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var c column
			err := readColumnRun(bufio.NewReader(bytes.NewReader(tc.data)), &c, 4)
			if err == nil {
				t.Fatal("corrupt run decoded without error")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}
