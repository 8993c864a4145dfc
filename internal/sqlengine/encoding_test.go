package sqlengine

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// Tests for the sparsity-first storage tier: the sparse float column
// encoding and the spill chunk frame's column runs. They assert the
// core guarantee — a sparse column reads back exactly the values that
// were appended, bit for bit, through every read path and through the
// kernel tier.

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
	env := testEnv(t, 0)
	cs := env.newStore()
	cs.stats = &tableStats{}
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
	env := testEnv(t, 0)
	cs := env.newStore()
	cs.stats = &tableStats{}
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

// TestEncodedStoreMatchesPlain is the sparse encoding's property test:
// seeded random mostly-zero REAL columns, salted with chunkTestFloats
// (signed zero, NaN payloads, infinities, a subnormal), freeze into the sparse form and read back as exactly the appended
// plain values (math.Float64bits) through Cursor and batchScan. The
// nulls case interleaves NULL
// rows, whose zero slots the encoding must keep apart from the values.
func TestEncodedStoreMatchesPlain(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nulls bool
	}{{"sparse", false}, {"nulls", true}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(33))
			for trial := 0; trial < 3; trial++ {
				n := encodeMinRows + rng.Intn(3*morselRows)
				want := make([]Row, n)
				for k := range want {
					v := NewFloat(0)
					switch p := rng.Float64(); {
					case tc.nulls && p < 0.05:
						v = Null
					case p < 0.10:
						v = NewFloat(chunkTestFloats[rng.Intn(len(chunkTestFloats))])
					case p < 0.15:
						v = NewFloat(rng.NormFloat64())
					}
					want[k] = Row{NewInt(int64(k)), v}
				}
				env := testEnv(t, 0)
				cs := env.newStore()
				cs.stats = &tableStats{}
				for _, row := range want {
					if err := cs.Append(cloneRow(row)); err != nil {
						t.Fatal(err)
					}
				}
				if err := cs.Freeze(); err != nil {
					t.Fatal(err)
				}
				if kinds := cs.vectorKinds(); kinds[1] != "float64/sparse" {
					t.Fatalf("trial %d: kinds = %v, want a float64/sparse value column", trial, kinds)
				}
				name := fmt.Sprintf("trial %d", trial)
				requireBitIdentical(t, name+" Cursor", want, collectRows(t, cs))
				sc, err := cs.batchScan()
				if err != nil {
					t.Fatal(err)
				}
				scanned, err := drainScan(sc.NextBatch)
				if err != nil {
					t.Fatal(err)
				}
				requireBitIdentical(t, name+" batchScan", want, scanned)
				cs.Release()
				if env.budget.used.Load() != 0 {
					t.Fatalf("trial %d: leaked %d bytes", trial, env.budget.used.Load())
				}
			}
		})
	}
}

// drainScan gathers every selected row of a batch stream into fresh rows.
func drainScan(next func() (*rowBatch, error)) ([]Row, error) {
	var out []Row
	for {
		b, err := next()
		if err != nil || b == nil {
			return out, err
		}
		for _, pos := range b.selection() {
			out = append(out, b.materializeRow(pos))
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
// an encoded amplitude table is bit-identical across kernels on/off,
// and the kernel actually binds encoded columns (sparse amplitude
// decode).
func TestGateStageEncodedBitIdentical(t *testing.T) {
	q := `SELECT ((t.s & ~1) | h.out_s) AS s,
	       SUM((t.r * h.r) - (t.i * h.i)) AS r,
	       SUM((t.r * h.i) + (t.i * h.r)) AS i
	FROM t JOIN h ON h.in_s = (t.s & 1)
	GROUP BY ((t.s & ~1) | h.out_s)
	ORDER BY s`
	bindsBefore := StorageCounters()["kernel_encoded_binds"]
	var ref []Row
	for _, kernels := range []bool{true, false} {
		db := withKernels(newOptDB(t, Config{}), kernels)
		fillSparseAmplitudeTable(t, db, testRows)
		rows := queryAll(t, db, q)
		if ref == nil {
			ref = rows
			continue
		}
		requireBitIdentical(t, fmt.Sprintf("kernels=%v", kernels), ref, rows)
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
