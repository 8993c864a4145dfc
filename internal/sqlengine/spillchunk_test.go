package sqlengine

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// Round-trip tests for the spill chunk frame (colstore.go): every value
// written by writeChunk must come back from readChunk with its type and
// exact bits, in order.

// chunkTestWidth is the column count of chunkTestRow.
const chunkTestWidth = 11

// chunkTestFloats are REAL values whose bits a careless codec loses.
var chunkTestFloats = []float64{
	math.Copysign(0, -1),
	math.Float64frombits(0x7ff8000000000001), // quiet NaN with a payload
	math.Float64frombits(0xfff4000000000abc), // negative signalling NaN
	math.Inf(1),
	math.Inf(-1),
	math.SmallestNonzeroFloat64,
	-math.MaxFloat64,
}

// chunkTestFloat draws a REAL value: mostly ordinary numbers, sometimes
// one of chunkTestFloats or +0.0.
func chunkTestFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return chunkTestFloats[rng.Intn(len(chunkTestFloats))]
	case 1:
		return 0
	}
	return rng.NormFloat64()
}

// chunkTestRow draws one row covering every column form a chunk holds:
// INTEGER, REAL, mostly-zero REAL, all-zero REAL, TEXT and BOOL columns
// with NULLs, a mixed-type column (the generic form), an all-NULL
// column, and REAL columns that hold only -0.0, only one NaN payload
// and only the smallest subnormal.
func chunkTestRow(rng *rand.Rand) Row {
	row := make(Row, chunkTestWidth)
	row[0] = NewInt(rng.Int63() - rng.Int63())
	row[1] = NewFloat(chunkTestFloat(rng))
	row[2] = NewFloat(0)
	if rng.Intn(16) == 0 {
		row[2] = NewFloat(chunkTestFloat(rng))
	}
	row[3] = NewFloat(0)
	row[4] = NewText(fmt.Sprintf("%x", rng.Intn(1<<uint(rng.Intn(20)))))
	if rng.Intn(8) == 0 {
		row[4] = NewText("")
	}
	row[5] = NewBool(rng.Intn(2) == 0)
	switch rng.Intn(3) {
	case 0:
		row[6] = NewInt(rng.Int63n(100))
	case 1:
		row[6] = NewText("m")
	default:
		row[6] = NewFloat(chunkTestFloat(rng))
	}
	row[7] = Null
	row[8] = NewFloat(chunkTestFloats[0])
	row[9] = NewFloat(chunkTestFloats[1])
	row[10] = NewFloat(math.SmallestNonzeroFloat64)
	for _, c := range []int{0, 1, 2, 4, 5, 6} {
		if rng.Intn(10) == 0 {
			row[c] = Null
		}
	}
	return row
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

// sameBits reports whether two values have the same type and the same
// bits (REAL compared with math.Float64bits).
func sameBits(a, b Value) bool {
	if a.T != b.T {
		return false
	}
	switch a.T {
	case TypeFloat:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case TypeText:
		return a.S == b.S
	case TypeNull:
		return true
	}
	return a.I == b.I
}

// FuzzSpillChunkRoundTrip writes random chunks with writeChunk and reads
// them back with readChunk: every value, NULL and REAL bit pattern must
// survive, the writer must report the bytes it wrote, and every REAL
// column — mostly-zero, all-zero, -0.0, NaN-payload and subnormal alike
// — must come back as a plain float64 vector.
func FuzzSpillChunkRoundTrip(f *testing.F) {
	f.Add(int64(1), uint16(0))
	f.Add(int64(2), uint16(1))
	f.Add(int64(3), uint16(7))
	f.Add(int64(4), uint16(1500))
	f.Add(int64(5), uint16(1500))
	f.Add(int64(6), uint16(4097))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		rows := int(n) % 5000
		rng := rand.New(rand.NewSource(seed))
		env := testEnv(t, 0)
		cs := env.newStore()
		want := make([]Row, rows)
		for k := range want {
			want[k] = chunkTestRow(rng)
			if err := cs.Append(cloneRow(want[k])); err != nil {
				t.Fatal(err)
			}
		}
		if err := cs.Freeze(); err != nil {
			t.Fatal(err)
		}
		defer cs.Release()
		cols := cs.cols
		if cols == nil {
			cols = make([]column, chunkTestWidth)
		}

		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		wrote, err := writeChunk(w, cols, rows)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if wrote != buf.Len() {
			t.Fatalf("writeChunk reported %d bytes, wrote %d", wrote, buf.Len())
		}

		r := bufio.NewReader(bytes.NewReader(buf.Bytes()))
		got := make([]column, chunkTestWidth)
		read, err := readChunk(r, got)
		if err != nil {
			t.Fatal(err)
		}
		if read != rows {
			t.Fatalf("readChunk returned %d rows, want %d", read, rows)
		}
		if _, err := r.ReadByte(); err != io.EOF {
			t.Fatalf("bytes left after the chunk (err %v)", err)
		}
		for k, row := range want {
			for c, v := range row {
				if g := got[c].valueAt(k); !sameBits(g, v) {
					t.Fatalf("row %d col %d = %v (bits %x), want %v (bits %x)",
						k, c, g, math.Float64bits(g.F), v, math.Float64bits(v.F))
				}
			}
		}
		for c := range got {
			if got[c].kind != cols[c].kind {
				t.Fatalf("column %d came back as %v, was %v", c, got[c].kind, cols[c].kind)
			}
		}
		// Columns 3, 8, 9 and 10 are REAL and never NULL.
		for _, c := range []int{3, 8, 9, 10} {
			if rows > 0 && got[c].kind != colFloat {
				t.Fatalf("REAL column %d came back as %v, want float64", c, got[c].kind)
			}
		}
	})
}

// TestSpillMultiChunkScanInOrder spills a ColStore under a small budget
// into many chunks — including chunks appended after a Freeze/Thaw —
// and scans it back: every row in append order, bit for bit, through
// both the batch scan and the row cursor.
func TestSpillMultiChunkScanInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	env := testEnv(t, 4<<10)
	cs := env.newStore()
	var want []Row
	appendRows := func(n int) {
		for k := 0; k < n; k++ {
			row := chunkTestRow(rng)
			want = append(want, row)
			if err := cs.Append(cloneRow(row)); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendRows(3000)
	if err := cs.Freeze(); err != nil {
		t.Fatal(err)
	}
	cs.Thaw()
	appendRows(1000)
	if err := cs.Freeze(); err != nil {
		t.Fatal(err)
	}
	if cs.Len() != int64(len(want)) || cs.fileRows != int64(len(want)) {
		t.Fatalf("store holds %d rows, %d on disk, want all %d on disk", cs.Len(), cs.fileRows, len(want))
	}

	// The file is a plain sequence of chunks.
	info, err := cs.file.Stat()
	if err != nil {
		t.Fatal(err)
	}
	r := newSpillReader(cs.file, info.Size())
	chunks, onDisk := 0, 0
	cols := make([]column, chunkTestWidth)
	for onDisk < len(want) {
		n, err := readChunk(r, cols)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunks, err)
		}
		chunks++
		onDisk += n
	}
	if _, err := r.ReadByte(); err != io.EOF {
		t.Fatalf("bytes left after %d chunks (err %v)", chunks, err)
	}
	if chunks < 4 || onDisk != len(want) {
		t.Fatalf("%d chunks holding %d rows, want several chunks holding %d", chunks, onDisk, len(want))
	}
	sc, err := cs.batchScan()
	if err != nil {
		t.Fatal(err)
	}
	k := 0
	for {
		b, err := sc.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		for _, pos := range b.selection() {
			for c := range want[k] {
				if g := b.cols[c][pos]; !sameBits(g, want[k][c]) {
					t.Fatalf("scan row %d col %d = %v, want %v", k, c, g, want[k][c])
				}
			}
			k++
		}
	}
	if k != len(want) {
		t.Fatalf("scan returned %d rows, want %d", k, len(want))
	}
	for k, row := range collectRows(t, cs) {
		for c := range row {
			if !sameBits(row[c], want[k][c]) {
				t.Fatalf("cursor row %d col %d = %v, want %v", k, c, row[c], want[k][c])
			}
		}
	}
	cs.Release()
	if used := env.budget.used.Load(); used != 0 {
		t.Fatalf("leaked %d bytes", used)
	}
}

// TestSpillV2CorruptColumnRuns: the spill chunk's column-run decoder
// rejects unknown kind tags — the retired sparse tag among them — and
// truncated payloads instead of mis-decoding them. A word cut short by
// the end of the stream fails with io.ErrUnexpectedEOF.
func TestSpillV2CorruptColumnRuns(t *testing.T) {
	cases := []struct {
		name    string
		data    []byte
		want    string
		wantErr error
	}{
		{"unknown kind tag", []byte{99}, "column kind", nil},
		// Tag 6 once named a sparse float run (nonzero count, then
		// position deltas and words); no writer emits it any more.
		{"retired sparse tag", []byte{6, 0, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0}, "column kind", nil},
		{"truncated payload", []byte{byte(colInt), 0, 1, 2}, "", io.ErrUnexpectedEOF},
		{"truncated float word", []byte{byte(colFloat), 0, 1, 2, 3, 4, 5, 6, 7}, "", io.ErrUnexpectedEOF},
		{"truncated generic float", []byte{byte(colGeneric), encFloat, 1, 2, 3}, "", io.ErrUnexpectedEOF},
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
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("error = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// TestSpillScanAllocsFlat reads back a spilled multi-chunk store of
// (INTEGER, REAL, REAL) rows: the allocations of a full scan must not
// grow with the row count, so no word read from a chunk allocates.
func TestSpillScanAllocsFlat(t *testing.T) {
	scanAllocs := func(rows int) float64 {
		env := testEnv(t, 16<<10)
		cs := env.newStore()
		t.Cleanup(cs.Release)
		for k := 0; k < rows; k++ {
			row := Row{NewInt(int64(k)), NewFloat(float64(k) / 7), NewFloat(0)}
			if err := cs.Append(row); err != nil {
				t.Fatal(err)
			}
		}
		if err := cs.Freeze(); err != nil {
			t.Fatal(err)
		}
		if !cs.Spilled() || cs.rows != 0 {
			t.Fatalf("%d rows: store not wholly spilled (%d on disk)", rows, cs.fileRows)
		}
		scanned := 0
		allocs := testing.AllocsPerRun(5, func() {
			sc, err := cs.batchScan()
			if err != nil {
				t.Fatal(err)
			}
			scanned = 0
			for {
				b, err := sc.NextBatch()
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					break
				}
				scanned += b.rows()
			}
		})
		if scanned != rows {
			t.Fatalf("scan read %d rows, want %d", scanned, rows)
		}
		t.Logf("%d rows: %v allocs per scan", rows, allocs)
		return allocs
	}
	small := scanAllocs(4096)
	large := scanAllocs(8 * 4096)
	if large > small+8 {
		t.Fatalf("scan allocations grow with rows: %v for 4096 rows, %v for 32768", small, large)
	}
}
