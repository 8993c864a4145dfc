package sqlengine

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
)

// Round-trip tests for the spill chunk frame (colstore.go): every value
// written by writeChunk must come back from readChunk with its type and
// exact bits, in order.

// chunkTestWidth is the column count of chunkTestRow.
const chunkTestWidth = 8

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
// INTEGER, REAL, mostly-zero REAL (the sparse form), all-zero REAL,
// TEXT and BOOL columns with NULLs, a mixed-type column (the generic
// form) and an all-NULL column.
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
	for _, c := range []int{0, 1, 2, 4, 5, 6} {
		if rng.Intn(10) == 0 {
			row[c] = Null
		}
	}
	return row
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
// survive, the writer must report the bytes it wrote, and the all-zero
// REAL column must travel in the sparse form. Stores of at least
// encodeMinRows rows sparse-encode their columns in memory before the
// write; smaller ones reach writeChunk as plain vectors.
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
		cs.stats = &tableStats{}
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
		wrote, err := writeChunk(w, cols, rows, env.storageCtrs)
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
		if rows > 0 && got[3].kind != colFloatSparse {
			t.Fatalf("all-zero REAL column came back as %v, want float64/sparse", got[3].kind)
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
	cs.stats = &tableStats{}
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
	encodedBefore := StorageCounters()["encoded_chunk_cols"]
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
	// The all-zero REAL column went to disk in the sparse form.
	if d := StorageCounters()["encoded_chunk_cols"] - encodedBefore; d < int64(chunks) {
		t.Fatalf("encoded_chunk_cols delta = %d, want >= %d (one per chunk)", d, chunks)
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
