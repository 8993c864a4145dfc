package sqlengine

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// A fused chain run recycles one accumulator and two stage buffers
// across all its stages (runChainKernel). These tests pin the two
// things recycling can break: bit identity when a stage's accumulator
// changes shape from the previous stage's (the dense key range grows,
// dense turns hashed, a pruning HAVING shrinks the rows), and the
// allocation profile itself — per-stage cost must not scale with the
// state.

// chainGateStage renders one translated single-qubit gate stage on
// qubit q reading src through gate table g, optionally with the
// pruning HAVING.
func chainGateStage(src, g string, q int, having bool) string {
	out := fmt.Sprintf("%s.out_s", g)
	in := fmt.Sprintf("(%s.s & 1)", src)
	if q > 0 {
		out = fmt.Sprintf("(%s.out_s << %d)", g, q)
		in = fmt.Sprintf("((%s.s >> %d) & 1)", src, q)
	}
	key := fmt.Sprintf("((%[1]s.s & ~%[2]d) | %[3]s)", src, int64(1)<<q, out)
	re := fmt.Sprintf("SUM((%[1]s.r * %[2]s.r) - (%[1]s.i * %[2]s.i))", src, g)
	im := fmt.Sprintf("SUM((%[1]s.r * %[2]s.i) + (%[1]s.i * %[2]s.r))", src, g)
	q1 := fmt.Sprintf("SELECT %s AS s,\n       %s AS r,\n       %s AS i\nFROM %s JOIN %s ON %s.in_s = %s\nGROUP BY %s",
		key, re, im, src, g, g, in, key)
	if having {
		q1 += fmt.Sprintf("\nHAVING ((%[1]s * %[1]s) + (%[2]s * %[2]s)) > 0.0001", re, im)
	}
	return q1
}

// chainGateQuery chains one stage per entry of qubits over table t0
// (gate table per stage from gates, HAVING where having[k]).
func chainGateQuery(qubits []int, gates []string, having []bool) string {
	var b strings.Builder
	b.WriteString("WITH ")
	src := "t0"
	for k, q := range qubits {
		if k > 0 {
			b.WriteString(",\n")
		}
		fmt.Fprintf(&b, "c%d AS (\n%s\n)", k+1, chainGateStage(src, gates[k], q, having[k]))
		src = fmt.Sprintf("c%d", k+1)
	}
	fmt.Fprintf(&b, "\nSELECT s, r, i FROM %s", src)
	return b.String()
}

// setupPairedState loads t0 with n rows whose amplitudes are equal
// across each (s, s^1) pair — so an exact Hadamard on qubit 0 yields
// exact zeros on the odd half — plus the generic gate table h and the
// exact Hadamard hd.
func setupPairedState(t *testing.T, db *DB, n int) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE t0 (s INTEGER, r REAL, i REAL)")
	mustExec(t, db, "CREATE TABLE h (in_s INTEGER, out_s INTEGER, r REAL, i REAL)")
	mustExec(t, db, "INSERT INTO h VALUES (0,0,0.7071067811865476,0.1),(0,1,0.7071067811865476,0.0),(1,0,0.7071067811865476,-0.2),(1,1,-0.7071067811865476,0.0)")
	mustExec(t, db, "CREATE TABLE hd (in_s INTEGER, out_s INTEGER, r REAL, i REAL)")
	mustExec(t, db, "INSERT INTO hd VALUES (0,0,0.7071067811865476,0.0),(0,1,0.7071067811865476,0.0),(1,0,0.7071067811865476,0.0),(1,1,-0.7071067811865476,0.0)")
	var vals []string
	for s := 0; s < n; s++ {
		p := s >> 1
		vals = append(vals, fmt.Sprintf("(%d, %v, %v)", s, 1.0/float64(p+3), float64(p%7-3)*0.1251))
		if len(vals) == 512 || s == n-1 {
			mustExec(t, db, "INSERT INTO t0 VALUES "+strings.Join(vals, ","))
			vals = vals[:0]
		}
	}
}

// TestChainRecyclingBitIdentity runs a chain whose stages stress every
// accumulator transition a recycled kAcc must handle, fused and
// stage-at-a-time, and requires identical bits and row order.
func TestChainRecyclingBitIdentity(t *testing.T) {
	// Stage 3 is an exact Hadamard on qubit 0 under HAVING: it prunes
	// the odd half and the smallest amplitudes (64 rows become 27,
	// 16384 become 6729). With 64 rows, stage 4 (qubit 12) grows the
	// dense key range from 2^6 to 2^13, stage 6 (qubit 16) spreads too
	// few rows over too wide a range and turns hashed, and stage 7
	// (qubit 23) pushes keys past denseCap. With 16384 rows the states
	// span several cancellation strides (cancelPollRows).
	qubits := []int{1, 3, 0, 12, 2, 16, 23, 1, 0, 4}
	gates := []string{"h", "h", "hd", "h", "h", "h", "h", "h", "h", "h"}
	having := []bool{false, false, true, false, false, false, false, false, false, false}
	q := chainGateQuery(qubits, gates, having)
	// Output rows of the whole chain, pinned so a pruning mistake shows.
	wantRows := map[int]int{64: 512, 16384: 65536}
	for _, n := range []int{64, 16384} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			// Stage-at-a-time reference: one CREATE TABLE AS per stage.
			ref := newOptDB(t, Config{})
			setupPairedState(t, ref, n)
			src := "t0"
			for k, qubit := range qubits {
				dst := fmt.Sprintf("c%d", k+1)
				mustExec(t, ref, "CREATE TABLE "+dst+" AS "+chainGateStage(src, gates[k], qubit, having[k]))
				src = dst
			}
			unfused := rowsBits(queryAll(t, ref, "SELECT s, r, i FROM "+src))

			db := newOptDB(t, Config{})
			setupPairedState(t, db, n)
			rows := queryAll(t, db, q)
			if kc := db.KernelCounters(); kc["chain_stages"] != int64(len(qubits)) {
				t.Fatalf("chain_stages = %d, want %d (counters: %v)", kc["chain_stages"], len(qubits), kc)
			}
			if want := wantRows[n]; len(rows) != want {
				t.Fatalf("fused chain produced %d rows, want %d", len(rows), want)
			}
			if rowsBits(rows) != unfused {
				t.Fatal("recycled chain is not bit-identical to stage-at-a-time execution")
			}
		})
	}
}

// chainRunBytes binds a fused chain of the given stage count over a
// 4096-row state and returns the bytes one runChainKernel call
// allocates — execution only: parsing, planning, compiling and binding
// happen before the measurement.
func chainRunBytes(t *testing.T, stages int) (uint64, int) {
	t.Helper()
	db := newOptDB(t, Config{})
	setupGateStage(t, db, 4096)
	qubits := make([]int, stages)
	gates := make([]string, stages)
	having := make([]bool, stages)
	for k := range qubits {
		qubits[k], gates[k] = k%12, "h"
	}
	stmt, _, err := ParseStatement(chainGateQuery(qubits, gates, having))
	if err != nil {
		t.Fatal(err)
	}
	ctx := db.newExecCtx(context.Background(), nil)
	root, _, _, err := db.buildPlan(ctx, stmt.(*SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	// The last CTE inlines into the final SELECT, whose core tops the
	// chain.
	plan, reason := compileChain(db.env, root, false)
	if plan == nil {
		t.Fatalf("chain did not compile: %s", reason)
	}
	if len(plan.stages) != stages {
		t.Fatalf("chain compiled %d stages, want %d", len(plan.stages), stages)
	}
	bound0, reason := bindChain(plan)
	if bound0 == nil {
		t.Fatalf("chain did not bind: %s", reason)
	}
	run := func() {
		_, store, err := runChainKernel(ctx, plan, bound0)
		if err != nil {
			t.Fatal(err)
		}
		store.Release()
	}
	run() // warm-up: lazily built state outside the run itself
	const runs = 5
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for r := 0; r < runs; r++ {
		run()
	}
	runtime.ReadMemStats(&m1)
	return (m1.TotalAlloc - m0.TotalAlloc) / runs, len(plan.stages)
}

// TestChainRecyclingAllocationGuard: over the same state, doubling the
// chain length must not double what the chain run allocates — stage
// buffers and the accumulator are reused, so a stage costs only its
// small bind record.
func TestChainRecyclingAllocationGuard(t *testing.T) {
	short, ns := chainRunBytes(t, 12)
	long, nl := chainRunBytes(t, 24)
	t.Logf("%d-stage chain: %d B/run; %d-stage chain: %d B/run (ratio %.2f)", ns, short, nl, long, float64(long)/float64(short))
	if float64(long) >= 1.2*float64(short) {
		t.Fatalf("%d-stage chain allocates %d B, %.2f× the %d-stage chain's %d B (want < 1.2×)",
			nl, long, float64(long)/float64(short), ns, short)
	}
}
