package sqlengine

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"qymera/internal/core"
	"qymera/internal/quantum"
)

// The fused gate loop evaluates the probe key as a bit-mask index
// program (kIdxProg) and the group key as (s & keep) | outBits. These
// tests hold both to the closures compileKernelInt builds, which mirror
// value.go's INTEGER semantics.

// indexSamples is n seeded state indexes: small non-negative ones (the
// translated domain), full-range ones of either sign, and the extremes.
func indexSamples(n int) []int64 {
	rng := rand.New(rand.NewSource(29))
	out := []int64{0, 1, -1, 2, -2, math.MaxInt64, math.MinInt64, 1 << 62, -1 << 62}
	for len(out) < n {
		switch len(out) % 3 {
		case 0:
			out = append(out, rng.Int63n(1<<12))
		case 1:
			out = append(out, rng.Int63())
		default:
			out = append(out, -rng.Int63())
		}
	}
	return out
}

// stageKeys translates a one-gate circuit and returns its stage's
// probe-key and group-key expressions with the join schema they
// resolve against (state columns first).
func stageKeys(t *testing.T, c *quantum.Circuit, enc core.Encoding) (probe, group Expr, schema planSchema) {
	t.Helper()
	tr, err := core.Translate(c, nil, core.Options{Encoding: enc})
	if err != nil {
		t.Fatal(err)
	}
	stmt, _, err := ParseStatement(tr.Steps[0].Body)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*SelectStmt)
	state := sel.From.(*TableName).Name
	gate := sel.Joins[0].Table.(*TableName).Name
	schema = planSchema{{state, "s"}, {state, "r"}, {state, "i"}, {gate, "in_s"}, {gate, "out_s"}, {gate, "r"}, {gate, "i"}}
	on := sel.Joins[0].On.(*BinaryExpr)
	probe = on.R
	if ref, ok := on.R.(*ColumnRef); ok && ref.Name == "in_s" {
		probe = on.L
	}
	return probe, sel.GroupBy[0], schema
}

// isStateIndex accepts references to the join schema's state index.
func isStateIndex(schema planSchema) func(*ColumnRef) bool {
	return func(c *ColumnRef) bool {
		idx, err := schema.resolveColumn(c.Table, c.Name)
		return err == nil && idx == 0
	}
}

// gateOn builds a one-gate circuit on the given qubits of n.
func gateOn(n int, qubits []int) *quantum.Circuit {
	c := quantum.NewCircuit(n)
	switch len(qubits) {
	case 1:
		c.H(qubits[0])
	case 2:
		c.CX(qubits[0], qubits[1])
	default:
		c.CCX(qubits[0], qubits[1], qubits[2])
	}
	return c
}

// qubitTuples lists every ordered tuple of k distinct qubits of n.
func qubitTuples(n, k int) [][]int {
	var out [][]int
	var rec func(cur []int)
	rec = func(cur []int) {
		if len(cur) == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for q := 0; q < n; q++ {
			used := false
			for _, u := range cur {
				used = used || u == q
			}
			if !used {
				rec(append(cur, q))
			}
		}
	}
	rec(nil)
	return out
}

// TestKernelIndexProgramsMatchClosures: for every qubit tuple of size
// 1-3 on 12 qubits, the bitwise encoding's probe key compiles to an
// index program and its group key to the (s & keep) | f(out) form, and
// both agree with the closures on 10k seeded indexes, negatives
// included. The arithmetic encoding keeps the closures.
func TestKernelIndexProgramsMatchClosures(t *testing.T) {
	const n = 12
	samples := indexSamples(10000)
	for k := 1; k <= 3; k++ {
		for _, qubits := range qubitTuples(n, k) {
			probe, group, schema := stageKeys(t, gateOn(n, qubits), core.EncodingBitwise)
			inFn, err := compileKernelInt(probe, &kColBinder{schema: schema, nLeft: 3, sCol: -1, gCol: -1, leftOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			outFn, err := compileKernelInt(group, &kColBinder{schema: schema, nLeft: 3, sCol: 0, gCol: -1})
			if err != nil {
				t.Fatal(err)
			}
			in := compileIdxProg(probe, isStateIndex(schema))
			gOutFn, keep := denseGateSpec(group, schema, 3, 0)
			if in == nil || gOutFn == nil {
				t.Fatalf("qubits %v: probe %s or group key %s kept the closure", qubits, probe.Deparse(), group.Deparse())
			}
			if len(in.terms) > k {
				t.Fatalf("qubits %v: %d terms for a %d-qubit gather", qubits, len(in.terms), k)
			}
			for i, s := range samples {
				if got, want := in.eval(s), inFn(s, 0); got != want {
					t.Fatalf("qubits %v: probe %s at s=%d: program %d, closure %d", qubits, probe.Deparse(), s, got, want)
				}
				out := int64(i) & (1<<k - 1)
				if got, want := s&keep|gOutFn(0, out), outFn(s, out); got != want {
					t.Fatalf("qubits %v: group key %s at s=%d out=%d: %d, closure %d", qubits, group.Deparse(), s, out, got, want)
				}
			}
		}
	}
	for _, qubits := range [][]int{{0}, {5}, {1, 2}, {7, 3}, {0, 4, 9}} {
		probe, group, schema := stageKeys(t, gateOn(n, qubits), core.EncodingArithmetic)
		if compileIdxProg(probe, isStateIndex(schema)) != nil {
			t.Fatalf("arithmetic probe %s compiled to an index program", probe.Deparse())
		}
		if fn, _ := denseGateSpec(group, schema, 3, 0); fn != nil {
			t.Fatalf("arithmetic group key %s matched the mask-merge form", group.Deparse())
		}
	}
}

// fuzzIndexExpr decodes bytes into an expression tree over the state
// index s, integer literals, &, |, >>, << and ~ — the index program
// grammar plus the shapes it must reject.
type fuzzIndexExpr struct{ b []byte }

func (g *fuzzIndexExpr) next() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

// literal is a small literal from one byte, or a full-width one from
// the next eight when the flag byte is odd.
func (g *fuzzIndexExpr) literal() Expr {
	if g.next()&1 == 0 {
		return &Literal{Val: NewInt(int64(int8(g.next())))}
	}
	var v int64
	for range 8 {
		v = v<<8 | int64(g.next())
	}
	return &Literal{Val: NewInt(v)}
}

func (g *fuzzIndexExpr) expr(depth int) Expr {
	op := g.next() % 8
	if depth >= 6 {
		op %= 2
	}
	switch op {
	case 0:
		return &ColumnRef{Table: "t", Name: "s"}
	case 1:
		return g.literal()
	case 2:
		return &BinaryExpr{Op: "&", L: g.expr(depth + 1), R: g.expr(depth + 1)}
	case 3:
		return &BinaryExpr{Op: "|", L: g.expr(depth + 1), R: g.expr(depth + 1)}
	case 4, 5:
		ops := [2]string{">>", "<<"}
		l := g.expr(depth + 1)
		// Mostly literal shift amounts around [0, 63]; sometimes any
		// subtree.
		var amt Expr = &Literal{Val: NewInt(int64(g.next()%72) - 4)}
		if g.next()%4 == 0 {
			amt = g.expr(depth + 1)
		}
		return &BinaryExpr{Op: ops[op-4], L: l, R: amt}
	case 6:
		return &UnaryExpr{Op: "~", X: g.expr(depth + 1)}
	}
	return &BinaryExpr{Op: "&", L: &ColumnRef{Table: "t", Name: "s"}, R: g.literal()}
}

// FuzzKernelIndexTerms: whenever compileIdxProg accepts a tree, the
// index program computes exactly what the closure does.
func FuzzKernelIndexTerms(f *testing.F) {
	f.Add([]byte{2, 0, 1, 0, 3}, int64(5))                                             // s & 3
	f.Add([]byte{2, 4, 0, 9, 1, 1, 0, 1}, int64(-7))                                   // (s >> 5) & 1
	f.Add([]byte{3, 2, 0, 1, 0, 1, 5, 2, 4, 0, 6, 1, 1, 0, 1, 5, 1}, int64(9))         // (s & 1) | (((s >> 2) & 1) << 1)
	f.Add([]byte{4, 5, 0, 66, 1, 70, 1}, int64(math.MinInt64))                         // (s << 62) >> 66
	f.Add([]byte{6, 2, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 255}, int64(-1))                  // ~(s & 255)
	f.Add([]byte{4, 5, 2, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 255, 7, 1, 5, 1}, int64(-300)) // ((s & 255) << 3) >> 1
	schema := planSchema{{"t", "s"}}
	f.Fuzz(func(t *testing.T, prog []byte, s int64) {
		g := &fuzzIndexExpr{b: prog}
		e := g.expr(0)
		p := compileIdxProg(e, isStateIndex(schema))
		if p == nil {
			return
		}
		fn, err := compileKernelInt(e, &kColBinder{schema: schema, nLeft: 1, sCol: -1, gCol: -1, leftOnly: true})
		if err != nil {
			t.Fatalf("%s: program compiled but the closure did not: %v", e.Deparse(), err)
		}
		for _, x := range append(indexSamples(64), s) {
			if got, want := p.eval(x), fn(x, 0); got != want {
				t.Fatalf("%s at s=%d: program %d, closure %d", e.Deparse(), x, got, want)
			}
		}
	})
}

// TestKernelBucketLayouts: the flat bucket table (build keys in
// [0, flatBuckets), with gaps and a multi-row bucket) and the map
// fallback (a key past the flat range, a negative key) both reproduce
// the interpreted join bit for bit, in row order.
func TestKernelBucketLayouts(t *testing.T) {
	for _, tc := range []struct {
		name, gate, probe string
	}{
		{"flat", "(0,0,0.5,0.1),(3,1,0.25,0.0),(0,1,-0.75,0.2)", "(t0.s & 3)"},
		{"hashed", "(2000,0,0.5,0.1),(2000,1,0.25,0.0),(3001,1,-0.75,0.2),(-1,0,1.0,0.0)", "t0.s"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := `SELECT ((t0.s & ~1) | g.out_s) AS s,
       SUM((t0.r * g.r) - (t0.i * g.i)) AS r,
       SUM((t0.r * g.i) + (t0.i * g.r)) AS i
FROM t0 JOIN g ON g.in_s = ` + tc.probe + `
GROUP BY ((t0.s & ~1) | g.out_s)`
			var digests [2]string
			for i, kernels := range []bool{false, true} {
				db := withKernels(newOptDB(t, Config{}), kernels)
				mustExec(t, db, "CREATE TABLE t0 (s INTEGER, r REAL, i REAL)")
				mustExec(t, db, "INSERT INTO t0 VALUES "+strings.Join(kernelStateRows(4096), ","))
				mustExec(t, db, "CREATE TABLE g (in_s INTEGER, out_s INTEGER, r REAL, i REAL)")
				mustExec(t, db, "INSERT INTO g VALUES "+tc.gate)
				before := db.KernelCounters()["executions"]
				rows := queryAll(t, db, q)
				if ran := db.KernelCounters()["executions"] - before; kernels && ran != 1 {
					t.Fatalf("kernel executions = %d, want 1", ran)
				}
				if len(rows) == 0 {
					t.Fatal("no rows")
				}
				digests[i] = rowsBits(rows)
			}
			if digests[0] != digests[1] {
				t.Fatal("kernel rows differ from the interpreted join")
			}
		})
	}
}
