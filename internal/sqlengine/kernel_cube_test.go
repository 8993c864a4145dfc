package sqlengine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"qymera/internal/circuits"
	"qymera/internal/core"
	"qymera/internal/quantum"
)

// The cube (kernel_cube.go) runs a key-ordered chain's last stages over
// a key-indexed state vector. Its contract is the kernel tier's: the
// amplitudes under ORDER BY s are bit-identical to the interpreter's.

// cubeProgram translates c in single-query mode with pruning threshold
// eps (0: no HAVING).
func cubeProgram(t *testing.T, c *quantum.Circuit, eps float64) cachedProgram {
	t.Helper()
	tr, err := core.Translate(c, nil, core.Options{Mode: core.SingleQuery, PruneEps: eps})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(strings.TrimRight(tr.Query, "; \n"), "ORDER BY s") {
		t.Fatalf("translated query does not end in ORDER BY s:\n%s", tr.Query)
	}
	return cachedProgram{name: c.Name(), stmts: tr.FusedStatements(), query: tr.Query}
}

// cubeRun runs q on db and returns the amplitude digest and the number
// of stages the run took over the cube (db's cube_stages counter).
func cubeRun(t *testing.T, db *DB, q string) (string, int64) {
	t.Helper()
	before := db.KernelCounters()["cube_stages"]
	digest := rowsBits(queryAll(t, db, q))
	return digest, db.KernelCounters()["cube_stages"] - before
}

// TestCubeChainBitIdentical: translated circuits under ORDER BY s give
// the same amplitude bits with the kernel tier (cube suffix included)
// as on the interpreter, and cube_stages counts the stages that ran
// over the cube: every stage above the bottom one on QFT-12, HEA(10,4)
// and H^⊗12; one on GHZ-10 (the first CX enters the cube and leaves it
// with {0, 3}); none on W-12, whose states are never a full sub-cube;
// none without a pruning HAVING, none when the top stage's gate has
// fan-in 4, and none over a sparse state whose keys span a wide range.
func TestCubeChainBitIdentical(t *testing.T) {
	hea := func(seed int64) *quantum.Circuit {
		rng := rand.New(rand.NewSource(seed))
		theta := make([]float64, 4*10*2)
		for i := range theta {
			theta[i] = rng.Float64()*2*math.Pi - math.Pi
		}
		return circuits.HardwareEfficientAnsatz(10, 4, theta)
	}
	// H·H on qubit 1 prunes the state back to a smaller cube; CX(0,3)
	// then leaves {0, 9}, not a full sub-cube, so the last two stages
	// run bucketed over keys handed on in key order.
	pruning := quantum.NewCircuit(4).H(0).H(1).H(1).CX(0, 3).H(2).H(2)
	// H on qubit 21 alone: two keys, 0 and 2^21, a full sub-cube whose
	// key range is far past 8× its rows.
	wide := quantum.NewCircuit(22).H(21).T(21).H(21)
	for _, tc := range []struct {
		name string
		c    *quantum.Circuit
		eps  float64
		cube int64 // want cube_stages
	}{
		{"qft12", circuits.QFT(12), 1e-12, 83},
		{"hea10x4/seed=1", hea(1), 1e-12, 115},
		{"hea10x4/seed=2", hea(2), 1e-12, 115},
		{"hea10x4/seed=3", hea(3), 1e-12, 115},
		{"w12", circuits.WState(12), 1e-12, 0},
		{"h12", circuits.EqualSuperposition(12), 1e-12, 11},
		{"ghz10", circuits.GHZ(10), 1e-12, 1},
		{"randany10x60", circuits.RandomAnyGate(10, 60, 7), 1e-12, 14},
		{"randdense9x4", circuits.RandomDense(9, 4, 7), 1e-12, 54},
		{"pruning", pruning, 1e-12, 3},
		{"wide-sparse", wide, 1e-12, 0},
		{"no-having", circuits.QFT(12), 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := cubeProgram(t, tc.c, tc.eps)
			want, _ := cubeRun(t, openProgram(t, p, Config{}, false), p.query)
			got, cube := cubeRun(t, openProgram(t, p, Config{}, true), p.query)
			if got != want {
				t.Fatal("amplitudes with the cube differ from the interpreter")
			}
			if cube != tc.cube {
				t.Fatalf("cube_stages = %d, want %d", cube, tc.cube)
			}
		})
	}
	// A fan-in-4 gate on top (H⊗H as one 2-qubit table: every output
	// sums four rows) ends the suffix before it starts: no stage runs
	// over the cube, and the result still matches.
	t.Run("fan-in-4-last", func(t *testing.T) {
		var digests [2]string
		for i, kernels := range []bool{false, true} {
			db := withKernels(newOptDB(t, Config{}), kernels)
			setupFanIn4(t, db)
			var cube int64
			digests[i], cube = cubeRun(t, db, fanIn4Query)
			if cube != 0 {
				t.Fatalf("kernels=%v: cube_stages = %d, want 0", kernels, cube)
			}
			if kernels && db.KernelCounters()["chain_stages"] != 3 {
				t.Fatalf("the 3-stage chain did not run as one (counters: %v)", db.KernelCounters())
			}
		}
		if digests[0] != digests[1] {
			t.Fatal("amplitudes with kernels differ from the interpreter")
		}
	})
}

// setupFanIn4 loads |0> on two qubits, a Hadamard table h and the
// 16-row H⊗H table hh.
func setupFanIn4(t *testing.T, db *DB) {
	t.Helper()
	const a = 0.7071067811865476
	mustExec(t, db, "CREATE TABLE t0 (s INTEGER, r REAL, i REAL)")
	mustExec(t, db, "INSERT INTO t0 VALUES (0, 1.0, 0.0)")
	mustExec(t, db, "CREATE TABLE h (in_s INTEGER, out_s INTEGER, r REAL, i REAL)")
	mustExec(t, db, fmt.Sprintf("INSERT INTO h VALUES (0,0,%[1]v,0.0),(0,1,%[1]v,0.0),(1,0,%[1]v,0.0),(1,1,-%[1]v,0.0)", a))
	mustExec(t, db, "CREATE TABLE hh (in_s INTEGER, out_s INTEGER, r REAL, i REAL)")
	var rows []string
	for in := 0; in < 4; in++ {
		for out := 0; out < 4; out++ {
			r := 0.5
			if (in&out&1)^(in&out>>1&1) == 1 {
				r = -0.5
			}
			rows = append(rows, fmt.Sprintf("(%d,%d,%v,0.1)", in, out, r))
		}
	}
	mustExec(t, db, "INSERT INTO hh VALUES "+strings.Join(rows, ","))
}

// cubeStageSQL renders one pruned gate stage reading src: gate table g
// acting on width qubits from qubit shift up.
func cubeStageSQL(src, g string, shift, width int) string {
	mask := (1<<width - 1) << shift
	key := fmt.Sprintf("((%[1]s.s & ~%[2]d) | (%[3]s.out_s << %[4]d))", src, mask, g, shift)
	re := fmt.Sprintf("SUM((%[1]s.r * %[2]s.r) - (%[1]s.i * %[2]s.i))", src, g)
	im := fmt.Sprintf("SUM((%[1]s.r * %[2]s.i) + (%[1]s.i * %[2]s.r))", src, g)
	return fmt.Sprintf(`SELECT %[1]s AS s, %[2]s AS r, %[3]s AS i
FROM %[4]s JOIN %[5]s ON %[5]s.in_s = ((%[4]s.s >> %[6]d) & %[7]d)
GROUP BY %[1]s
HAVING ((%[2]s * %[2]s) + (%[3]s * %[3]s)) > 1e-24`, key, re, im, src, g, shift, 1<<width-1)
}

// fanIn4Query is H on qubit 0, H on qubit 1, then H⊗H on both, under
// ORDER BY s.
var fanIn4Query = "WITH c1 AS (" + cubeStageSQL("t0", "h", 0, 1) + "),\nc2 AS (" +
	cubeStageSQL("c1", "h", 1, 1) + "),\nc3 AS (" + cubeStageSQL("c2", "hh", 0, 2) +
	")\nSELECT s, r, i FROM c3 ORDER BY s"
