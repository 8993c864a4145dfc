package core

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qymera/internal/circuits"
	"qymera/internal/quantum"
)

var updateGoldenSQL = flag.Bool("update", false, "rewrite golden SQL-text snapshots")

// goldenSQLCircuits is the pinned circuit set of TestGoldenSQL: the
// paper's families, a parameterized circuit whose distinct angles become
// RZ_1, RZ_2, ... tables, a custom initial state, and non-contiguous
// qubit tuples that take the general gather/scatter forms.
func goldenSQLCircuits() []struct {
	name    string
	circuit *quantum.Circuit
	initial *quantum.State
} {
	hea := circuits.HardwareEfficientAnsatz(3, 1, []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6})

	custom := quantum.NewState(3)
	custom.Set(1, complex(0.6, 0))
	custom.Set(6, complex(0, -0.8))
	customCircuit := quantum.NewCircuit(3).H(0).CX(0, 1).RZ(2, 0.75)

	noncontig := quantum.NewCircuit(3).H(0).H(2).CX(0, 2).CCX(2, 0, 1)

	return []struct {
		name    string
		circuit *quantum.Circuit
		initial *quantum.State
	}{
		{"qft4", circuits.QFT(4), nil},
		{"ghz5", circuits.GHZ(5), nil},
		{"w4", circuits.WState(4), nil},
		{"hea3x1", hea, nil},
		{"custom_initial", customCircuit, custom},
		{"noncontiguous", noncontig, nil},
	}
}

// renderGoldenSQL renders the text products of one translation that
// follow its setup: Script() and FusedStatements() past the setup
// statements. Script() ends with the final Query, which pins it too. The
// setup depends only on the circuit, so the caller pins it once per file.
func renderGoldenSQL(t *testing.T, tr *Translation, setup string) string {
	t.Helper()
	script := tr.Script()
	if !strings.HasPrefix(script, setup) || !strings.HasSuffix(script, tr.Query+";\n") {
		t.Fatalf("Script() does not start with the setup and end with the query:\n%s", script)
	}
	fused := tr.FusedStatements()
	if len(fused) < len(tr.Setup) || strings.Join(fused[:len(tr.Setup)], ";\n")+";\n" != setup {
		t.Fatalf("FusedStatements() does not start with the setup:\n%v", fused)
	}
	var b strings.Builder
	b.WriteString("-- Script (after setup; ends with Query)\n")
	b.WriteString(script[len(setup):])
	b.WriteString("-- FusedStatements (after setup)\n")
	for _, s := range fused[len(tr.Setup):] {
		b.WriteString(s)
		b.WriteString(";\n")
	}
	return b.String()
}

// TestGoldenSQL is the SQL-text regression gate: the translation of a
// fixed circuit set, in both modes, with pruning on and off and under
// both index encodings, is pinned under testdata/sql/, one file per
// circuit. The statement cache and the plan cache key on the exact
// text, so any byte that moves is a behaviour change. Regenerate
// intentionally with:
//
//	go test ./internal/core -run TestGoldenSQL -update
func TestGoldenSQL(t *testing.T) {
	dir := filepath.Join("testdata", "sql")
	if *updateGoldenSQL {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range goldenSQLCircuits() {
		t.Run(tc.name, func(t *testing.T) {
			var b strings.Builder
			setup := ""
			for _, mode := range []Mode{SingleQuery, MaterializedChain} {
				for _, eps := range []float64{0, 1e-6} {
					for _, enc := range []Encoding{EncodingBitwise, EncodingArithmetic} {
						tr, err := Translate(tc.circuit, tc.initial, Options{Mode: mode, Encoding: enc, PruneEps: eps})
						if err != nil {
							t.Fatal(err)
						}
						if setup == "" {
							setup = tr.SetupScript()
							b.WriteString("-- Setup\n")
							b.WriteString(setup)
						}
						prune := "off"
						if eps > 0 {
							prune = "1e-6"
						}
						b.WriteString("==== mode=" + mode.String() + " encoding=" + enc.String() + " prune=" + prune + "\n")
						b.WriteString(renderGoldenSQL(t, tr, setup))
					}
				}
			}
			got := b.String()
			path := filepath.Join(dir, tc.name+".golden")
			if *updateGoldenSQL {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden snapshot (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("SQL text changed for %s.\n--- want\n%s\n--- got\n%s", tc.name, want, got)
			}
		})
	}
}

// TestGoldenSQLParameterizedNames checks the pinned parameterized
// circuit really exercises the RZ_1, RZ_2, ... naming.
func TestGoldenSQLParameterizedNames(t *testing.T) {
	for _, tc := range goldenSQLCircuits() {
		if tc.name != "hea3x1" {
			continue
		}
		tr, err := Translate(tc.circuit, tc.initial, Options{})
		if err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		for _, g := range tr.GateTables {
			names[g.Name] = true
		}
		for _, want := range []string{"RY_1", "RY_2", "RY_3", "RZ_1", "RZ_2", "RZ_3", "CX"} {
			if !names[want] {
				t.Errorf("gate table %s missing; have %v", want, names)
			}
		}
	}
}
