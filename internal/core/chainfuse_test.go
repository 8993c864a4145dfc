package core

import (
	"strings"
	"testing"

	"qymera/internal/circuits"
)

// TestFusedStatementsShape: a MaterializedChain translation's fused
// statement list keeps the setup prologue, collapses the whole stage
// run into one CTAS over a WITH chain, and names only the final state
// table.
func TestFusedStatementsShape(t *testing.T) {
	c := circuits.GHZ(4) // 4 stages: H + 3 CX
	tr, err := Translate(c, nil, Options{Mode: MaterializedChain})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Steps) < 3 {
		t.Fatalf("want >= 3 stages, got %d", len(tr.Steps))
	}
	plain := tr.Statements()
	fused := tr.FusedStatements()
	if want := len(plain) - len(tr.Steps) + 1; len(fused) != want {
		t.Fatalf("fused statement count = %d, want %d (setup + one CTAS)", len(fused), want)
	}
	last := fused[len(fused)-1]
	if !strings.HasPrefix(last, "CREATE TABLE "+tr.FinalTable+" AS WITH ") {
		t.Fatalf("fused CTAS does not target the final table:\n%s", last)
	}
	// Interior state tables appear only as CTEs, never as CTAS targets.
	for _, st := range tr.Steps[:len(tr.Steps)-1] {
		if strings.Contains(last, "CREATE TABLE "+st.Table) {
			t.Fatalf("intermediate table %s is created by the fused statement", st.Table)
		}
		if !strings.Contains(last, st.Table+" AS (") {
			t.Fatalf("stage %s missing from the WITH chain:\n%s", st.Table, last)
		}
	}
}

// TestFusedStatementsSingleQueryUnchanged: SingleQuery mode has no
// per-stage statements to fuse.
func TestFusedStatementsSingleQueryUnchanged(t *testing.T) {
	tr, err := Translate(circuits.GHZ(3), nil, Options{Mode: SingleQuery})
	if err != nil {
		t.Fatal(err)
	}
	plain, fused := tr.Statements(), tr.FusedStatements()
	if len(plain) != len(fused) {
		t.Fatalf("statement counts differ: %d vs %d", len(plain), len(fused))
	}
	for i := range plain {
		if plain[i] != fused[i] {
			t.Fatalf("statement %d differs:\n%s\nvs\n%s", i, plain[i], fused[i])
		}
	}
}

// TestFusedStatementsSingleStage: a one-gate circuit keeps its plain
// CTAS (nothing to chain).
func TestFusedStatementsSingleStage(t *testing.T) {
	c := circuits.GHZ(1) // single H
	tr, err := Translate(c, nil, Options{Mode: MaterializedChain})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Steps) != 1 {
		t.Fatalf("want 1 stage, got %d", len(tr.Steps))
	}
	plain, fused := tr.Statements(), tr.FusedStatements()
	if len(plain) != len(fused) {
		t.Fatalf("statement counts differ: %d vs %d", len(plain), len(fused))
	}
	for i := range plain {
		if plain[i] != fused[i] {
			t.Fatalf("statement %d differs", i)
		}
	}
}
