package core

import (
	"strings"
	"testing"

	"qymera/internal/quantum"
)

func TestTranslateEmptyCircuit(t *testing.T) {
	c := quantum.NewCircuit(2)
	tr, err := Translate(c, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.StageCount != 0 || len(tr.GateTables) != 0 {
		t.Fatalf("tr = %+v", tr)
	}
	if tr.Query != "SELECT s, r, i FROM T0 ORDER BY s" {
		t.Fatalf("query = %q", tr.Query)
	}
}

func TestTranslateCustomInitialState(t *testing.T) {
	c := quantum.NewCircuit(2).H(0)
	st := quantum.BasisState(2, 3)
	tr, err := Translate(c, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range tr.Setup {
		if strings.Contains(s, "INSERT INTO T0 VALUES (3, 1.0, 0.0)") {
			found = true
		}
	}
	if !found {
		t.Fatalf("setup = %v", tr.Setup)
	}
	// Mismatched width must fail.
	if _, err := Translate(c, quantum.ZeroState(3), Options{}); err == nil {
		t.Fatal("expected width mismatch error")
	}
}

func TestGateTableSharing(t *testing.T) {
	// Four CX gates share one table; two distinct RZ angles get two.
	c := quantum.NewCircuit(3)
	c.CX(0, 1).CX(1, 2).CX(0, 1).CX(1, 2)
	c.RZ(0, 0.5).RZ(1, 0.5).RZ(2, 0.7)
	tr, err := Translate(c, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, g := range tr.GateTables {
		names = append(names, g.Name)
	}
	if len(tr.GateTables) != 3 {
		t.Fatalf("gate tables = %v", names)
	}
	if tr.StageCount != 7 {
		t.Fatalf("stages = %d", tr.StageCount)
	}
}

func TestParameterizedTableNames(t *testing.T) {
	c := quantum.NewCircuit(1).RZ(0, 0.25).RZ(0, 0.5)
	tr, err := Translate(c, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.GateTables) != 2 {
		t.Fatalf("tables = %+v", tr.GateTables)
	}
	seen := map[string]bool{}
	for _, g := range tr.GateTables {
		if seen[g.Name] {
			t.Fatalf("duplicate table name %s", g.Name)
		}
		seen[g.Name] = true
		if !strings.HasPrefix(g.Name, "RZ_") {
			t.Fatalf("unexpected name %s", g.Name)
		}
	}
}

func TestPruneEpsAddsHaving(t *testing.T) {
	c := quantum.NewCircuit(1).H(0)
	tr, err := Translate(c, nil, Options{PruneEps: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.Query, "HAVING") {
		t.Fatalf("query missing HAVING:\n%s", tr.Query)
	}
	if !strings.Contains(tr.Query, "1e-12") {
		t.Fatalf("HAVING should compare against eps² = 1e-12:\n%s", tr.Query)
	}
	tr2, err := Translate(c, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(tr2.Query, "HAVING") {
		t.Fatal("pruning off should not emit HAVING")
	}
}

func TestMaterializedChainStatements(t *testing.T) {
	tr, err := Translate(ghz3(), nil, Options{Mode: MaterializedChain})
	if err != nil {
		t.Fatal(err)
	}
	stmts := tr.Statements()
	// 2 (T0) + 2*2 (gate tables) + 3 stages.
	var ctas int
	for _, s := range stmts {
		if strings.HasPrefix(s, "CREATE TABLE T") && strings.Contains(s, " AS ") {
			ctas++
		}
	}
	if ctas != 3 {
		t.Fatalf("CTAS statements = %d, want 3\n%v", ctas, stmts)
	}
	if tr.FinalTable != "T3" {
		t.Fatalf("final table = %s", tr.FinalTable)
	}
}

func TestStatePrefixOption(t *testing.T) {
	tr, err := Translate(ghz3(), nil, Options{StatePrefix: "STATE"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.Query, "FROM STATE3") {
		t.Fatalf("query = %q", tr.Query)
	}
}

func TestScriptRendersEverything(t *testing.T) {
	tr, err := Translate(ghz3(), nil, Options{Mode: MaterializedChain})
	if err != nil {
		t.Fatal(err)
	}
	script := tr.Script()
	for _, frag := range []string{"CREATE TABLE T0", "INSERT INTO H", "CREATE TABLE T3 AS", "ORDER BY s;"} {
		if !strings.Contains(script, frag) {
			t.Fatalf("script missing %q:\n%s", frag, script)
		}
	}
}

func TestSanitizeTableName(t *testing.T) {
	var used tableNamer
	if got := used.name("CX"); got != "CX" {
		t.Fatalf("CX -> %s", got)
	}
	if got := used.name("RZ(0.25)"); got != "RZ_1" {
		t.Fatalf("RZ(0.25) -> %s", got)
	}
	if got := used.name("RZ(0.5)"); got != "RZ_2" {
		t.Fatalf("RZ(0.5) -> %s", got)
	}
	// A second plain CX would collide; it must get a suffix.
	if got := used.name("CX"); got != "CX_1" {
		t.Fatalf("CX again -> %s", got)
	}
}

func TestTranslationGateCounts(t *testing.T) {
	tr, err := Translate(ghz3(), nil, Options{Fusion: FusionSubset})
	if err != nil {
		t.Fatal(err)
	}
	if tr.OriginalGateCount != 3 {
		t.Fatalf("original = %d", tr.OriginalGateCount)
	}
	if tr.StageCount >= 3 {
		t.Fatalf("fusion did not reduce stages: %d", tr.StageCount)
	}
}
