package bench

import (
	"strings"
	"testing"

	"qymera/internal/circuits"
	"qymera/internal/sim"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "a", "b")
	tb.Add("1", "hello")
	tb.Addf(2, 3.14159)
	tb.Note("footnote %d", 7)

	text := tb.Text()
	if !strings.Contains(text, "== demo ==") || !strings.Contains(text, "hello") || !strings.Contains(text, "note: footnote 7") {
		t.Fatalf("text:\n%s", text)
	}
	md := tb.Markdown()
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "| --- | --- |") {
		t.Fatalf("markdown:\n%s", md)
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Fatalf("csv:\n%s", csv)
	}
}

func TestTableCSVEscaping(t *testing.T) {
	tb := NewTable("", "x")
	tb.Add(`with,comma and "quote"`)
	csv := tb.CSV()
	if !strings.Contains(csv, `"with,comma and ""quote"""`) {
		t.Fatalf("csv:\n%s", csv)
	}
}

func TestTableMismatchedRowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTable("", "a", "b").Add("only-one")
}

func TestCompareProducesFidelity(t *testing.T) {
	c := circuits.GHZ(4)
	results := Compare(c, []sim.Backend{&sim.StateVector{}, &sim.SQL{SpillDir: t.TempDir()}})
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Err != nil || results[1].Err != nil {
		t.Fatalf("errs = %v, %v", results[0].Err, results[1].Err)
	}
	if results[1].Fidelity < 0.999999 {
		t.Fatalf("fidelity = %v", results[1].Fidelity)
	}
}

func TestMaxQubitsFindsBoundary(t *testing.T) {
	// 2^n * 16 bytes <= 16 KB ⇒ n <= 10.
	n, err := MaxQubits(circuits.GHZ,
		func() sim.Backend { return &sim.StateVector{MemoryBudget: 16 << 10} }, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("max qubits = %d, want 10", n)
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"encoding", "fig2", "ghz", "matrixfusion", "outofcore", "parity", "prelim", "pruning", "superpos", "sweep", "table1"}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("experiments = %d, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.ID != want[i] {
			t.Fatalf("experiment[%d] = %s, want %s", i, e.ID, want[i])
		}
		if e.Paper == "" || e.Desc == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("expected error for unknown id")
	}
}

// TestAllExperimentsQuick executes every experiment in quick mode; each
// must produce at least one non-empty table and no FAIL verdicts.
func TestAllExperimentsQuick(t *testing.T) {
	opts := Options{Quick: true, SpillDir: t.TempDir()}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(opts)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Fatalf("%s: empty table %q", e.ID, tb.Title)
				}
				if strings.Contains(tb.Text(), "FAIL") {
					t.Fatalf("%s: FAIL verdict in:\n%s", e.ID, tb.Text())
				}
			}
		})
	}
}

func TestFormatHelpers(t *testing.T) {
	if FormatBytes(512) != "512B" || FormatBytes(2048) != "2.0KB" || FormatBytes(3<<20) != "3.0MB" {
		t.Fatalf("bytes: %s %s %s", FormatBytes(512), FormatBytes(2048), FormatBytes(3<<20))
	}
	if !strings.HasSuffix(FormatDuration(1500), "µs") {
		t.Fatalf("duration: %s", FormatDuration(1500))
	}
}

func TestCompactSQL(t *testing.T) {
	in := "SELECT a,\n       b\nFROM t\n"
	if got := compactSQL(in); got != "SELECT a, b FROM t" {
		t.Fatalf("compact = %q", got)
	}
}
