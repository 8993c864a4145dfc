// Package core implements the Qymera paper's contribution: translating
// quantum circuits into SQL so that a relational engine simulates them.
//
// States are relations T(s, r, i) — basis index, real, imaginary — and a
// k-qubit gate is a relation G(in_s, out_s, r, i) of transition
// amplitudes between local k-bit indices. One gate application is a
// join + group-by:
//
//	SELECT ((T0.s & ~1) | H.out_s)            AS s,
//	       SUM((T0.r * H.r) - (T0.i * H.i))   AS r,
//	       SUM((T0.r * H.i) + (T0.i * H.r))   AS i
//	FROM T0 JOIN H ON H.in_s = (T0.s & 1)
//	GROUP BY ((T0.s & ~1) | H.out_s)
//
// (Fig. 2c of the paper). The bitwise mask locates the gate's qubits
// inside the integer state index; the SUM accumulates interfering
// amplitude contributions; only nonzero basis states are ever stored.
package core

import (
	"bytes"
	"fmt"
	"math/cmplx"
	"strconv"
	"strings"
	"unicode/utf8"

	"qymera/internal/linalg"
	"qymera/internal/quantum"
)

// Mode selects the shape of the generated SQL.
type Mode int

const (
	// SingleQuery emits one WITH-chained query (Fig. 2c): the RDBMS
	// sees the whole circuit at once and can optimize across stages.
	SingleQuery Mode = iota
	// MaterializedChain emits one CREATE TABLE ... AS SELECT per stage,
	// so intermediate quantum states are inspectable tables — the
	// workflow of the paper's algorithm-design demo scenario.
	MaterializedChain
)

func (m Mode) String() string {
	if m == MaterializedChain {
		return "materialized-chain"
	}
	return "single-query"
}

// Options configure translation.
type Options struct {
	Mode     Mode
	Fusion   FusionLevel
	Encoding Encoding
	// PruneEps, when positive, adds a HAVING clause dropping result
	// amplitudes with |a|² <= PruneEps², the relational analogue of
	// sparse-state pruning. Zero disables pruning.
	PruneEps float64
	// StatePrefix names the state tables: <prefix>0 is the initial
	// state, <prefix>k the state after stage k. Defaults to "T".
	StatePrefix string
}

// GateRow is one transition-amplitude tuple of a gate table.
type GateRow struct {
	InS, OutS uint64
	R, I      float64
}

// GateTable is the relational form of one distinct gate.
type GateTable struct {
	Name  string // SQL table name
	Label string // gate label, e.g. "CX" or "RZ(0.25)"
	Arity int
	Rows  []GateRow
}

// Step is one gate-application stage of the translation.
type Step struct {
	Table     string // state table/CTE produced by this stage
	Source    string // state table/CTE this stage reads
	GateTable string // gate table joined in this stage
	Qubits    []int
	Body      string // the stage's SELECT text
	SQL       string // full statement in MaterializedChain mode ("" otherwise)
}

// Translation is the complete SQL program for simulating one circuit.
type Translation struct {
	NumQubits         int
	Setup             []string // DDL+DML: initial state and gate tables
	Steps             []Step
	FinalTable        string
	Query             string // the query returning the final state (s, r, i)
	GateTables        []GateTable
	StageCount        int // gates after fusion == len(Steps)
	OriginalGateCount int
	Options           Options
}

// zeroTol drops gate-matrix entries with |a| below this when building
// gate tables; exact zeros dominate (permutation-like gates).
const zeroTol = 1e-15

// Translate converts a circuit and an initial state into a SQL program.
// A nil initial state means |0...0⟩.
func Translate(c *quantum.Circuit, initial *quantum.State, opts Options) (*Translation, error) {
	if opts.StatePrefix == "" {
		opts.StatePrefix = "T"
	}
	if initial == nil {
		initial = quantum.ZeroState(c.NumQubits())
	}
	if initial.NumQubits() != c.NumQubits() {
		return nil, fmt.Errorf("core: initial state has %d qubits, circuit has %d", initial.NumQubits(), c.NumQubits())
	}

	gates, err := resolveGates(c)
	if err != nil {
		return nil, err
	}
	fused, err := fuseGates(gates, opts.Fusion)
	if err != nil {
		return nil, err
	}

	tr := &Translation{
		NumQubits:         c.NumQubits(),
		StageCount:        len(fused),
		OriginalGateCount: c.Len(),
		Options:           opts,
	}

	// Build gate tables, shared across stages with equal labels.
	names := map[string]string{}
	var namer tableNamer
	for _, g := range fused {
		if _, ok := names[g.label]; ok {
			continue
		}
		name := namer.name(g.label)
		names[g.label] = name
		tr.GateTables = append(tr.GateTables, GateTable{
			Name: name, Label: g.label, Arity: len(g.qubits),
			Rows: gateTableRows(g.matrix),
		})
	}

	tr.Setup = buildSetup(opts.StatePrefix, initial, tr.GateTables)

	// Per-stage queries.
	prev := opts.StatePrefix + "0"
	tr.Steps = make([]Step, 0, len(fused))
	for k, g := range fused {
		table := opts.StatePrefix + strconv.Itoa(k+1)
		gate := names[g.label]
		body := stageSelect(prev, gate, g.qubits, opts)
		step := Step{Table: table, Source: prev, GateTable: gate, Qubits: g.qubits, Body: body}
		if opts.Mode == MaterializedChain {
			step.SQL = "CREATE TABLE " + table + " AS " + body
		}
		tr.Steps = append(tr.Steps, step)
		prev = table
	}
	tr.FinalTable = prev

	final := "SELECT s, r, i FROM " + tr.FinalTable + " ORDER BY s"
	if opts.Mode == MaterializedChain || len(tr.Steps) == 0 {
		tr.Query = final
		return tr, nil
	}
	var w sqlWriter
	w.Grow(withSize(tr.Steps) + len(final))
	w.WriteString("WITH ")
	w.writeWith(tr.Steps)
	w.WriteString("\n")
	w.WriteString(final)
	tr.Query = w.String()
	return tr, nil
}

// gateTableRows extracts the transition-amplitude tuples of a gate
// matrix, dropping exact (and numerically negligible) zeros.
func gateTableRows(m *linalg.Matrix) []GateRow {
	var rows []GateRow
	dim := m.Rows
	for in := 0; in < dim; in++ {
		for out := 0; out < dim; out++ {
			a := m.At(out, in)
			if cmplx.Abs(a) <= zeroTol {
				continue
			}
			rows = append(rows, GateRow{
				InS: uint64(in), OutS: uint64(out),
				R: real(a), I: imag(a),
			})
		}
	}
	return rows
}

// buildSetup renders the DDL+DML prologue: a CREATE TABLE and, when it
// has rows, an INSERT for the initial state table and for each
// distinct gate table. It is plain SQL with no engine hints: the engine
// derives what it needs (row counts, the state's key range) from the
// rows themselves. Shared by Translate and Rebind (the rebinding path
// regenerates only this data section of a cached plan).
func buildSetup(prefix string, initial *quantum.State, tables []GateTable) []string {
	setup := make([]string, 0, 2+2*len(tables))
	t0 := prefix + "0"
	setup = append(setup, "CREATE TABLE "+t0+" (s INTEGER, r REAL, i REAL)")
	if idx := initial.Indices(); len(idx) > 0 {
		var w sqlWriter
		w.Grow(len(t0) + 20 + len(idx)*rowSize)
		w.WriteString("INSERT INTO ")
		w.WriteString(t0)
		w.WriteString(" VALUES ")
		for k, i := range idx {
			if k > 0 {
				w.WriteString(", ")
			}
			a := initial.Amplitude(i)
			w.WriteByte('(')
			w.writeUint(i)
			w.WriteString(", ")
			w.writeFloat(real(a))
			w.WriteString(", ")
			w.writeFloat(imag(a))
			w.WriteByte(')')
		}
		setup = append(setup, w.String())
	}
	for _, tbl := range tables {
		setup = append(setup, "CREATE TABLE "+tbl.Name+" (in_s INTEGER, out_s INTEGER, r REAL, i REAL)")
		if len(tbl.Rows) > 0 {
			var w sqlWriter
			w.Grow(len(tbl.Name) + 20 + len(tbl.Rows)*rowSize)
			w.WriteString("INSERT INTO ")
			w.WriteString(tbl.Name)
			w.WriteString(" VALUES ")
			for k, r := range tbl.Rows {
				if k > 0 {
					w.WriteString(", ")
				}
				w.WriteByte('(')
				w.writeUint(r.InS)
				w.WriteString(", ")
				w.writeUint(r.OutS)
				w.WriteString(", ")
				w.writeFloat(r.R)
				w.WriteString(", ")
				w.writeFloat(r.I)
				w.WriteByte(')')
			}
			setup = append(setup, w.String())
		}
	}
	return setup
}

// rowSize is a generous guess at one rendered VALUES tuple, used to size
// the INSERT text up front: two small indexes and two round-trip floats
// of up to 24 bytes each.
const rowSize = 64

// stageSelect renders one gate application (Fig. 2c query body).
func stageSelect(prev, gate string, qubits []int, opts Options) string {
	sRef := prev + ".s"
	inExpr := inputIndexExpr(sRef, qubits, opts.Encoding)
	outExpr := outputIndexExpr(sRef, gate+".out_s", qubits, opts.Encoding)
	sumR := "SUM((" + prev + ".r * " + gate + ".r) - (" + prev + ".i * " + gate + ".i))"
	sumI := "SUM((" + prev + ".r * " + gate + ".i) + (" + prev + ".i * " + gate + ".r))"

	var w sqlWriter
	w.Grow(2*len(outExpr) + len(inExpr) + 3*(len(sumR)+len(sumI)) + 2*(len(prev)+len(gate)) + 128)
	w.WriteString("SELECT ")
	w.WriteString(outExpr)
	w.WriteString(" AS s,\n       ")
	w.WriteString(sumR)
	w.WriteString(" AS r,\n       ")
	w.WriteString(sumI)
	w.WriteString(" AS i\nFROM ")
	w.WriteString(prev)
	w.WriteString(" JOIN ")
	w.WriteString(gate)
	w.WriteString(" ON ")
	w.WriteString(gate)
	w.WriteString(".in_s = ")
	w.WriteString(inExpr)
	w.WriteString("\nGROUP BY ")
	w.WriteString(outExpr)
	if opts.PruneEps > 0 {
		w.WriteString("\nHAVING ((")
		w.WriteString(sumR)
		w.WriteString(" * ")
		w.WriteString(sumR)
		w.WriteString(") + (")
		w.WriteString(sumI)
		w.WriteString(" * ")
		w.WriteString(sumI)
		w.WriteString(")) > ")
		w.writeFloat(opts.PruneEps * opts.PruneEps)
	}
	w.WriteString("\n")
	return w.String()
}

// SetupScript joins the setup statements into one executable script.
func (tr *Translation) SetupScript() string {
	return strings.Join(tr.Setup, ";\n") + ";\n"
}

// Statements returns every statement to execute in order, excluding the
// final Query: setup plus, in MaterializedChain mode, the per-stage CTAS
// statements.
func (tr *Translation) Statements() []string {
	out := append(make([]string, 0, len(tr.Setup)+len(tr.Steps)), tr.Setup...)
	for _, st := range tr.Steps {
		if st.SQL != "" {
			out = append(out, st.SQL)
		}
	}
	return out
}

// Script renders the full SQL program including the final query, for
// display and export.
func (tr *Translation) Script() string {
	var b strings.Builder
	for _, s := range tr.Statements() {
		b.WriteString(s)
		b.WriteString(";\n")
	}
	b.WriteString(tr.Query)
	b.WriteString(";\n")
	return b.String()
}

// sqlWriter builds SQL text: a strings.Builder plus the number formats
// the translation emits, written without intermediate strings.
type sqlWriter struct {
	strings.Builder
	num [32]byte
}

func (w *sqlWriter) writeInt(v int) { w.Write(strconv.AppendInt(w.num[:0], int64(v), 10)) }

func (w *sqlWriter) writeUint(v uint64) { w.Write(strconv.AppendUint(w.num[:0], v, 10)) }

// writeFloat writes a float with round-trip precision, keeping the SQL
// text exact. "1" would stay an integer literal in SQL, which is fine
// for the engine's dynamic typing, but the paper's style writes
// amplitudes with a decimal point.
func (w *sqlWriter) writeFloat(f float64) {
	b := strconv.AppendFloat(w.num[:0], f, 'g', -1, 64)
	if !bytes.ContainsAny(b, ".eE") {
		b = append(b, ".0"...)
	}
	w.Write(b)
}

// writeIndented writes s with pad before every line, ending in exactly
// one newline (trailing newlines of s collapse into it).
func (w *sqlWriter) writeIndented(s, pad string) {
	s = strings.TrimRight(s, "\n")
	for {
		w.WriteString(pad)
		i := strings.IndexByte(s, '\n')
		if i < 0 {
			w.WriteString(s)
			w.WriteByte('\n')
			return
		}
		w.WriteString(s[:i+1])
		s = s[i+1:]
	}
}

// writeWith writes steps as the comma-separated CTE list of a WITH
// clause, each body indented two spaces:
//
//	T1 AS (
//	  <body>
//	),
//	T2 AS (...)
func (w *sqlWriter) writeWith(steps []Step) {
	for i, st := range steps {
		if i > 0 {
			w.WriteString(",\n")
		}
		w.WriteString(st.Table)
		w.WriteString(" AS (\n")
		w.writeIndented(st.Body, "  ")
		w.WriteByte(')')
	}
}

// withSize is the length writeWith renders for steps, plus slack.
func withSize(steps []Step) int {
	n := 16
	for _, st := range steps {
		n += len(st.Table) + len(st.Body) + 2*strings.Count(st.Body, "\n") + 12
	}
	return n
}

// tableNamer maps gate labels to unique SQL identifiers: plain names
// pass through (H, CX); parameterized labels like "RZ(0.25)" become
// RZ_1, RZ_2, ... per distinct parameterization. The zero value is
// ready to use.
type tableNamer struct {
	used map[string]bool
	// next is, per sanitized base, the lowest suffix not yet known to
	// be taken: names are only ever added, so a probe never needs to
	// revisit a lower one.
	next map[string]int
}

func (n *tableNamer) name(label string) string {
	if n.used == nil {
		n.used, n.next = map[string]bool{}, map[string]int{}
	}
	base := label
	if i := strings.IndexByte(label, '('); i >= 0 {
		base = label[:i]
	}
	name := sanitizeIdent(base)
	if base != label || n.used[name] {
		i := max(n.next[name], 1)
		for n.used[name+"_"+strconv.Itoa(i)] {
			i++
		}
		n.next[name] = i + 1
		name = name + "_" + strconv.Itoa(i)
	}
	n.used[name] = true
	return name
}

// sanitizeIdent replaces every character outside [A-Za-z0-9_] with an
// underscore; an empty result becomes "G".
func sanitizeIdent(s string) string {
	if s == "" {
		return "G"
	}
	clean := true
	for i := 0; i < len(s) && clean; i++ {
		clean = isIdentByte(s[i])
	}
	if clean {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		if r < utf8.RuneSelf && isIdentByte(byte(r)) {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

func isIdentByte(c byte) bool {
	return c == '_' || (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')
}
