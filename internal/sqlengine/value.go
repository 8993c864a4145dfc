// Package sqlengine is an embedded relational database engine with a SQL
// front end. It exists so that the Qymera circuit→SQL translation can run
// against a real relational execution pipeline — parser, a three-tier
// planner (logical plan IR, rule-driven rewriter, cost estimates fed by
// incrementally-maintained table statistics), vectorized
// batch executor with streaming hash joins and hash aggregation, and
// buffer-managed storage that spills to disk — using only the Go
// standard library.
//
// Execution is batch-at-a-time over natively columnar table storage: operators exchange column-major batches of
// ~1024 rows with selection vectors (see batch.go), expressions are
// compiled to loops over batches with integer/float fast paths (see
// evalvec.go), and tables are stored as typed column vectors — int64 /
// float64 / string / bool with null bitmaps — that CREATE TABLE AS and
// INSERT … SELECT append batch-at-a-time and scans serve as column
// slices (see colstore.go), the one storage type. A thin cursor at the
// row edges keeps row-oriented surfaces (database/sql driver, ResultSet)
// composing with the columnar tree. A statement runs on its caller's
// goroutine and aggregates its rows in one order, so results —
// including floating-point rounding — do not depend on the machine's
// core count. Operators reserve from the shared memory budget and,
// under pressure, spill columnar chunk runs to disk.
//
// The engine implements the SQL subset that RDBMS-based quantum circuit
// simulation requires (and a bit more): CREATE/DROP TABLE, INSERT,
// DELETE, CREATE TABLE AS SELECT, and SELECT with WITH (CTEs), INNER/LEFT
// joins, WHERE, GROUP BY/HAVING, ORDER BY, LIMIT/OFFSET, DISTINCT, scalar
// and aggregate functions, and the full set of bitwise operators from
// Table 1 of the paper (&, |, ~, <<, >>).
//
// Typing follows the SQLite model: values are dynamically typed with
// column affinity applied on insert. Concurrency control is a simple
// database-level reader/writer lock; statements are atomic but there are
// no multi-statement transactions.
package sqlengine

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type enumerates runtime value types.
type Type int

const (
	TypeNull Type = iota
	TypeInt
	TypeFloat
	TypeText
	TypeBool
)

func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return "INTEGER"
	case TypeFloat:
		return "REAL"
	case TypeText:
		return "TEXT"
	case TypeBool:
		return "BOOLEAN"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// Value is a dynamically typed SQL value. The zero value is NULL.
type Value struct {
	T Type
	I int64
	F float64
	S string
}

// Null is the SQL NULL value.
var Null = Value{T: TypeNull}

// NewInt wraps an int64.
func NewInt(i int64) Value { return Value{T: TypeInt, I: i} }

// NewFloat wraps a float64.
func NewFloat(f float64) Value { return Value{T: TypeFloat, F: f} }

// NewText wraps a string.
func NewText(s string) Value { return Value{T: TypeText, S: s} }

// NewBool wraps a bool (stored in I as 0/1).
func NewBool(b bool) Value {
	if b {
		return Value{T: TypeBool, I: 1}
	}
	return Value{T: TypeBool}
}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.T == TypeNull }

// Bool returns the truth value and whether it is known (non-NULL).
// Numbers are truthy when nonzero, texts when parseable as nonzero
// (SQLite-style loose truthiness is not needed; texts are an error).
func (v Value) Bool() (val, known bool) {
	switch v.T {
	case TypeNull:
		return false, false
	case TypeBool, TypeInt:
		return v.I != 0, true
	case TypeFloat:
		return v.F != 0, true
	default:
		return false, true // non-empty text treated as false per strictness
	}
}

// AsInt coerces to int64. Floats truncate toward zero.
func (v Value) AsInt() (int64, error) {
	switch v.T {
	case TypeInt, TypeBool:
		return v.I, nil
	case TypeFloat:
		return int64(v.F), nil
	case TypeText:
		i, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("sqlengine: cannot convert %q to integer", v.S)
		}
		return i, nil
	}
	return 0, fmt.Errorf("sqlengine: cannot convert NULL to integer")
}

// AsFloat coerces to float64.
func (v Value) AsFloat() (float64, error) {
	switch v.T {
	case TypeInt, TypeBool:
		return float64(v.I), nil
	case TypeFloat:
		return v.F, nil
	case TypeText:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
		if err != nil {
			return 0, fmt.Errorf("sqlengine: cannot convert %q to real", v.S)
		}
		return f, nil
	}
	return 0, fmt.Errorf("sqlengine: cannot convert NULL to real")
}

// IsNumeric reports whether the value is INT, FLOAT, or BOOL.
func (v Value) IsNumeric() bool {
	return v.T == TypeInt || v.T == TypeFloat || v.T == TypeBool
}

// String renders the value for display.
func (v Value) String() string {
	switch v.T {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return strconv.FormatInt(v.I, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TypeText:
		return v.S
	case TypeBool:
		if v.I != 0 {
			return "TRUE"
		}
		return "FALSE"
	}
	return "?"
}

// typeRank orders types for cross-type sorting, following SQLite:
// NULL < numeric < TEXT.
func typeRank(t Type) int {
	switch t {
	case TypeNull:
		return 0
	case TypeInt, TypeFloat, TypeBool:
		return 1
	case TypeText:
		return 2
	}
	return 3
}

// CompareTotal imposes a total order usable by ORDER BY and DISTINCT:
// NULLs first, then numerics by value, then text lexicographically.
func CompareTotal(a, b Value) int {
	// Exact comparison when both are ints avoids float rounding (and is
	// the common case: amplitude indexes).
	if a.T == TypeInt && b.T == TypeInt {
		return cmp.Compare(a.I, b.I)
	}
	ra, rb := typeRank(a.T), typeRank(b.T)
	if ra != rb {
		return ra - rb
	}
	switch ra {
	case 0:
		return 0
	case 1:
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		return 0
	default:
		return strings.Compare(a.S, b.S)
	}
}

// CompareSQL implements SQL comparison semantics: if either side is NULL
// the result is unknown (ok=false); otherwise cmp is -1/0/1.
func CompareSQL(a, b Value) (cmp int, ok bool) {
	if a.IsNull() || b.IsNull() {
		return 0, false
	}
	return CompareTotal(a, b), true
}

// Arithmetic implements +, -, *, /, % with SQL NULL propagation. Integer
// division truncates; division (or modulo) by zero yields NULL, matching
// SQLite.
func Arithmetic(op string, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if !a.IsNumeric() || !b.IsNumeric() {
		return Null, fmt.Errorf("sqlengine: operator %s requires numeric operands, got %s and %s", op, a.T, b.T)
	}
	if a.T == TypeFloat || b.T == TypeFloat {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch op {
		case "+":
			return NewFloat(af + bf), nil
		case "-":
			return NewFloat(af - bf), nil
		case "*":
			return NewFloat(af * bf), nil
		case "/":
			if bf == 0 {
				return Null, nil
			}
			return NewFloat(af / bf), nil
		case "%":
			if bf == 0 {
				return Null, nil
			}
			return NewFloat(math.Mod(af, bf)), nil
		}
		return Null, fmt.Errorf("sqlengine: unknown arithmetic operator %q", op)
	}
	ai, bi := a.I, b.I
	if a.T == TypeBool {
		ai = a.I
	}
	switch op {
	case "+":
		return NewInt(ai + bi), nil
	case "-":
		return NewInt(ai - bi), nil
	case "*":
		return NewInt(ai * bi), nil
	case "/":
		if bi == 0 {
			return Null, nil
		}
		return NewInt(ai / bi), nil
	case "%":
		if bi == 0 {
			return Null, nil
		}
		return NewInt(ai % bi), nil
	}
	return Null, fmt.Errorf("sqlengine: unknown arithmetic operator %q", op)
}

// Bitwise implements &, |, <<, >> on integer-coerced operands with NULL
// propagation. These are the operations of Table 1 in the paper.
func Bitwise(op string, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	ai, err := a.AsInt()
	if err != nil {
		return Null, err
	}
	bi, err := b.AsInt()
	if err != nil {
		return Null, err
	}
	switch op {
	case "&":
		return NewInt(ai & bi), nil
	case "|":
		return NewInt(ai | bi), nil
	case "<<":
		if bi < 0 || bi > 63 {
			return NewInt(0), nil
		}
		return NewInt(ai << uint(bi)), nil
	case ">>":
		if bi < 0 || bi > 63 {
			return NewInt(0), nil
		}
		return NewInt(ai >> uint(bi)), nil
	}
	return Null, fmt.Errorf("sqlengine: unknown bitwise operator %q", op)
}

// BitwiseNot implements the unary ~ operator.
func BitwiseNot(a Value) (Value, error) {
	if a.IsNull() {
		return Null, nil
	}
	ai, err := a.AsInt()
	if err != nil {
		return Null, err
	}
	return NewInt(^ai), nil
}

// Negate implements unary minus.
func Negate(a Value) (Value, error) {
	switch a.T {
	case TypeNull:
		return Null, nil
	case TypeInt, TypeBool:
		return NewInt(-a.I), nil
	case TypeFloat:
		return NewFloat(-a.F), nil
	}
	return Null, fmt.Errorf("sqlengine: cannot negate %s", a.T)
}

// applyAffinity coerces a value toward a column's declared type, SQLite
// style: lossless conversions happen, lossy ones keep the original value.
func applyAffinity(v Value, t Type) Value {
	if v.IsNull() {
		return v
	}
	switch t {
	case TypeInt:
		if v.T == TypeFloat && v.F == math.Trunc(v.F) && math.Abs(v.F) < 1<<62 {
			return NewInt(int64(v.F))
		}
		if v.T == TypeBool {
			return NewInt(v.I)
		}
	case TypeFloat:
		if v.T == TypeInt || v.T == TypeBool {
			return NewFloat(float64(v.I))
		}
	case TypeBool:
		if v.T == TypeInt && (v.I == 0 || v.I == 1) {
			return NewBool(v.I == 1)
		}
	case TypeText:
		// Keep numerics as-is (dynamic typing).
	}
	return v
}

// Row is one tuple of values.
type Row []Value

// cloneRow copies a row (Values are value types, so shallow copy is deep
// enough).
func cloneRow(r Row) Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// rowBytes estimates the in-memory footprint of a row, used by the memory
// budget accounting that decides when operators spill to disk.
func rowBytes(r Row) int64 {
	n := int64(24) // slice header
	for _, v := range r {
		n += 40 // Value struct
		n += int64(len(v.S))
	}
	return n
}
