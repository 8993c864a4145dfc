package sqlengine

import (
	"fmt"
	"strings"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// CreateTableStmt is CREATE TABLE [IF NOT EXISTS] name (cols...) or
// CREATE TABLE name AS SELECT ....
type CreateTableStmt struct {
	Name        string
	IfNotExists bool
	Cols        []ColumnDef
	AsSelect    *SelectStmt // non-nil for CTAS
}

// ColumnDef declares one column of a CREATE TABLE.
type ColumnDef struct {
	Name string
	Type Type
}

// DropTableStmt is DROP TABLE [IF EXISTS] name.
type DropTableStmt struct {
	Name     string
	IfExists bool
}

// InsertStmt is INSERT INTO name [(cols)] VALUES (...), (...) or
// INSERT INTO name [(cols)] SELECT ....
type InsertStmt struct {
	Table  string
	Cols   []string
	Rows   [][]Expr
	Select *SelectStmt
}

// DeleteStmt is DELETE FROM name [WHERE expr].
type DeleteStmt struct {
	Table string
	Where Expr
}

// UpdateStmt is UPDATE name SET col = expr, ... [WHERE expr].
type UpdateStmt struct {
	Table string
	Cols  []string
	Exprs []Expr
	Where Expr
}

// AnalyzeStmt is ANALYZE <table>. The engine keeps no table
// statistics, so it only checks that the table exists and reports its
// row count.
type AnalyzeStmt struct {
	Table string
}

// ExplainStmt is EXPLAIN [ANALYZE] select: render the physical plan,
// executing the query and annotating actual row counts when Analyze is
// set.
type ExplainStmt struct {
	Analyze bool
	Select  *SelectStmt
}

// CTE is one WITH entry: name [ (cols) ] AS (select).
type CTE struct {
	Name   string
	Cols   []string
	Select *SelectStmt
}

// SelectStmt is a full SELECT with optional WITH prefix.
type SelectStmt struct {
	With     []CTE
	Distinct bool
	Items    []SelectItem
	From     TableRef // nil means no FROM (e.g. SELECT 1+1)
	Joins    []JoinClause
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    Expr
	Offset   Expr
}

// SelectItem is one projection: expression with optional alias, or a
// star (optionally qualified: t.*).
type SelectItem struct {
	Expr      Expr
	Alias     string
	Star      bool
	StarTable string
}

// JoinClause is one JOIN in the FROM list.
type JoinClause struct {
	Type  string // "INNER", "LEFT", "CROSS"
	Table TableRef
	On    Expr // nil for CROSS
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// TableRef is a named table or a parenthesized subquery in FROM.
type TableRef interface{ tableRef() }

// TableName references a base table or CTE, with optional alias.
type TableName struct {
	Name  string
	Alias string
}

// SubqueryRef is (SELECT ...) alias in FROM.
type SubqueryRef struct {
	Select *SelectStmt
	Alias  string
}

func (*CreateTableStmt) stmt() {}
func (*ExplainStmt) stmt()     {}
func (*DropTableStmt) stmt()   {}
func (*AnalyzeStmt) stmt()     {}
func (*InsertStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*SelectStmt) stmt()      {}

func (*TableName) tableRef()   {}
func (*SubqueryRef) tableRef() {}

// Expr is a SQL expression AST node.
type Expr interface {
	expr()
	// Deparse renders the expression back to SQL text; the planner uses
	// it for structural matching (GROUP BY keys) and error messages.
	Deparse() string
}

// Literal is a constant value.
type Literal struct{ Val Value }

// ColumnRef is a possibly qualified column reference.
type ColumnRef struct {
	Table string // "" if unqualified
	Name  string
	// slot, when positive, is the 1-based position of the column in the
	// schema the planner made the reference for, which resolves it
	// instead of the name (planSchema.resolveRef). The parser never sets
	// it.
	slot int
}

// ParamRef is a ? placeholder, numbered left to right from 0.
type ParamRef struct{ Index int }

// BinaryExpr applies an infix operator.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

// UnaryExpr applies a prefix operator: -, +, ~, NOT.
type UnaryExpr struct {
	Op string
	X  Expr
}

// FuncCall is name(args), name(*), or name(DISTINCT arg).
type FuncCall struct {
	Name     string // uppercase
	Args     []Expr
	Star     bool
	Distinct bool
}

// CaseExpr is CASE [operand] WHEN ... THEN ... [ELSE ...] END.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []CaseWhen
	Else    Expr
}

// CaseWhen is one WHEN/THEN arm.
type CaseWhen struct {
	When Expr
	Then Expr
}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	X   Expr
	Not bool
}

// InExpr is x [NOT] IN (e1, e2, ...).
type InExpr struct {
	X    Expr
	List []Expr
	Not  bool
}

// BetweenExpr is x [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	X, Lo, Hi Expr
	Not       bool
}

// CastExpr is CAST(x AS type).
type CastExpr struct {
	X  Expr
	To Type
}

func (*Literal) expr()     {}
func (*ColumnRef) expr()   {}
func (*ParamRef) expr()    {}
func (*BinaryExpr) expr()  {}
func (*UnaryExpr) expr()   {}
func (*FuncCall) expr()    {}
func (*CaseExpr) expr()    {}
func (*IsNullExpr) expr()  {}
func (*InExpr) expr()      {}
func (*BetweenExpr) expr() {}
func (*CastExpr) expr()    {}

func (e *Literal) Deparse() string {
	if e.Val.T == TypeText {
		return "'" + strings.ReplaceAll(e.Val.S, "'", "''") + "'"
	}
	return e.Val.String()
}

func (e *ColumnRef) Deparse() string {
	if e.Table != "" {
		return e.Table + "." + e.Name
	}
	return e.Name
}

func (e *ParamRef) Deparse() string { return "?" }

func (e *BinaryExpr) Deparse() string {
	return "(" + e.L.Deparse() + " " + e.Op + " " + e.R.Deparse() + ")"
}

func (e *UnaryExpr) Deparse() string {
	if e.Op == "NOT" {
		return "(NOT " + e.X.Deparse() + ")"
	}
	return "(" + e.Op + e.X.Deparse() + ")"
}

func (e *FuncCall) Deparse() string {
	if e.Star {
		return e.Name + "(*)"
	}
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.Deparse()
	}
	d := ""
	if e.Distinct {
		d = "DISTINCT "
	}
	return e.Name + "(" + d + strings.Join(args, ", ") + ")"
}

func (e *CaseExpr) Deparse() string {
	var b strings.Builder
	b.WriteString("CASE")
	if e.Operand != nil {
		b.WriteString(" " + e.Operand.Deparse())
	}
	for _, w := range e.Whens {
		fmt.Fprintf(&b, " WHEN %s THEN %s", w.When.Deparse(), w.Then.Deparse())
	}
	if e.Else != nil {
		b.WriteString(" ELSE " + e.Else.Deparse())
	}
	b.WriteString(" END")
	return b.String()
}

func (e *IsNullExpr) Deparse() string {
	if e.Not {
		return "(" + e.X.Deparse() + " IS NOT NULL)"
	}
	return "(" + e.X.Deparse() + " IS NULL)"
}

func (e *InExpr) Deparse() string {
	items := make([]string, len(e.List))
	for i, x := range e.List {
		items[i] = x.Deparse()
	}
	n := ""
	if e.Not {
		n = "NOT "
	}
	return "(" + e.X.Deparse() + " " + n + "IN (" + strings.Join(items, ", ") + "))"
}

func (e *BetweenExpr) Deparse() string {
	n := ""
	if e.Not {
		n = "NOT "
	}
	return "(" + e.X.Deparse() + " " + n + "BETWEEN " + e.Lo.Deparse() + " AND " + e.Hi.Deparse() + ")"
}

func (e *CastExpr) Deparse() string {
	return "CAST(" + e.X.Deparse() + " AS " + e.To.String() + ")"
}
