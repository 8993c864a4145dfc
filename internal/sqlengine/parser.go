package sqlengine

import (
	"fmt"
	"strconv"
	"strings"
)

// parser is a recursive-descent SQL parser over the token stream.
type parser struct {
	toks    []token
	pos     int
	src     string
	nparams int
}

// ParseStatement parses a single SQL statement (a trailing semicolon is
// allowed). It returns the statement and the number of ? placeholders.
// Every call returns a fresh AST the caller may modify; the engine's
// own entry points parse through a shared cache instead (stmtcache.go).
func ParseStatement(src string) (Statement, int, error) {
	toks, err := lexSQL(src)
	if err != nil {
		return nil, 0, err
	}
	p := &parser{toks: toks, src: src}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, 0, err
	}
	p.accept(tokOp, ";")
	if !p.at(tokEOF, "") {
		return nil, 0, p.errHere("unexpected trailing input")
	}
	return stmt, p.nparams, nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(src string) ([]Statement, error) {
	toks, err := lexSQL(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	var out []Statement
	for {
		for p.accept(tokOp, ";") {
		}
		if p.at(tokEOF, "") {
			return out, nil
		}
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, stmt)
		if !p.accept(tokOp, ";") && !p.at(tokEOF, "") {
			return nil, p.errHere("expected ';' between statements")
		}
	}
}

func (p *parser) cur() token { return p.toks[p.pos] }
func (p *parser) peek() token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		t := p.cur()
		p.pos++
		return t, nil
	}
	want := text
	if want == "" {
		switch kind {
		case tokIdent:
			want = "identifier"
		case tokNumber:
			want = "number"
		default:
			want = "token"
		}
	}
	return token{}, p.errHere("expected %s, found %q", want, p.cur().text)
}

func (p *parser) errHere(format string, args ...any) error {
	t := p.cur()
	line, col := 1, 1
	for i := 0; i < t.pos && i < len(p.src); i++ {
		if p.src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Errorf("sql:%d:%d: %s", line, col, fmt.Sprintf(format, args...))
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.at(tokKeyword, "CREATE"):
		return p.parseCreate()
	case p.at(tokKeyword, "DROP"):
		return p.parseDrop()
	case p.at(tokKeyword, "INSERT"):
		return p.parseInsert()
	case p.at(tokKeyword, "DELETE"):
		return p.parseDelete()
	case p.at(tokKeyword, "UPDATE"):
		return p.parseUpdate()
	case p.at(tokKeyword, "SELECT"), p.at(tokKeyword, "WITH"):
		return p.parseSelect()
	case p.at(tokKeyword, "ANALYZE"):
		p.pos++
		name, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		return &AnalyzeStmt{Table: name.text}, nil
	case p.at(tokKeyword, "EXPLAIN"):
		p.pos++
		analyze := p.accept(tokKeyword, "ANALYZE")
		stmt, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		sel, ok := stmt.(*SelectStmt)
		if !ok {
			return nil, p.errHere("EXPLAIN requires a SELECT statement")
		}
		return &ExplainStmt{Analyze: analyze, Select: sel}, nil
	}
	return nil, p.errHere("expected statement, found %q", p.cur().text)
}

func (p *parser) parseCreate() (Statement, error) {
	p.pos++ // CREATE
	if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	stmt := &CreateTableStmt{}
	if p.accept(tokKeyword, "IF") {
		if _, err := p.expect(tokKeyword, "NOT"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "EXISTS"); err != nil {
			return nil, err
		}
		stmt.IfNotExists = true
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	stmt.Name = name.text

	if p.accept(tokKeyword, "AS") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		stmt.AsSelect = sel.(*SelectStmt)
		return stmt, nil
	}

	if _, err := p.expect(tokOp, "("); err != nil {
		return nil, err
	}
	for {
		col, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		typ, err := p.parseColumnType()
		if err != nil {
			return nil, err
		}
		// Accept and ignore common constraints; the engine is
		// dynamically typed and constraint-free.
		for {
			switch {
			case p.accept(tokKeyword, "PRIMARY"):
				if _, err := p.expect(tokKeyword, "KEY"); err != nil {
					return nil, err
				}
			case p.accept(tokKeyword, "NOT"):
				if _, err := p.expect(tokKeyword, "NULL"); err != nil {
					return nil, err
				}
			default:
				goto constraintsDone
			}
		}
	constraintsDone:
		stmt.Cols = append(stmt.Cols, ColumnDef{Name: col.text, Type: typ})
		if p.accept(tokOp, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokOp, ")"); err != nil {
		return nil, err
	}
	return stmt, nil
}

// parseColumnType maps a declared type name to an affinity.
func (p *parser) parseColumnType() (Type, error) {
	t, err := p.expect(tokIdent, "")
	if err != nil {
		return TypeNull, p.errHere("expected column type")
	}
	// Swallow optional length/precision, e.g. VARCHAR(20), DECIMAL(10,2).
	if p.accept(tokOp, "(") {
		for !p.accept(tokOp, ")") {
			if p.at(tokEOF, "") {
				return TypeNull, p.errHere("unterminated type parameters")
			}
			p.pos++
		}
	}
	switch strings.ToUpper(t.text) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "TINYINT":
		return TypeInt, nil
	case "REAL", "DOUBLE", "FLOAT", "NUMERIC", "DECIMAL":
		return TypeFloat, nil
	case "TEXT", "VARCHAR", "CHAR", "STRING", "CLOB":
		return TypeText, nil
	case "BOOLEAN", "BOOL":
		return TypeBool, nil
	}
	return TypeNull, p.errHere("unknown column type %q", t.text)
}

func (p *parser) parseDrop() (Statement, error) {
	p.pos++ // DROP
	if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	stmt := &DropTableStmt{}
	if p.accept(tokKeyword, "IF") {
		if _, err := p.expect(tokKeyword, "EXISTS"); err != nil {
			return nil, err
		}
		stmt.IfExists = true
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	stmt.Name = name.text
	return stmt, nil
}

func (p *parser) parseInsert() (Statement, error) {
	p.pos++ // INSERT
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	stmt := &InsertStmt{Table: name.text}
	if p.accept(tokOp, "(") {
		for {
			col, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			stmt.Cols = append(stmt.Cols, col.text)
			if p.accept(tokOp, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
	}
	if p.at(tokKeyword, "SELECT") || p.at(tokKeyword, "WITH") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		stmt.Select = sel.(*SelectStmt)
		return stmt, nil
	}
	if _, err := p.expect(tokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(tokOp, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.accept(tokOp, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if p.accept(tokOp, ",") {
			continue
		}
		break
	}
	return stmt, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.pos++ // DELETE
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	stmt := &DeleteStmt{Table: name.text}
	if p.accept(tokKeyword, "WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	return stmt, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	p.pos++ // UPDATE
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	stmt := &UpdateStmt{Table: name.text}
	if _, err := p.expect(tokKeyword, "SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, "="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Cols = append(stmt.Cols, col.text)
		stmt.Exprs = append(stmt.Exprs, e)
		if p.accept(tokOp, ",") {
			continue
		}
		break
	}
	if p.accept(tokKeyword, "WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	return stmt, nil
}

func (p *parser) parseSelect() (Statement, error) {
	sel := &SelectStmt{}
	if p.accept(tokKeyword, "WITH") {
		if p.at(tokKeyword, "RECURSIVE") {
			return nil, p.errHere("recursive CTEs are not supported")
		}
		for {
			name, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			cte := CTE{Name: name.text}
			if p.accept(tokOp, "(") {
				for {
					col, err := p.expect(tokIdent, "")
					if err != nil {
						return nil, err
					}
					cte.Cols = append(cte.Cols, col.text)
					if p.accept(tokOp, ",") {
						continue
					}
					break
				}
				if _, err := p.expect(tokOp, ")"); err != nil {
					return nil, err
				}
			}
			if _, err := p.expect(tokKeyword, "AS"); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokOp, "("); err != nil {
				return nil, err
			}
			inner, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
			cte.Select = inner.(*SelectStmt)
			sel.With = append(sel.With, cte)
			if p.accept(tokOp, ",") {
				continue
			}
			break
		}
	}

	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	if p.accept(tokKeyword, "DISTINCT") {
		sel.Distinct = true
	} else {
		p.accept(tokKeyword, "ALL")
	}

	// Projection list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if p.accept(tokOp, ",") {
			continue
		}
		break
	}

	if p.accept(tokKeyword, "FROM") {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		sel.From = ref
		for {
			join, ok, err := p.parseJoinClause()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			sel.Joins = append(sel.Joins, join)
		}
	}

	if p.accept(tokKeyword, "WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if p.accept(tokOp, ",") {
				continue
			}
			break
		}
	}
	if p.accept(tokKeyword, "HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}
	if p.at(tokKeyword, "UNION") || p.at(tokKeyword, "EXCEPT") || p.at(tokKeyword, "INTERSECT") {
		return nil, p.errHere("set operations (UNION/EXCEPT/INTERSECT) are not supported")
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.accept(tokKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if p.accept(tokOp, ",") {
				continue
			}
			break
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Limit = e
		if p.accept(tokKeyword, "OFFSET") {
			o, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.Offset = o
		}
	}
	return sel, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.accept(tokOp, "*") {
		return SelectItem{Star: true}, nil
	}
	// Qualified star: ident.*
	if p.at(tokIdent, "") && p.peek().kind == tokOp && p.peek().text == "." {
		save := p.pos
		tbl := p.cur().text
		p.pos += 2
		if p.accept(tokOp, "*") {
			return SelectItem{Star: true, StarTable: tbl}, nil
		}
		p.pos = save
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept(tokKeyword, "AS") {
		a, err := p.expect(tokIdent, "")
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a.text
	} else if p.at(tokIdent, "") {
		item.Alias = p.cur().text
		p.pos++
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	if p.accept(tokOp, "(") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		ref := &SubqueryRef{Select: sel.(*SelectStmt)}
		p.accept(tokKeyword, "AS")
		if p.at(tokIdent, "") {
			ref.Alias = p.cur().text
			p.pos++
		} else {
			return nil, p.errHere("subquery in FROM requires an alias")
		}
		return ref, nil
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	ref := &TableName{Name: name.text}
	if p.accept(tokKeyword, "AS") {
		a, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		ref.Alias = a.text
	} else if p.at(tokIdent, "") {
		ref.Alias = p.cur().text
		p.pos++
	}
	return ref, nil
}

// parseJoinClause parses one JOIN (or comma cross-join); ok=false when the
// next token does not begin a join.
func (p *parser) parseJoinClause() (JoinClause, bool, error) {
	jtype := ""
	switch {
	case p.accept(tokOp, ","):
		ref, err := p.parseTableRef()
		if err != nil {
			return JoinClause{}, false, err
		}
		return JoinClause{Type: "CROSS", Table: ref}, true, nil
	case p.accept(tokKeyword, "JOIN"):
		jtype = "INNER"
	case p.at(tokKeyword, "INNER"):
		p.pos++
		if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
			return JoinClause{}, false, err
		}
		jtype = "INNER"
	case p.at(tokKeyword, "LEFT"):
		p.pos++
		p.accept(tokKeyword, "OUTER")
		if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
			return JoinClause{}, false, err
		}
		jtype = "LEFT"
	case p.at(tokKeyword, "CROSS"):
		p.pos++
		if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
			return JoinClause{}, false, err
		}
		jtype = "CROSS"
	default:
		return JoinClause{}, false, nil
	}
	ref, err := p.parseTableRef()
	if err != nil {
		return JoinClause{}, false, err
	}
	j := JoinClause{Type: jtype, Table: ref}
	if jtype != "CROSS" {
		if _, err := p.expect(tokKeyword, "ON"); err != nil {
			return JoinClause{}, false, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return JoinClause{}, false, err
		}
		j.On = on
	}
	return j, true, nil
}

// Operator precedence (higher binds tighter), modeled on SQLite.
var binaryPrec = map[string]int{
	"OR":  1,
	"AND": 2,
	// NOT prefix is 3.
	"=": 4, "==": 4, "!=": 4, "<>": 4, "LIKE": 4,
	"<": 5, "<=": 5, ">": 5, ">=": 5,
	"&": 6, "|": 6, "<<": 6, ">>": 6,
	"+": 7, "-": 7,
	"*": 8, "/": 8, "%": 8,
	"||": 9,
}

func (p *parser) parseExpr() (Expr, error) { return p.parseExprPrec(1) }

func (p *parser) parseExprPrec(minPrec int) (Expr, error) {
	var lhs Expr
	var err error
	// Prefix NOT sits between AND and the comparison operators.
	if minPrec <= 3 && p.accept(tokKeyword, "NOT") {
		x, err := p.parseExprPrec(3)
		if err != nil {
			return nil, err
		}
		lhs = &UnaryExpr{Op: "NOT", X: x}
	} else {
		lhs, err = p.parseUnary()
		if err != nil {
			return nil, err
		}
	}

	for {
		// Postfix forms at comparison precedence.
		if minPrec <= 4 {
			if p.at(tokKeyword, "IS") {
				p.pos++
				not := p.accept(tokKeyword, "NOT")
				if _, err := p.expect(tokKeyword, "NULL"); err != nil {
					return nil, err
				}
				lhs = &IsNullExpr{X: lhs, Not: not}
				continue
			}
			notNext := false
			save := p.pos
			if p.at(tokKeyword, "NOT") && (p.peek().text == "IN" || p.peek().text == "BETWEEN" || p.peek().text == "LIKE") {
				p.pos++
				notNext = true
			}
			if p.accept(tokKeyword, "IN") {
				if _, err := p.expect(tokOp, "("); err != nil {
					return nil, err
				}
				var list []Expr
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					list = append(list, e)
					if p.accept(tokOp, ",") {
						continue
					}
					break
				}
				if _, err := p.expect(tokOp, ")"); err != nil {
					return nil, err
				}
				lhs = &InExpr{X: lhs, List: list, Not: notNext}
				continue
			}
			if p.accept(tokKeyword, "BETWEEN") {
				lo, err := p.parseExprPrec(5)
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(tokKeyword, "AND"); err != nil {
					return nil, err
				}
				hi, err := p.parseExprPrec(5)
				if err != nil {
					return nil, err
				}
				lhs = &BetweenExpr{X: lhs, Lo: lo, Hi: hi, Not: notNext}
				continue
			}
			if p.accept(tokKeyword, "LIKE") {
				r, err := p.parseExprPrec(5)
				if err != nil {
					return nil, err
				}
				var e Expr = &BinaryExpr{Op: "LIKE", L: lhs, R: r}
				if notNext {
					e = &UnaryExpr{Op: "NOT", X: e}
				}
				lhs = e
				continue
			}
			if notNext {
				p.pos = save
			}
		}

		t := p.cur()
		var op string
		switch t.kind {
		case tokOp:
			op = t.text
		case tokKeyword:
			if t.text == "AND" || t.text == "OR" {
				op = t.text
			}
		}
		prec, ok := binaryPrec[op]
		if op == "" || !ok || prec < minPrec {
			return lhs, nil
		}
		p.pos++
		rhs, err := p.parseExprPrec(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &BinaryExpr{Op: op, L: lhs, R: rhs}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	switch {
	case p.accept(tokOp, "-"):
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negative numeric literals for prettier deparsing.
		if lit, ok := x.(*Literal); ok && lit.Val.IsNumeric() {
			v, err := Negate(lit.Val)
			if err == nil {
				return &Literal{Val: v}, nil
			}
		}
		return &UnaryExpr{Op: "-", X: x}, nil
	case p.accept(tokOp, "+"):
		return p.parseUnary()
	case p.accept(tokOp, "~"):
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "~", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.pos++
		if !strings.ContainsAny(t.text, ".eE") {
			i, err := strconv.ParseInt(t.text, 10, 64)
			if err == nil {
				return &Literal{Val: NewInt(i)}, nil
			}
		}
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errHere("invalid number %q", t.text)
		}
		return &Literal{Val: NewFloat(f)}, nil

	case tokString:
		p.pos++
		return &Literal{Val: NewText(t.text)}, nil

	case tokParam:
		p.pos++
		e := &ParamRef{Index: p.nparams}
		p.nparams++
		return e, nil

	case tokKeyword:
		switch t.text {
		case "NULL":
			p.pos++
			return &Literal{Val: Null}, nil
		case "TRUE":
			p.pos++
			return &Literal{Val: NewBool(true)}, nil
		case "FALSE":
			p.pos++
			return &Literal{Val: NewBool(false)}, nil
		case "CASE":
			return p.parseCase()
		case "CAST":
			p.pos++
			if _, err := p.expect(tokOp, "("); err != nil {
				return nil, err
			}
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokKeyword, "AS"); err != nil {
				return nil, err
			}
			to, err := p.parseColumnType()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
			return &CastExpr{X: x, To: to}, nil
		}
		return nil, p.errHere("unexpected keyword %q in expression", t.text)

	case tokIdent:
		// Function call?
		if p.peek().kind == tokOp && p.peek().text == "(" {
			name := strings.ToUpper(t.text)
			p.pos += 2
			fc := &FuncCall{Name: name}
			if p.accept(tokOp, "*") {
				fc.Star = true
				if _, err := p.expect(tokOp, ")"); err != nil {
					return nil, err
				}
				return fc, nil
			}
			if p.accept(tokKeyword, "DISTINCT") {
				fc.Distinct = true
			}
			if !p.accept(tokOp, ")") {
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fc.Args = append(fc.Args, e)
					if p.accept(tokOp, ",") {
						continue
					}
					break
				}
				if _, err := p.expect(tokOp, ")"); err != nil {
					return nil, err
				}
			}
			return fc, nil
		}
		// Qualified or bare column.
		p.pos++
		if p.accept(tokOp, ".") {
			col, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.text, Name: col.text}, nil
		}
		return &ColumnRef{Name: t.text}, nil

	case tokOp:
		if t.text == "(" {
			p.pos++
			if p.at(tokKeyword, "SELECT") || p.at(tokKeyword, "WITH") {
				return nil, p.errHere("scalar subqueries are not supported")
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errHere("unexpected token %q in expression", t.text)
}

func (p *parser) parseCase() (Expr, error) {
	p.pos++ // CASE
	ce := &CaseExpr{}
	if !p.at(tokKeyword, "WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Operand = op
	}
	for p.accept(tokKeyword, "WHEN") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "THEN"); err != nil {
			return nil, err
		}
		th, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, CaseWhen{When: w, Then: th})
	}
	if len(ce.Whens) == 0 {
		return nil, p.errHere("CASE requires at least one WHEN arm")
	}
	if p.accept(tokKeyword, "ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if _, err := p.expect(tokKeyword, "END"); err != nil {
		return nil, err
	}
	return ce, nil
}
