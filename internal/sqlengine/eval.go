package sqlengine

import (
	"fmt"
	"strings"
)

// compiledExpr evaluates an expression against a row.
type compiledExpr func(row Row) (Value, error)

// compileCtx carries what expression compilation needs: the schema of
// the rows the expression reads, which resolves its column references,
// and the statement's bound parameters.
type compileCtx struct {
	resolver planSchema
	params   []Value
}

// compileExpr resolves all column references up front and returns a
// closure tree; per-row evaluation does no name lookups. A constant
// subtree is evaluated once, here (constValue).
func compileExpr(e Expr, ctx *compileCtx) (compiledExpr, error) {
	if v, ok := constValue(e); ok {
		return func(Row) (Value, error) { return v, nil }, nil
	}
	return compileNode(e, ctx)
}

// constValue folds a constant expression: a literal, or an operator
// tree with no column, parameter or aggregate beneath it (constExpr),
// evaluated once by the row compiler — the code every row would run,
// since all scalar functions are deterministic. ok is false for any
// other expression and for one whose evaluation errors (ABS('x')),
// which stays to report its error at run time.
func constValue(e Expr) (Value, bool) {
	switch n := e.(type) {
	case *Literal:
		return n.Val, true
	case *ColumnRef, *ParamRef:
		return Null, false
	}
	if !constExpr(e) {
		return Null, false
	}
	c, err := compileNode(e, &compileCtx{})
	if err != nil {
		return Null, false
	}
	v, err := c(nil)
	return v, err == nil
}

// constExpr reports whether e reads no column, parameter or aggregate.
func constExpr(e Expr) bool {
	ok := true
	walkExpr(e, func(x Expr) {
		switch f := x.(type) {
		case *ColumnRef, *ParamRef:
			ok = false
		case *FuncCall:
			if isAggregateName(f.Name) {
				ok = false
			}
		}
	})
	return ok
}

// compileNode is compileExpr without the fold of e itself; its operands
// still fold.
func compileNode(e Expr, ctx *compileCtx) (compiledExpr, error) {
	switch n := e.(type) {
	case *ParamRef:
		if n.Index >= len(ctx.params) {
			return nil, fmt.Errorf("sqlengine: statement has parameter %d but only %d values bound", n.Index+1, len(ctx.params))
		}
		v := ctx.params[n.Index]
		return func(Row) (Value, error) { return v, nil }, nil

	case *ColumnRef:
		idx, err := ctx.resolver.resolveRef(n)
		if err != nil {
			return nil, err
		}
		return func(row Row) (Value, error) {
			if idx >= len(row) {
				return Null, fmt.Errorf("sqlengine: internal: column slot %d out of range %d", idx, len(row))
			}
			return row[idx], nil
		}, nil

	case *UnaryExpr:
		x, err := compileExpr(n.X, ctx)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case "-":
			return func(row Row) (Value, error) {
				v, err := x(row)
				if err != nil {
					return Null, err
				}
				return Negate(v)
			}, nil
		case "~":
			return func(row Row) (Value, error) {
				v, err := x(row)
				if err != nil {
					return Null, err
				}
				return BitwiseNot(v)
			}, nil
		case "NOT":
			return func(row Row) (Value, error) {
				v, err := x(row)
				if err != nil {
					return Null, err
				}
				b, known := v.Bool()
				if !known {
					return Null, nil
				}
				return NewBool(!b), nil
			}, nil
		}
		return nil, fmt.Errorf("sqlengine: unknown unary operator %q", n.Op)

	case *BinaryExpr:
		return compileBinary(n, ctx)

	case *FuncCall:
		if isAggregateName(n.Name) {
			return nil, fmt.Errorf("sqlengine: aggregate %s not allowed in this context", n.Name)
		}
		return compileScalarFunc(n, ctx)

	case *CaseExpr:
		return compileCase(n, ctx)

	case *IsNullExpr:
		x, err := compileExpr(n.X, ctx)
		if err != nil {
			return nil, err
		}
		not := n.Not
		return func(row Row) (Value, error) {
			v, err := x(row)
			if err != nil {
				return Null, err
			}
			return NewBool(v.IsNull() != not), nil
		}, nil

	case *InExpr:
		x, err := compileExpr(n.X, ctx)
		if err != nil {
			return nil, err
		}
		items := make([]compiledExpr, len(n.List))
		for i, it := range n.List {
			c, err := compileExpr(it, ctx)
			if err != nil {
				return nil, err
			}
			items[i] = c
		}
		not := n.Not
		return func(row Row) (Value, error) {
			v, err := x(row)
			if err != nil {
				return Null, err
			}
			if v.IsNull() {
				return Null, nil
			}
			sawNull := false
			for _, it := range items {
				iv, err := it(row)
				if err != nil {
					return Null, err
				}
				if iv.IsNull() {
					sawNull = true
					continue
				}
				if cmp, ok := CompareSQL(v, iv); ok && cmp == 0 {
					return NewBool(!not), nil
				}
			}
			if sawNull {
				return Null, nil
			}
			return NewBool(not), nil
		}, nil

	case *BetweenExpr:
		x, err := compileExpr(n.X, ctx)
		if err != nil {
			return nil, err
		}
		lo, err := compileExpr(n.Lo, ctx)
		if err != nil {
			return nil, err
		}
		hi, err := compileExpr(n.Hi, ctx)
		if err != nil {
			return nil, err
		}
		not := n.Not
		return func(row Row) (Value, error) {
			v, err := x(row)
			if err != nil {
				return Null, err
			}
			lv, err := lo(row)
			if err != nil {
				return Null, err
			}
			hv, err := hi(row)
			if err != nil {
				return Null, err
			}
			c1, ok1 := CompareSQL(v, lv)
			c2, ok2 := CompareSQL(v, hv)
			if !ok1 || !ok2 {
				return Null, nil
			}
			in := c1 >= 0 && c2 <= 0
			return NewBool(in != not), nil
		}, nil

	case *CastExpr:
		x, err := compileExpr(n.X, ctx)
		if err != nil {
			return nil, err
		}
		to := n.To
		return func(row Row) (Value, error) {
			v, err := x(row)
			if err != nil {
				return Null, err
			}
			return castValue(v, to)
		}, nil
	}
	return nil, fmt.Errorf("sqlengine: cannot compile expression %T", e)
}

func castValue(v Value, to Type) (Value, error) {
	if v.IsNull() {
		return Null, nil
	}
	switch to {
	case TypeInt:
		i, err := v.AsInt()
		if err != nil {
			return Null, err
		}
		return NewInt(i), nil
	case TypeFloat:
		f, err := v.AsFloat()
		if err != nil {
			return Null, err
		}
		return NewFloat(f), nil
	case TypeText:
		return NewText(v.String()), nil
	case TypeBool:
		b, known := v.Bool()
		if !known {
			return Null, nil
		}
		return NewBool(b), nil
	}
	return Null, fmt.Errorf("sqlengine: cannot cast to %s", to)
}

func compileBinary(n *BinaryExpr, ctx *compileCtx) (compiledExpr, error) {
	l, err := compileExpr(n.L, ctx)
	if err != nil {
		return nil, err
	}
	r, err := compileExpr(n.R, ctx)
	if err != nil {
		return nil, err
	}
	op := n.Op
	switch op {
	case "+", "-", "*", "/", "%":
		return func(row Row) (Value, error) {
			lv, err := l(row)
			if err != nil {
				return Null, err
			}
			rv, err := r(row)
			if err != nil {
				return Null, err
			}
			return Arithmetic(op, lv, rv)
		}, nil
	case "&", "|", "<<", ">>":
		return func(row Row) (Value, error) {
			lv, err := l(row)
			if err != nil {
				return Null, err
			}
			rv, err := r(row)
			if err != nil {
				return Null, err
			}
			return Bitwise(op, lv, rv)
		}, nil
	case "=", "==", "!=", "<>", "<", "<=", ">", ">=":
		return func(row Row) (Value, error) {
			lv, err := l(row)
			if err != nil {
				return Null, err
			}
			rv, err := r(row)
			if err != nil {
				return Null, err
			}
			cmp, ok := CompareSQL(lv, rv)
			if !ok {
				return Null, nil
			}
			var b bool
			switch op {
			case "=", "==":
				b = cmp == 0
			case "!=", "<>":
				b = cmp != 0
			case "<":
				b = cmp < 0
			case "<=":
				b = cmp <= 0
			case ">":
				b = cmp > 0
			case ">=":
				b = cmp >= 0
			}
			return NewBool(b), nil
		}, nil
	case "AND":
		return func(row Row) (Value, error) {
			lv, err := l(row)
			if err != nil {
				return Null, err
			}
			lb, lknown := lv.Bool()
			if lknown && !lb {
				return NewBool(false), nil
			}
			rv, err := r(row)
			if err != nil {
				return Null, err
			}
			rb, rknown := rv.Bool()
			if rknown && !rb {
				return NewBool(false), nil
			}
			if !lknown || !rknown {
				return Null, nil
			}
			return NewBool(true), nil
		}, nil
	case "OR":
		return func(row Row) (Value, error) {
			lv, err := l(row)
			if err != nil {
				return Null, err
			}
			lb, lknown := lv.Bool()
			if lknown && lb {
				return NewBool(true), nil
			}
			rv, err := r(row)
			if err != nil {
				return Null, err
			}
			rb, rknown := rv.Bool()
			if rknown && rb {
				return NewBool(true), nil
			}
			if !lknown || !rknown {
				return Null, nil
			}
			return NewBool(false), nil
		}, nil
	case "||":
		return func(row Row) (Value, error) {
			lv, err := l(row)
			if err != nil {
				return Null, err
			}
			rv, err := r(row)
			if err != nil {
				return Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return Null, nil
			}
			return NewText(lv.String() + rv.String()), nil
		}, nil
	case "LIKE":
		return func(row Row) (Value, error) {
			lv, err := l(row)
			if err != nil {
				return Null, err
			}
			rv, err := r(row)
			if err != nil {
				return Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return Null, nil
			}
			return NewBool(likeMatch(lv.String(), rv.String())), nil
		}, nil
	}
	return nil, fmt.Errorf("sqlengine: unknown binary operator %q", op)
}

func compileCase(n *CaseExpr, ctx *compileCtx) (compiledExpr, error) {
	var operand compiledExpr
	var err error
	if n.Operand != nil {
		operand, err = compileExpr(n.Operand, ctx)
		if err != nil {
			return nil, err
		}
	}
	whens := make([]compiledExpr, len(n.Whens))
	thens := make([]compiledExpr, len(n.Whens))
	for i, w := range n.Whens {
		whens[i], err = compileExpr(w.When, ctx)
		if err != nil {
			return nil, err
		}
		thens[i], err = compileExpr(w.Then, ctx)
		if err != nil {
			return nil, err
		}
	}
	var els compiledExpr
	if n.Else != nil {
		els, err = compileExpr(n.Else, ctx)
		if err != nil {
			return nil, err
		}
	}
	return func(row Row) (Value, error) {
		var opv Value
		if operand != nil {
			var err error
			opv, err = operand(row)
			if err != nil {
				return Null, err
			}
		}
		for i := range whens {
			wv, err := whens[i](row)
			if err != nil {
				return Null, err
			}
			matched := false
			if operand != nil {
				cmp, ok := CompareSQL(opv, wv)
				matched = ok && cmp == 0
			} else {
				b, known := wv.Bool()
				matched = known && b
			}
			if matched {
				return thens[i](row)
			}
		}
		if els != nil {
			return els(row)
		}
		return Null, nil
	}, nil
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single char),
// case-insensitively as in SQLite's default collation for ASCII.
func likeMatch(s, pattern string) bool {
	s = strings.ToLower(s)
	pattern = strings.ToLower(pattern)
	return likeRec(s, pattern)
}

func likeRec(s, p string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || s[0] != p[0] {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}

// exprReferencesAggregate walks an expression looking for aggregate calls.
func exprReferencesAggregate(e Expr) bool {
	found := false
	walkExpr(e, func(x Expr) {
		if fc, ok := x.(*FuncCall); ok && isAggregateName(fc.Name) {
			found = true
		}
	})
	return found
}

// walkExpr visits e and all descendants.
func walkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch n := e.(type) {
	case *BinaryExpr:
		walkExpr(n.L, fn)
		walkExpr(n.R, fn)
	case *UnaryExpr:
		walkExpr(n.X, fn)
	case *FuncCall:
		for _, a := range n.Args {
			walkExpr(a, fn)
		}
	case *CaseExpr:
		walkExpr(n.Operand, fn)
		for _, w := range n.Whens {
			walkExpr(w.When, fn)
			walkExpr(w.Then, fn)
		}
		walkExpr(n.Else, fn)
	case *IsNullExpr:
		walkExpr(n.X, fn)
	case *InExpr:
		walkExpr(n.X, fn)
		for _, it := range n.List {
			walkExpr(it, fn)
		}
	case *BetweenExpr:
		walkExpr(n.X, fn)
		walkExpr(n.Lo, fn)
		walkExpr(n.Hi, fn)
	case *CastExpr:
		walkExpr(n.X, fn)
	}
}
