package sqlengine

import "fmt"

// Vectorized expression evaluation. A vecExpr evaluates an expression
// over a whole batch in one call, writing results indexed by physical
// row position; only positions named by the selection vector are
// computed (and therefore valid). Hot operators — column references,
// arithmetic, bitwise ops, comparisons, AND/OR — get specialized loops
// with inline integer/float fast paths, which removes the per-row
// closure dispatch of the interpreted evaluator. Everything else falls
// back to the row-at-a-time compiled expression applied per selected
// row, so the two evaluators always agree.
//
// Scratch discipline: each compiled node owns its output buffer and
// reuses it across batches, so steady-state evaluation does not
// allocate. A ColumnRef returns the batch's column directly (zero
// copy). Returned slices are read-only for the caller and valid until
// the node is evaluated again.
type vecExpr func(b *rowBatch, sel []int) (colVec, error)

// compileVec compiles e for vectorized evaluation against ctx's
// resolver. A constant subtree is evaluated once, here (constValue).
func compileVec(e Expr, ctx *compileCtx) (vecExpr, error) {
	if v, ok := constValue(e); ok {
		return constVec(v), nil
	}
	switch n := e.(type) {

	case *ParamRef:
		if n.Index >= len(ctx.params) {
			return nil, fmt.Errorf("sqlengine: statement has parameter %d but only %d values bound", n.Index+1, len(ctx.params))
		}
		return constVec(ctx.params[n.Index]), nil

	case *ColumnRef:
		idx, err := ctx.resolver.resolveRef(n)
		if err != nil {
			return nil, err
		}
		return func(b *rowBatch, sel []int) (colVec, error) {
			if idx >= len(b.cols) {
				return nil, fmt.Errorf("sqlengine: internal: column slot %d out of range %d", idx, len(b.cols))
			}
			return b.cols[idx], nil
		}, nil

	case *UnaryExpr:
		return compileVecUnary(n, ctx)

	case *BinaryExpr:
		return compileVecBinary(n, ctx)

	case *IsNullExpr:
		x, err := compileVec(n.X, ctx)
		if err != nil {
			return nil, err
		}
		not := n.Not
		var out colVec
		return func(b *rowBatch, sel []int) (colVec, error) {
			xs, err := x(b, sel)
			if err != nil {
				return nil, err
			}
			out = growCol(out, b.n)
			for _, i := range sel {
				out[i] = NewBool(xs[i].IsNull() != not)
			}
			return out, nil
		}, nil
	}

	// Everything else (function calls, CASE, IN, BETWEEN, CAST, …)
	// reuses the row-at-a-time compiler per selected row.
	return compileVecFallback(e, ctx)
}

// compileVecAll compiles a list of expressions.
func compileVecAll(exprs []Expr, ctx *compileCtx) ([]vecExpr, error) {
	out := make([]vecExpr, len(exprs))
	for i, e := range exprs {
		c, err := compileVec(e, ctx)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// constVec returns a node producing a constant column.
func constVec(v Value) vecExpr {
	var out colVec
	return func(b *rowBatch, sel []int) (colVec, error) {
		if len(out) < b.n {
			for len(out) < b.n {
				out = append(out, v)
			}
		}
		return out, nil
	}
}

// compileVecFallback wraps the interpreted evaluator: gather each
// selected row into a scratch buffer and evaluate row-wise.
func compileVecFallback(e Expr, ctx *compileCtx) (vecExpr, error) {
	rowC, err := compileExpr(e, ctx)
	if err != nil {
		return nil, err
	}
	var out colVec
	var rowBuf Row
	return func(b *rowBatch, sel []int) (colVec, error) {
		out = growCol(out, b.n)
		if len(rowBuf) != len(b.cols) {
			rowBuf = make(Row, len(b.cols))
		}
		for _, i := range sel {
			b.gather(i, rowBuf)
			v, err := rowC(rowBuf)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}, nil
}

// growCol resizes a scratch column to hold n physical positions.
func growCol(c colVec, n int) colVec {
	if cap(c) < n {
		return make(colVec, n, max(n, batchSize))
	}
	return c[:n]
}

func compileVecUnary(n *UnaryExpr, ctx *compileCtx) (vecExpr, error) {
	x, err := compileVec(n.X, ctx)
	if err != nil {
		return nil, err
	}
	var out colVec
	switch n.Op {
	case "-":
		return func(b *rowBatch, sel []int) (colVec, error) {
			xs, err := x(b, sel)
			if err != nil {
				return nil, err
			}
			out = growCol(out, b.n)
			for _, i := range sel {
				v := xs[i]
				switch v.T {
				case TypeInt:
					out[i] = Value{T: TypeInt, I: -v.I}
				case TypeFloat:
					out[i] = Value{T: TypeFloat, F: -v.F}
				default:
					nv, err := Negate(v)
					if err != nil {
						return nil, err
					}
					out[i] = nv
				}
			}
			return out, nil
		}, nil
	case "~":
		return func(b *rowBatch, sel []int) (colVec, error) {
			xs, err := x(b, sel)
			if err != nil {
				return nil, err
			}
			out = growCol(out, b.n)
			for _, i := range sel {
				v := xs[i]
				if v.T == TypeInt {
					out[i] = Value{T: TypeInt, I: ^v.I}
					continue
				}
				nv, err := BitwiseNot(v)
				if err != nil {
					return nil, err
				}
				out[i] = nv
			}
			return out, nil
		}, nil
	case "NOT":
		return func(b *rowBatch, sel []int) (colVec, error) {
			xs, err := x(b, sel)
			if err != nil {
				return nil, err
			}
			out = growCol(out, b.n)
			for _, i := range sel {
				bv, known := xs[i].Bool()
				if !known {
					out[i] = Null
				} else {
					out[i] = NewBool(!bv)
				}
			}
			return out, nil
		}, nil
	}
	return nil, fmt.Errorf("sqlengine: unknown unary operator %q", n.Op)
}

func compileVecBinary(n *BinaryExpr, ctx *compileCtx) (vecExpr, error) {
	switch n.Op {
	case "AND", "OR":
		return compileVecLogical(n, ctx)
	}
	l, err := compileVec(n.L, ctx)
	if err != nil {
		return nil, err
	}
	r, err := compileVec(n.R, ctx)
	if err != nil {
		return nil, err
	}
	op := n.Op
	var out colVec

	eval := func(b *rowBatch, sel []int) (colVec, colVec, error) {
		ls, err := l(b, sel)
		if err != nil {
			return nil, nil, err
		}
		rs, err := r(b, sel)
		if err != nil {
			return nil, nil, err
		}
		out = growCol(out, b.n)
		return ls, rs, nil
	}

	switch op {
	case "+", "-", "*", "/", "%":
		return func(b *rowBatch, sel []int) (colVec, error) {
			ls, rs, err := eval(b, sel)
			if err != nil {
				return nil, err
			}
			for _, i := range sel {
				a, c := ls[i], rs[i]
				if a.T == TypeInt && c.T == TypeInt {
					switch op {
					case "+":
						out[i] = Value{T: TypeInt, I: a.I + c.I}
						continue
					case "-":
						out[i] = Value{T: TypeInt, I: a.I - c.I}
						continue
					case "*":
						out[i] = Value{T: TypeInt, I: a.I * c.I}
						continue
					}
				} else if a.T == TypeFloat && c.T == TypeFloat {
					switch op {
					case "+":
						out[i] = Value{T: TypeFloat, F: a.F + c.F}
						continue
					case "-":
						out[i] = Value{T: TypeFloat, F: a.F - c.F}
						continue
					case "*":
						out[i] = Value{T: TypeFloat, F: a.F * c.F}
						continue
					}
				}
				v, err := Arithmetic(op, a, c)
				if err != nil {
					return nil, err
				}
				out[i] = v
			}
			return out, nil
		}, nil

	case "&", "|", "<<", ">>":
		return func(b *rowBatch, sel []int) (colVec, error) {
			ls, rs, err := eval(b, sel)
			if err != nil {
				return nil, err
			}
			for _, i := range sel {
				a, c := ls[i], rs[i]
				if a.T == TypeInt && c.T == TypeInt {
					switch op {
					case "&":
						out[i] = Value{T: TypeInt, I: a.I & c.I}
						continue
					case "|":
						out[i] = Value{T: TypeInt, I: a.I | c.I}
						continue
					}
				}
				v, err := Bitwise(op, a, c)
				if err != nil {
					return nil, err
				}
				out[i] = v
			}
			return out, nil
		}, nil

	case "=", "==", "!=", "<>", "<", "<=", ">", ">=":
		return func(b *rowBatch, sel []int) (colVec, error) {
			ls, rs, err := eval(b, sel)
			if err != nil {
				return nil, err
			}
			for _, i := range sel {
				a, c := ls[i], rs[i]
				var cmp int
				if a.T == TypeInt && c.T == TypeInt {
					switch {
					case a.I < c.I:
						cmp = -1
					case a.I > c.I:
						cmp = 1
					}
				} else if a.T == TypeFloat && c.T == TypeFloat {
					switch {
					case a.F < c.F:
						cmp = -1
					case a.F > c.F:
						cmp = 1
					}
				} else {
					var ok bool
					cmp, ok = CompareSQL(a, c)
					if !ok {
						out[i] = Null
						continue
					}
				}
				var res bool
				switch op {
				case "=", "==":
					res = cmp == 0
				case "!=", "<>":
					res = cmp != 0
				case "<":
					res = cmp < 0
				case "<=":
					res = cmp <= 0
				case ">":
					res = cmp > 0
				case ">=":
					res = cmp >= 0
				}
				out[i] = NewBool(res)
			}
			return out, nil
		}, nil

	case "||":
		return func(b *rowBatch, sel []int) (colVec, error) {
			ls, rs, err := eval(b, sel)
			if err != nil {
				return nil, err
			}
			for _, i := range sel {
				a, c := ls[i], rs[i]
				if a.IsNull() || c.IsNull() {
					out[i] = Null
					continue
				}
				out[i] = NewText(a.String() + c.String())
			}
			return out, nil
		}, nil

	case "LIKE":
		return func(b *rowBatch, sel []int) (colVec, error) {
			ls, rs, err := eval(b, sel)
			if err != nil {
				return nil, err
			}
			for _, i := range sel {
				a, c := ls[i], rs[i]
				if a.IsNull() || c.IsNull() {
					out[i] = Null
					continue
				}
				out[i] = NewBool(likeMatch(a.String(), c.String()))
			}
			return out, nil
		}, nil
	}
	return nil, fmt.Errorf("sqlengine: unknown binary operator %q", n.Op)
}

// compileVecLogical implements AND/OR with lazy right-hand evaluation:
// the right operand is evaluated only on the sub-selection of rows where
// the left side did not already decide the result, matching the
// short-circuit semantics of the row evaluator.
func compileVecLogical(n *BinaryExpr, ctx *compileCtx) (vecExpr, error) {
	l, err := compileVec(n.L, ctx)
	if err != nil {
		return nil, err
	}
	r, err := compileVec(n.R, ctx)
	if err != nil {
		return nil, err
	}
	isAnd := n.Op == "AND"
	var out colVec
	var subsel []int
	return func(b *rowBatch, sel []int) (colVec, error) {
		ls, err := l(b, sel)
		if err != nil {
			return nil, err
		}
		out = growCol(out, b.n)
		subsel = subsel[:0]
		for _, i := range sel {
			lb, lknown := ls[i].Bool()
			if lknown && lb != isAnd {
				// AND with a false left / OR with a true left is decided.
				out[i] = NewBool(!isAnd)
				continue
			}
			subsel = append(subsel, i)
		}
		if len(subsel) == 0 {
			return out, nil
		}
		rs, err := r(b, subsel)
		if err != nil {
			return nil, err
		}
		for _, i := range subsel {
			_, lknown := ls[i].Bool()
			rb, rknown := rs[i].Bool()
			if rknown && rb != isAnd {
				out[i] = NewBool(!isAnd)
				continue
			}
			if !lknown || !rknown {
				out[i] = Null
				continue
			}
			out[i] = NewBool(isAnd)
		}
		return out, nil
	}, nil
}
