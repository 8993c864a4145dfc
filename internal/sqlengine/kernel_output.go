package sqlengine

import (
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Output-layer kernels: compiled execution of the translated analysis
// queries (core/output.go) that read a materialized state table —
// NormQuery's scalar SUM, QubitProbabilityQuery's filtered scalar SUM,
// and MarginalQuery's single-key grouped SUM. These are the queries a
// sweep runs once per simulation after the gate chain, and they share
// the gate kernel's bottleneck: per-batch operator dispatch and Value
// boxing around what is really a tight loop over two float vectors.
//
// The same determinism contract as kernel.go applies: the kernel
// replicates the interpreted engine's accumulation schedule exactly —
// the serial streaming order when the scan is below the morsel
// threshold, and the two-phase per-morsel partial / ascending-morsel
// merge / partition-major emission schedule of parallel_agg.go when it
// is not (the aggregate's morsel path engages at every worker count).
// Every float operation rounds once; group emission is first-seen
// order within the schedule. Anything the matcher cannot prove
// bit-identical declines to the interpreter untouched.

// Output-kernel EXPLAIN annotations.
const (
	outputAnnotationScalar = "output-agg(scalar-sum)"
	outputAnnotationGroup  = "output-agg(group-sum)"
)

// outputPlan is one matched output-aggregation site.
type outputPlan struct {
	scan   *storeScanNode
	agg    *aggNode
	filter *filterNode // optional pushed row filter below the aggregate
	// grouped selects the single-int-key GROUP BY form; sorted adds the
	// ORDER BY <group key ASC> on top (MarginalQuery's shape).
	grouped bool
	sorted  bool
	// coalesce, when non-nil, is the scalar projection's COALESCE
	// default for the empty-input NULL sum (QubitProbabilityQuery).
	coalesce *Value
}

// outputKernelAttempt pattern-matches root as a translated
// output-layer aggregation and, on a match, executes it as a compiled
// kernel, returning (store, true, nil). handled=false declines with
// the plan untouched; the caller falls back to the interpreter (and
// records the original gate-stage decline reason).
func outputKernelAttempt(ctx *execCtx, root planNode, collect bool, gateReason string) (tableStore, bool, error) {
	_ = gateReason
	plan := matchOutputAgg(root)
	if plan == nil {
		return nil, false, nil
	}
	cs, ok := plan.scan.store.(*ColStore)
	if !ok {
		return nil, false, nil
	}
	if err := cs.Freeze(); err != nil {
		return nil, false, nil
	}
	if cs.Spilled() {
		return nil, false, nil
	}
	run, ok := compileOutputRun(ctx.env, plan, cs)
	if !ok {
		return nil, false, nil
	}
	start := time.Now()
	store, err := run.execute(ctx, collect)
	if err != nil {
		return nil, true, err
	}
	kernelBump(ctx.env, func(k *kernelCounterSet) *atomic.Int64 { return &k.executions }, 1)
	kernelBump(ctx.env, func(k *kernelCounterSet) *atomic.Int64 { return &k.outputExecutions }, 1)
	ctx.kexec = &kernelRun{
		wall:    time.Since(start),
		rowsIn:  int64(run.rows),
		rowsOut: store.Len(),
		morsels: int64((run.rows + morselRows - 1) / morselRows),
	}
	return store, true, nil
}

// matchOutputAgg recognizes the output-aggregation plan shape:
//
//	[Sort <group key> ASC]
//	  Project (#grp.g0,) #agg.a0 | COALESCE(#agg.a0, <literal>)
//	    HashAggregate keys=[intExpr]? aggs=[SUM(floatExpr)]
//	      [Filter intExpr cmp intExpr]   (pushed scan filter)
//	        BatchScan state
//
// Any deviation returns nil (the interpreter handles it).
func matchOutputAgg(root planNode) *outputPlan {
	out := &outputPlan{}
	cur := unwrapStat(root)
	for {
		if a, ok := cur.(*aliasNode); ok {
			cur = unwrapStat(a.child)
			continue
		}
		break
	}
	if s, ok := cur.(*sortNode); ok {
		// Only the grouped form sorts, by its single ascending group key
		// (unique keys, so the engine's stable sort has no ties to break).
		if len(s.keys) != 1 || s.keys[0].desc {
			return nil
		}
		ref, ok := s.keys[0].expr.(*ColumnRef)
		if !ok {
			return nil
		}
		child := unwrapStat(s.child)
		proj, ok := child.(*projectNode)
		if !ok {
			return nil
		}
		if idx, err := proj.schema().resolveColumn(ref.Table, ref.Name); err != nil || idx != 0 {
			return nil
		}
		out.sorted = true
		cur = child
	}
	proj, ok := cur.(*projectNode)
	if !ok {
		return nil
	}
	agg, ok := unwrapStat(proj.child).(*aggNode)
	if !ok {
		return nil
	}
	if len(agg.aggs) != 1 || agg.aggs[0].Distinct || agg.aggs[0].Name != "SUM" || agg.aggs[0].Arg == nil {
		return nil
	}
	aggSchema := agg.schema()
	refTo := func(e Expr, want int) bool {
		ref, ok := e.(*ColumnRef)
		if !ok {
			return false
		}
		idx, err := aggSchema.resolveColumn(ref.Table, ref.Name)
		return err == nil && idx == want
	}
	switch len(agg.groupBy) {
	case 0:
		if out.sorted || len(proj.exprs) != 1 {
			return nil
		}
		switch e := proj.exprs[0].(type) {
		case *ColumnRef:
			if !refTo(e, 0) {
				return nil
			}
		case *FuncCall:
			if strings.ToUpper(e.Name) != "COALESCE" || e.Star || len(e.Args) != 2 || !refTo(e.Args[0], 0) {
				return nil
			}
			lit, ok := e.Args[1].(*Literal)
			if !ok || lit.Val.T != TypeFloat {
				return nil
			}
			v := lit.Val
			out.coalesce = &v
		default:
			return nil
		}
	case 1:
		if len(proj.exprs) != 2 || !refTo(proj.exprs[0], 0) || !refTo(proj.exprs[1], 1) {
			return nil
		}
		out.grouped = true
	default:
		return nil
	}
	out.agg = agg
	child := unwrapStat(agg.child)
	if f, ok := child.(*filterNode); ok {
		out.filter = f
		child = unwrapStat(f.child)
	}
	if out.scan = scanOf(child); out.scan == nil {
		return nil
	}
	return out
}

// outputRun is a matched plan bound to the state store's vectors:
// compiled row closures over decoded columns, ready to execute.
type outputRun struct {
	plan   *outputPlan
	rows   int
	morsel bool
	filter func(row int) bool  // nil = keep every row
	key    func(row int) int64 // grouped only
	sum    func(row int) float64
}

// outVecs lazily decodes the scan's referenced columns, deduplicated
// per physical slot.
type outVecs struct {
	env    *storageEnv
	cs     *ColStore
	scan   *storeScanNode
	ints   map[int][]int64
	floats map[int][]float64
}

func (v *outVecs) intCol(slot int) []int64 {
	if v.cs.rows == 0 {
		// An empty store has no typed vectors to bind; the closures are
		// never called (the engine would not evaluate either).
		return []int64{}
	}
	phys := scanPhys(v.scan, slot)
	if vec, ok := v.ints[phys]; ok {
		return vec
	}
	vec := kernelIntVec(v.env, v.cs, phys)
	v.ints[phys] = vec
	return vec
}

func (v *outVecs) floatCol(slot int) []float64 {
	if v.cs.rows == 0 {
		return []float64{}
	}
	phys := scanPhys(v.scan, slot)
	if vec, ok := v.floats[phys]; ok {
		return vec
	}
	vec := kernelFloatVec(v.env, v.cs, phys)
	v.floats[phys] = vec
	return vec
}

// compileOutputRun binds and compiles the matched plan's expressions
// against the frozen state store. Compilation is per execution (output
// queries run once per simulation, not once per stage — no cache
// pressure to amortize).
func compileOutputRun(env *storageEnv, plan *outputPlan, cs *ColStore) (*outputRun, bool) {
	schema := plan.scan.cols
	vecs := &outVecs{env: env, cs: cs, scan: plan.scan, ints: map[int][]int64{}, floats: map[int][]float64{}}
	run := &outputRun{plan: plan, rows: cs.rows}
	var ok bool
	if run.sum, ok = compileOutFloat(plan.agg.aggs[0].Arg, schema, vecs); !ok {
		return nil, false
	}
	if plan.grouped {
		if run.key, ok = compileOutInt(plan.agg.groupBy[0], schema, vecs); !ok {
			return nil, false
		}
	}
	if plan.filter != nil {
		if run.filter, ok = compileOutPred(plan.filter.pred, schema, vecs); !ok {
			return nil, false
		}
	}
	// The aggregate's morsel path engages (at every worker count)
	// whenever the scan splits into two or more morsels.
	run.morsel = cs.morselCount() >= minParallelMorsels
	return run, true
}

// compileOutFloat compiles a float scalar expression into a row
// closure. Every leaf must already be float — a float column or a
// float literal — so the engine's numeric result is float on every row
// and each operation rounds exactly once (the explicit float64
// conversions forbid FMA contraction, matching Value arithmetic).
func compileOutFloat(e Expr, schema planSchema, vecs *outVecs) (func(row int) float64, bool) {
	switch n := e.(type) {
	case *Literal:
		if n.Val.T != TypeFloat {
			return nil, false
		}
		v := n.Val.F
		return func(int) float64 { return v }, true
	case *ColumnRef:
		idx, err := schema.resolveColumn(n.Table, n.Name)
		if err != nil {
			return nil, false
		}
		vec := vecs.floatCol(idx)
		if vec == nil {
			return nil, false
		}
		return func(row int) float64 { return vec[row] }, true
	case *UnaryExpr:
		if n.Op != "-" {
			return nil, false
		}
		x, ok := compileOutFloat(n.X, schema, vecs)
		if !ok {
			return nil, false
		}
		return func(row int) float64 { return -x(row) }, true
	case *BinaryExpr:
		l, ok := compileOutFloat(n.L, schema, vecs)
		if !ok {
			return nil, false
		}
		r, ok := compileOutFloat(n.R, schema, vecs)
		if !ok {
			return nil, false
		}
		switch n.Op {
		case "+":
			return func(row int) float64 { return float64(l(row) + r(row)) }, true
		case "-":
			return func(row int) float64 { return float64(l(row) - r(row)) }, true
		case "*":
			return func(row int) float64 { return float64(l(row) * r(row)) }, true
		}
		return nil, false
	}
	return nil, false
}

// compileOutInt compiles an integer scalar expression into a row
// closure, with compileKernelInt's operator semantics (value.go's
// INTEGER arithmetic). Only INTEGER literals and int columns are
// admitted — bool and float operands have their own comparison and
// promotion rules the closure does not replicate.
func compileOutInt(e Expr, schema planSchema, vecs *outVecs) (func(row int) int64, bool) {
	switch n := e.(type) {
	case *Literal:
		if n.Val.T != TypeInt {
			return nil, false
		}
		v := n.Val.I
		return func(int) int64 { return v }, true
	case *ColumnRef:
		idx, err := schema.resolveColumn(n.Table, n.Name)
		if err != nil {
			return nil, false
		}
		vec := vecs.intCol(idx)
		if vec == nil {
			return nil, false
		}
		return func(row int) int64 { return vec[row] }, true
	case *UnaryExpr:
		x, ok := compileOutInt(n.X, schema, vecs)
		if !ok {
			return nil, false
		}
		switch n.Op {
		case "-":
			return func(row int) int64 { return -x(row) }, true
		case "~":
			return func(row int) int64 { return ^x(row) }, true
		}
		return nil, false
	case *BinaryExpr:
		if n.Op == "/" || n.Op == "%" {
			lit, ok := n.R.(*Literal)
			if !ok || lit.Val.T != TypeInt || lit.Val.I == 0 {
				return nil, false
			}
		}
		l, ok := compileOutInt(n.L, schema, vecs)
		if !ok {
			return nil, false
		}
		r, ok := compileOutInt(n.R, schema, vecs)
		if !ok {
			return nil, false
		}
		switch n.Op {
		case "&":
			return func(row int) int64 { return l(row) & r(row) }, true
		case "|":
			return func(row int) int64 { return l(row) | r(row) }, true
		case "^":
			return func(row int) int64 { return l(row) ^ r(row) }, true
		case "+":
			return func(row int) int64 { return l(row) + r(row) }, true
		case "-":
			return func(row int) int64 { return l(row) - r(row) }, true
		case "*":
			return func(row int) int64 { return l(row) * r(row) }, true
		case "/":
			return func(row int) int64 { return l(row) / r(row) }, true
		case "%":
			return func(row int) int64 { return l(row) % r(row) }, true
		case "<<":
			return func(row int) int64 {
				b := r(row)
				if b < 0 || b > 63 {
					return 0
				}
				return l(row) << uint(b)
			}, true
		case ">>":
			return func(row int) int64 {
				b := r(row)
				if b < 0 || b > 63 {
					return 0
				}
				return l(row) >> uint(b)
			}, true
		}
		return nil, false
	}
	return nil, false
}

// compileOutPred compiles the scan's pushed filter: a conjunction of
// integer comparisons (the translated qubit locator is
// ((s >> q) & 1) = 1). Integer comparison has no type-coercion edge
// cases, and the int closures cannot produce NULL, so row selection is
// exactly the interpreter's.
func compileOutPred(pred Expr, schema planSchema, vecs *outVecs) (func(row int) bool, bool) {
	if b, ok := pred.(*BinaryExpr); ok && b.Op == "AND" {
		l, ok := compileOutPred(b.L, schema, vecs)
		if !ok {
			return nil, false
		}
		r, ok := compileOutPred(b.R, schema, vecs)
		if !ok {
			return nil, false
		}
		return func(row int) bool { return l(row) && r(row) }, true
	}
	cmp, ok := pred.(*BinaryExpr)
	if !ok {
		return nil, false
	}
	l, lok := compileOutInt(cmp.L, schema, vecs)
	r, rok := compileOutInt(cmp.R, schema, vecs)
	if !lok || !rok {
		return nil, false
	}
	switch cmp.Op {
	case "=", "==":
		return func(row int) bool { return l(row) == r(row) }, true
	case "!=", "<>":
		return func(row int) bool { return l(row) != r(row) }, true
	case "<":
		return func(row int) bool { return l(row) < r(row) }, true
	case "<=":
		return func(row int) bool { return l(row) <= r(row) }, true
	case ">":
		return func(row int) bool { return l(row) > r(row) }, true
	case ">=":
		return func(row int) bool { return l(row) >= r(row) }, true
	}
	return nil, false
}

// outGroups is the single-int-key aggregation table in first-seen
// order (groupTable's emission contract).
type outGroups struct {
	pos  map[int64]int
	keys []int64
	sums []float64
}

func newOutGroups() *outGroups { return &outGroups{pos: map[int64]int{}} }

func (g *outGroups) add(key int64, v float64) {
	idx, ok := g.pos[key]
	if !ok {
		idx = len(g.keys)
		g.pos[key] = idx
		g.keys = append(g.keys, key)
		g.sums = append(g.sums, 0)
	}
	g.sums[idx] += v
}

// execute runs the compiled output aggregation through the engine's
// own schedule and materializes the result store.
func (r *outputRun) execute(ctx *execCtx, collect bool) (tableStore, error) {
	var keys []int64
	var sums []float64
	var scalar float64
	anyRow := false

	if !r.morsel {
		// Serial streaming order: one accumulator, rows in scan order.
		g := newOutGroups()
		for row := 0; row < r.rows; row++ {
			if row%morselRows == 0 {
				if err := ctx.cancelled(); err != nil {
					return nil, err
				}
			}
			if r.filter != nil && !r.filter(row) {
				continue
			}
			v := r.sum(row)
			anyRow = true
			if r.plan.grouped {
				g.add(r.key(row), v)
			} else {
				scalar += v
			}
		}
		keys, sums = g.keys, g.sums
	} else {
		// Two-phase morsel schedule (parallel_agg.go): per-morsel partial
		// tables partitioned by group-key hash, merged per partition in
		// ascending morsel order, emitted partition-major. The schedule is
		// a function of the data and the morsel geometry alone, so running
		// it on one goroutine reproduces every worker count bit for bit.
		nm := (r.rows + morselRows - 1) / morselRows
		type morselPart struct {
			parts [aggPartitionsKernel]*outGroups
			sum   float64 // scalar partial
			rows  bool
		}
		partials := make([]*morselPart, nm)
		for m := 0; m < nm; m++ {
			if err := ctx.cancelled(); err != nil {
				return nil, err
			}
			lo, hi := m*morselRows, (m+1)*morselRows
			if hi > r.rows {
				hi = r.rows
			}
			mp := &morselPart{}
			for row := lo; row < hi; row++ {
				if r.filter != nil && !r.filter(row) {
					continue
				}
				v := r.sum(row)
				mp.rows = true
				if !r.plan.grouped {
					mp.sum += v
					continue
				}
				key := r.key(row)
				p := hashPartitionInt(key, 0, aggPartitionsKernel)
				if mp.parts[p] == nil {
					mp.parts[p] = newOutGroups()
				}
				mp.parts[p].add(key, v)
			}
			partials[m] = mp
		}
		if r.plan.grouped {
			g := newOutGroups()
			for p := 0; p < aggPartitionsKernel; p++ {
				base := len(g.keys)
				merged := &outGroups{pos: map[int64]int{}}
				for m := 0; m < nm; m++ {
					t := partials[m].parts[p]
					if t == nil {
						continue
					}
					for i, key := range t.keys {
						merged.add(key, t.sums[i])
					}
				}
				_ = base
				for i, key := range merged.keys {
					g.keys = append(g.keys, key)
					g.sums = append(g.sums, merged.sums[i])
				}
				anyRow = anyRow || len(merged.keys) > 0
			}
			keys, sums = g.keys, g.sums
		} else {
			// Merge scalar partials in ascending morsel order, skipping
			// morsels that contributed no rows (their partial is NULL).
			for m := 0; m < nm; m++ {
				if !partials[m].rows {
					continue
				}
				anyRow = true
				scalar += partials[m].sum
			}
		}
	}

	out := ctx.env.newStore()
	if collect {
		attachStats(out)
	}
	fail := func(err error) (tableStore, error) {
		out.Release()
		return nil, err
	}
	if r.plan.grouped {
		if r.plan.sorted {
			type kv struct {
				k int64
				v float64
			}
			rows := make([]kv, len(keys))
			for i := range keys {
				rows[i] = kv{keys[i], sums[i]}
			}
			sort.Slice(rows, func(i, j int) bool { return rows[i].k < rows[j].k })
			for i := range rows {
				keys[i], sums[i] = rows[i].k, rows[i].v
			}
		}
		var cols [2]colVec
		n := 0
		flush := func() error {
			if n == 0 {
				return nil
			}
			b := &rowBatch{cols: []colVec{cols[0], cols[1]}, n: n}
			err := out.AppendBatch(b)
			cols[0], cols[1] = cols[0][:0], cols[1][:0]
			n = 0
			return err
		}
		for i, key := range keys {
			cols[0] = append(cols[0], NewInt(key))
			cols[1] = append(cols[1], NewFloat(sums[i]))
			n++
			if n >= batchSize {
				if err := flush(); err != nil {
					return fail(err)
				}
			}
		}
		if err := flush(); err != nil {
			return fail(err)
		}
	} else {
		// One result row always: the sum, or — over empty input — the
		// aggregate's default NULL through the projection's COALESCE.
		v := Null
		switch {
		case anyRow:
			v = NewFloat(scalar)
		case r.plan.coalesce != nil:
			v = *r.plan.coalesce
		}
		if err := out.Append(Row{v}); err != nil {
			return fail(err)
		}
	}
	if err := out.Freeze(); err != nil {
		return fail(err)
	}
	return out, nil
}
