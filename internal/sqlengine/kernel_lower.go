package sqlengine

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Lowering: pattern-match the gate-stage plan shape and compile it into
// a store-independent kernel program (see the contract in kernel.go).

// Matcher decline reasons. Every reason is observable through
// KernelCounters() ("fallback_<reason>") and the EXPLAIN header.
const (
	kfBudgetLimited = "budget-limited"
	kfNoGateStage   = "no-gate-stage"
	kfProjectShape  = "project-shape"
	kfAggShape      = "agg-shape"
	kfDistinctAgg   = "distinct-agg"
	kfHavingShape   = "having-shape"
	kfJoinShape     = "join-shape"
	kfScanShape     = "scan-shape"
	kfSpilled       = "spilled"
	kfColumnTypes   = "column-types"
	kfUnsupported   = "unsupported-expr"
)

// chainAnnotation renders the EXPLAIN marker of a K-stage kernel run.
func chainAnnotation(stages int) string {
	return fmt.Sprintf("gate-chain(stages=%d)", stages)
}

// kIntFn is a compiled integer scalar closure over the state amplitude
// index s and (optionally) one gate-table integer column g.
type kIntFn func(s, g int64) int64

// kernelProg is a compiled, store-independent gate-stage program: the
// bit-arithmetic closures plus resolved physical column slots. Cached
// in KernelCache; execution re-binds it to the current table vectors.
type kernelProg struct {
	// inFn computes the probe key (the join's left key) from the state
	// index; outFn computes the group key (the target amplitude index)
	// from the state index and the gate's output-index column.
	inFn, outFn kIntFn
	// in, when non-nil, is inFn compiled to bit-mask terms (kIdxProg):
	// the fused loop evaluates it instead of calling the closure tree.
	in *kIdxProg
	// sCol is the physical state column holding the amplitude index.
	sCol int
	// s0a,s0b / s1a,s1b are the physical state float columns of the two
	// SUM arguments' products; g0a,g0b / g1a,g1b their gate-side
	// counterparts. sub0/sub1 select (a·b − c·d) vs (a·b + c·d).
	s0a, s0b, s1a, s1b int
	g0a, g0b, g1a, g1b int
	sub0, sub1         bool
	// gIn is the physical gate probe (build-key) column; gOut the
	// physical gate column consumed by outFn (-1 when outFn ignores the
	// gate side).
	gIn, gOut int
	// having/eps2 replicate the pruning HAVING clause
	// ((r²+i²) > eps²) at emission time.
	having bool
	eps2   float64
	// gOutFn, when non-nil, evaluates the gate-side contribution of a
	// group key of the form (s & keep) | gOutFn(out): the signature a
	// dense (array-indexed) accumulator can bound, see bindGateStage.
	// Binding stores gOutFn(out) in each gate row (kGateRow.outBits), so
	// the fused loop computes the key as (s & keep) | outBits without
	// calling outFn.
	gOutFn kIntFn
	keep   int64
}

// groupKey computes the group key of state index s joined with gate
// row g.
func (p *kernelProg) groupKey(s int64, g *kGateRow) int64 {
	if p.gOutFn != nil {
		return s&p.keep | g.outBits
	}
	return p.outFn(s, g.out)
}

// gateKernel is one matched stage: the core plan nodes plus the
// compiled program. The state side (join.left) is bound at run time:
// the bottom stage of a chain scans its store, every later stage reads
// the stage below it in memory.
type gateKernel struct {
	core *projectNode
	agg  *aggNode
	join *joinNode
	gate *storeScanNode
	prog *kernelProg
	// cached reports that prog came from the kernel cache rather than
	// a fresh compile (kernelRun, trace counters).
	cached bool
}

// findCore is the kernel tier's one wrapper walk — execution and
// EXPLAIN both locate a gate-stage core through it (compileChain). It walks
// a plan root through order-neutral wrapper operators (sort,
// projection, alias, filter, limit — none of them change what the core
// computes, only how its output is presented — and the statNode
// instrumentation of EXPLAIN ANALYZE and traced execution) to the core
// projection, returning it with the setter that replaces it in its
// parent (nil when the core is the root). It never descends into join,
// aggregate or CTE children: a core below those is not a
// materialization boundary the kernel may claim.
func findCore(root planNode) (*projectNode, func(planNode)) {
	cur := root
	var set func(planNode)
	for {
		switch n := cur.(type) {
		case *statNode:
			set = func(c planNode) { n.child = c }
			cur = n.child
		case *projectNode:
			if agg, _ := coreAggOf(n); agg != nil {
				return n, set
			}
			set = func(c planNode) { n.child = c }
			cur = n.child
		case *sortNode:
			set = func(c planNode) { n.child = c }
			cur = n.child
		case *aliasNode:
			set = func(c planNode) { n.child = c }
			cur = n.child
		case *filterNode:
			set = func(c planNode) { n.child = c }
			cur = n.child
		case *limitNode:
			set = func(c planNode) { n.child = c }
			cur = n.child
		case *sliceProjectNode:
			set = func(c planNode) { n.child = c }
			cur = n.child
		default:
			return nil, nil
		}
	}
}

// unwrapStat strips statNode instrumentation wrappers. The kernel
// matcher's structural checks look at the operators themselves; the
// wrappers are transparent (same schema, same rows).
func unwrapStat(n planNode) planNode {
	for {
		sn, ok := n.(*statNode)
		if !ok {
			return n
		}
		n = sn.child
	}
}

// coreAggOf returns the aggregate (and the pruning HAVING filter, when
// present) directly under a candidate core projection.
func coreAggOf(core *projectNode) (*aggNode, *filterNode) {
	switch c := unwrapStat(core.child).(type) {
	case *aggNode:
		return c, nil
	case *filterNode:
		if a, ok := unwrapStat(c.child).(*aggNode); ok {
			return a, c
		}
	}
	return nil, nil
}

// compileGateStage matches the core rooted at a projection and compiles
// (or fetches from the kernel cache) its program. The state side may be
// a store scan or a CTE reference, materialized or not: binding decides
// how the stage reads it. dry is EXPLAIN's structural preview, which
// skips the cache and the counters.
func compileGateStage(core *projectNode, env *storageEnv, dry bool) (*gateKernel, string) {
	agg, having := coreAggOf(core)
	if agg == nil {
		return nil, kfNoGateStage
	}
	// Projection: a pure pass-through of the aggregate's three outputs
	// (group key, SUM real, SUM imaginary) in order.
	aggSchema := agg.schema()
	if len(core.exprs) != 3 || len(aggSchema) != 3 {
		return nil, kfProjectShape
	}
	for i, e := range core.exprs {
		ref, ok := e.(*ColumnRef)
		if !ok {
			return nil, kfProjectShape
		}
		idx, err := aggSchema.resolveRef(ref)
		if err != nil || idx != i {
			return nil, kfProjectShape
		}
	}
	// Aggregate: one group key, two plain SUMs.
	if len(agg.groupBy) != 1 || len(agg.aggs) != 2 {
		return nil, kfAggShape
	}
	for _, a := range agg.aggs {
		if a.Distinct {
			return nil, kfDistinctAgg
		}
		if a.Name != "SUM" || a.Arg == nil {
			return nil, kfAggShape
		}
	}
	// HAVING: the translated zero-amplitude pruning predicate
	// (a0² + a1²) > eps², nothing else.
	eps2 := 0.0
	if having != nil {
		var ok bool
		eps2, ok = parseKernelHaving(having.pred, aggSchema)
		if !ok {
			return nil, kfHavingShape
		}
	}
	// Join: streaming INNER hash join on a single equi-key with no
	// residual (grace partitioning changes the probe schedule the
	// kernel replicates).
	join, ok := unwrapStat(agg.child).(*joinNode)
	if !ok {
		return nil, kfJoinShape
	}
	if join.joinType != "INNER" || len(join.leftKeys) != 1 || len(join.rightKeys) != 1 ||
		join.residual != nil || join.strategy == joinGrace {
		return nil, kfJoinShape
	}
	gateScan := scanOf(join.right)
	_, stateScan := unwrapStat(join.left).(*storeScanNode)
	if gateScan == nil || (!stateScan && cteOf(join.left) == nil) {
		return nil, kfScanShape
	}
	kern := &gateKernel{core: core, agg: agg, join: join, gate: gateScan}
	var cache *KernelCache
	if !dry {
		cache = env.kernelCache
	}
	var key string
	if cache != nil {
		if kern.prog, key = lookupGateProgram(cache, agg, having, join, gateScan); kern.prog != nil {
			kernelBump(env, func(k *kernelCounterSet) *atomic.Int64 { return &k.cacheHits }, 1)
			kern.cached = true
			return kern, ""
		}
	}
	leftSchema := join.left.schema()
	joinSchema := append(append(planSchema{}, leftSchema...), gateScan.schema()...)
	prog, reason := compileGateProgram(agg, having, join, joinSchema, len(leftSchema), eps2)
	if prog == nil {
		return nil, reason
	}
	if !dry {
		kernelBump(env, func(k *kernelCounterSet) *atomic.Int64 { return &k.compiles }, 1)
	}
	if cache != nil {
		cache.store(key, prog)
	}
	kern.prog = prog
	return kern, ""
}

// chainStateSlots validates the intermediate-layout contract of a chain
// stage's schema-slot program: the producing stage emits (index, real,
// imaginary) as columns (0, 1, 2), so the consuming stage's state-side
// slots must address exactly that layout — the integer index at slot 0
// and every float factor at slot 1 or 2.
func chainStateSlots(prog *kernelProg) bool {
	f := func(s int) bool { return s == 1 || s == 2 }
	return prog.sCol == 0 && f(prog.s0a) && f(prog.s0b) && f(prog.s1a) && f(prog.s1b)
}

// compileGateProgram compiles the matched core's expressions. Slots are
// schema slots, which are the scanned stores' physical columns.
func compileGateProgram(agg *aggNode, having *filterNode, join *joinNode, joinSchema planSchema, nLeft int, eps2 float64) (*kernelProg, string) {
	// The probe key: integer bit arithmetic over exactly one state
	// column (the amplitude index).
	inBind := &kColBinder{schema: joinSchema, nLeft: nLeft, sCol: -1, gCol: -1, leftOnly: true}
	inFn, err := compileKernelInt(join.leftKeys[0], inBind)
	if err != nil || inBind.sCol < 0 {
		return nil, kfUnsupported
	}
	// The build key: a bare gate column.
	rref, ok := join.rightKeys[0].(*ColumnRef)
	if !ok {
		return nil, kfUnsupported
	}
	gIn, rerr := joinSchema[nLeft:].resolveRef(rref)
	if rerr != nil {
		return nil, kfUnsupported
	}
	// The group key: bit arithmetic over the same state column plus at
	// most one gate column (the gate's output index).
	outBind := &kColBinder{schema: joinSchema, nLeft: nLeft, sCol: inBind.sCol, gCol: -1}
	outFn, err := compileKernelInt(agg.groupBy[0], outBind)
	if err != nil {
		return nil, kfUnsupported
	}
	// The SUM arguments: (state·gate) ± (state·gate) complex products.
	s0, reason := parseKernelSum(agg.aggs[0].Arg, joinSchema, nLeft)
	if reason != "" {
		return nil, reason
	}
	s1, reason := parseKernelSum(agg.aggs[1].Arg, joinSchema, nLeft)
	if reason != "" {
		return nil, reason
	}
	prog := &kernelProg{
		inFn: inFn, outFn: outFn,
		sCol: inBind.sCol,
		s0a:  s0.aS, s0b: s0.bS, s1a: s1.aS, s1b: s1.bS,
		g0a: s0.aG, g0b: s0.bG, g1a: s1.aG, g1b: s1.bG,
		sub0: s0.sub, sub1: s1.sub,
		gIn:    gIn,
		gOut:   outBind.gCol,
		having: having != nil,
		eps2:   eps2,
	}
	prog.in = compileIdxProg(join.leftKeys[0], func(c *ColumnRef) bool {
		idx, err := joinSchema.resolveRef(c)
		return err == nil && idx == prog.sCol
	})
	prog.gOutFn, prog.keep = denseGateSpec(agg.groupBy[0], joinSchema, nLeft, prog.sCol)
	return prog, ""
}

// kColBinder resolves column references while compiling kernel integer
// expressions, pinning the expression to at most one state column and
// one gate column.
type kColBinder struct {
	schema   planSchema
	nLeft    int
	sCol     int // join-schema slot of the state index column (-1 unseen)
	gCol     int // gate-schema slot of the gate column (-1 unseen)
	leftOnly bool
}

func (b *kColBinder) resolve(c *ColumnRef) (byte, error) {
	idx, err := b.schema.resolveRef(c)
	if err != nil {
		return 0, err
	}
	if idx < b.nLeft {
		if b.sCol >= 0 && b.sCol != idx {
			return 0, fmt.Errorf("kernel: two state columns")
		}
		b.sCol = idx
		return 's', nil
	}
	if b.leftOnly {
		return 0, fmt.Errorf("kernel: gate column in probe key")
	}
	g := idx - b.nLeft
	if b.gCol >= 0 && b.gCol != g {
		return 0, fmt.Errorf("kernel: two gate columns")
	}
	b.gCol = g
	return 'g', nil
}

// compileKernelInt compiles an integer scalar expression into a
// closure. The supported operators mirror value.go's INTEGER semantics
// exactly: +, -, * wrap; & and | are plain; << and >> yield 0 outside
// [0,63] (>> is arithmetic); unary - negates and ~ complements.
// Division and modulo are admitted only with a nonzero integer literal
// divisor — a zero divisor yields SQL NULL in the engine, which the
// closure cannot represent.
func compileKernelInt(e Expr, bind *kColBinder) (kIntFn, error) {
	switch n := e.(type) {
	case *Literal:
		if n.Val.T != TypeInt && n.Val.T != TypeBool {
			return nil, fmt.Errorf("kernel: non-integer literal")
		}
		v := n.Val.I
		return func(_, _ int64) int64 { return v }, nil
	case *ColumnRef:
		which, err := bind.resolve(n)
		if err != nil {
			return nil, err
		}
		if which == 's' {
			return func(s, _ int64) int64 { return s }, nil
		}
		return func(_, g int64) int64 { return g }, nil
	case *UnaryExpr:
		x, err := compileKernelInt(n.X, bind)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case "-":
			return func(s, g int64) int64 { return -x(s, g) }, nil
		case "~":
			return func(s, g int64) int64 { return ^x(s, g) }, nil
		}
		return nil, fmt.Errorf("kernel: unary %s", n.Op)
	case *BinaryExpr:
		if n.Op == "/" || n.Op == "%" {
			lit, ok := n.R.(*Literal)
			if !ok || lit.Val.T != TypeInt || lit.Val.I == 0 {
				return nil, fmt.Errorf("kernel: non-literal divisor")
			}
		}
		l, err := compileKernelInt(n.L, bind)
		if err != nil {
			return nil, err
		}
		r, err := compileKernelInt(n.R, bind)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case "&":
			return func(s, g int64) int64 { return l(s, g) & r(s, g) }, nil
		case "|":
			return func(s, g int64) int64 { return l(s, g) | r(s, g) }, nil
		case "+":
			return func(s, g int64) int64 { return l(s, g) + r(s, g) }, nil
		case "-":
			return func(s, g int64) int64 { return l(s, g) - r(s, g) }, nil
		case "*":
			return func(s, g int64) int64 { return l(s, g) * r(s, g) }, nil
		case "/":
			return func(s, g int64) int64 { return l(s, g) / r(s, g) }, nil
		case "%":
			return func(s, g int64) int64 { return l(s, g) % r(s, g) }, nil
		case "<<":
			return func(s, g int64) int64 {
				b := r(s, g)
				if b < 0 || b > 63 {
					return 0
				}
				return l(s, g) << uint(b)
			}, nil
		case ">>":
			return func(s, g int64) int64 {
				b := r(s, g)
				if b < 0 || b > 63 {
					return 0
				}
				return l(s, g) >> uint(b)
			}, nil
		}
		return nil, fmt.Errorf("kernel: binary %s", n.Op)
	}
	return nil, fmt.Errorf("kernel: unsupported expression %T", e)
}

// kSumSpec is one parsed SUM argument (lA·gA) ± (lB·gB): join-schema
// slots of the state (aS,bS) and gate (aG,bG) factors.
type kSumSpec struct {
	aS, aG, bS, bG int
	sub            bool
}

// parseKernelSum matches the complex multiply-accumulate shape of a
// translated SUM argument: a sum or difference of two products, each
// product one state float column times one gate float column.
func parseKernelSum(e Expr, joinSchema planSchema, nLeft int) (kSumSpec, string) {
	var spec kSumSpec
	top, ok := e.(*BinaryExpr)
	if !ok || (top.Op != "+" && top.Op != "-") {
		return spec, kfUnsupported
	}
	spec.sub = top.Op == "-"
	var reason string
	spec.aS, spec.aG, reason = parseKernelProduct(top.L, joinSchema, nLeft)
	if reason != "" {
		return spec, reason
	}
	spec.bS, spec.bG, reason = parseKernelProduct(top.R, joinSchema, nLeft)
	if reason != "" {
		return spec, reason
	}
	return spec, ""
}

// parseKernelProduct matches one state·gate product, returning the
// state slot (join schema) and gate slot (gate schema). Factor order is
// irrelevant: float multiplication commutes bit-exactly.
func parseKernelProduct(e Expr, joinSchema planSchema, nLeft int) (int, int, string) {
	mul, ok := e.(*BinaryExpr)
	if !ok || mul.Op != "*" {
		return 0, 0, kfUnsupported
	}
	li, ok1 := resolveRef(mul.L, joinSchema)
	ri, ok2 := resolveRef(mul.R, joinSchema)
	if !ok1 || !ok2 {
		return 0, 0, kfUnsupported
	}
	switch {
	case li < nLeft && ri >= nLeft:
		return li, ri - nLeft, ""
	case ri < nLeft && li >= nLeft:
		return ri, li - nLeft, ""
	}
	return 0, 0, kfUnsupported
}

func resolveRef(e Expr, schema planSchema) (int, bool) {
	ref, ok := e.(*ColumnRef)
	if !ok {
		return 0, false
	}
	idx, err := schema.resolveRef(ref)
	if err != nil {
		return 0, false
	}
	return idx, true
}

// parseKernelHaving matches the translated pruning predicate
// (a0·a0 + a1·a1) > eps² over the aggregate schema (slots 1 and 2 are
// the two SUMs, in either order), returning the threshold.
func parseKernelHaving(pred Expr, aggSchema planSchema) (float64, bool) {
	cmp, ok := pred.(*BinaryExpr)
	if !ok || cmp.Op != ">" {
		return 0, false
	}
	lit, ok := cmp.R.(*Literal)
	if !ok || lit.Val.T != TypeFloat {
		return 0, false
	}
	add, ok := cmp.L.(*BinaryExpr)
	if !ok || add.Op != "+" {
		return 0, false
	}
	sq := func(e Expr) (int, bool) {
		mul, ok := e.(*BinaryExpr)
		if !ok || mul.Op != "*" {
			return 0, false
		}
		li, ok1 := resolveRef(mul.L, aggSchema)
		ri, ok2 := resolveRef(mul.R, aggSchema)
		if !ok1 || !ok2 || li != ri {
			return 0, false
		}
		return li, true
	}
	a, ok1 := sq(add.L)
	b, ok2 := sq(add.R)
	if !ok1 || !ok2 {
		return 0, false
	}
	if !(a == 1 && b == 2) && !(a == 2 && b == 1) {
		return 0, false
	}
	return lit.Val.F, true
}

// denseGateSpec recognizes the canonical mask-merge group key
// (s & keep) | f(out) — in either operand order, keep any constant —
// and returns keep with the compiled gate-side half f. With it,
// bindGateStage can bound every group key by pow2mask(OR s) | OR(f(out))
// and use a dense array accumulator: for s ≥ 0, (s & keep) ⊆ the bits
// of s regardless of the mask's sign (the golden plans carry negative
// mask literals like s & -2).
func denseGateSpec(e Expr, joinSchema planSchema, nLeft, sCol int) (kIntFn, int64) {
	or, ok := e.(*BinaryExpr)
	if !ok || or.Op != "|" {
		return nil, 0
	}
	// masked reports the keep mask of an (s & keep) operand.
	masked := func(x Expr) (int64, bool) {
		and, ok := x.(*BinaryExpr)
		if !ok || and.Op != "&" {
			return 0, false
		}
		p := compileIdxProg(and, func(c *ColumnRef) bool {
			idx, ok := resolveRef(c, joinSchema)
			return ok && idx == sCol
		})
		if p == nil || p.c != 0 || len(p.terms) != 1 || p.terms[0].shr != 0 || p.terms[0].shl != 0 {
			return 0, false
		}
		return p.terms[0].mask, true
	}
	keep, ok := masked(or.L)
	gateSide := or.R
	if !ok {
		if keep, ok = masked(or.R); !ok {
			return nil, 0
		}
		gateSide = or.L
	}
	bind := &kColBinder{schema: joinSchema, nLeft: nLeft, sCol: -1, gCol: -1}
	fn, err := compileKernelInt(gateSide, bind)
	if err != nil || bind.sCol >= 0 {
		return nil, 0 // the gate side must not touch the state index
	}
	return fn, keep
}

// kIdxTerm is one shift-mask term ((s >> shr) & mask) << shl of an
// index program.
type kIdxTerm struct {
	mask     int64
	shr, shl uint8
}

// kIdxProg is an integer expression of the state index s compiled to
// bit-mask form, c | OR_t ((s >> shr_t) & mask_t) << shl_t, so the
// fused loop evaluates it without a closure call per operator. Terms
// with equal shifts are merged, so a gather of k qubits has at most k
// terms.
type kIdxProg struct {
	c     int64
	terms []kIdxTerm
}

func (p *kIdxProg) eval(s int64) int64 {
	v := p.c
	for _, t := range p.terms {
		v |= ((s >> t.shr) & t.mask) << t.shl
	}
	return v
}

// compileIdxProg compiles e into an index program when it uses only the
// state index (isS accepts its column references), integer literals,
// &, | and the shifts << and >> by a constant in [0, 63]; ~ and unary
// - are admitted on constants. This grammar covers every bitwise form
// core/mask.go emits. Any other shape — the arithmetic encoding,
// hand-written SQL — returns nil and keeps compileKernelInt's closure.
// Each rule is exact on all int64 inputs, negative ones included, under
// value.go's INTEGER semantics: & with a constant, << and arithmetic >>
// all distribute over |.
func compileIdxProg(e Expr, isS func(*ColumnRef) bool) *kIdxProg {
	switch n := e.(type) {
	case *Literal:
		if n.Val.T != TypeInt {
			return nil
		}
		return &kIdxProg{c: n.Val.I}
	case *ColumnRef:
		if !isS(n) {
			return nil
		}
		return &kIdxProg{terms: []kIdxTerm{{mask: -1}}}
	case *UnaryExpr:
		x := compileIdxProg(n.X, isS)
		if x == nil || len(x.terms) > 0 {
			return nil
		}
		switch n.Op {
		case "~":
			return &kIdxProg{c: ^x.c}
		case "-":
			return &kIdxProg{c: -x.c}
		}
		return nil
	case *BinaryExpr:
		l := compileIdxProg(n.L, isS)
		if l == nil {
			return nil
		}
		r := compileIdxProg(n.R, isS)
		if r == nil {
			return nil
		}
		switch n.Op {
		case "|":
			out := &kIdxProg{c: l.c | r.c}
			for _, t := range append(l.terms, r.terms...) {
				out.add(t)
			}
			return out
		case "&":
			switch {
			case len(r.terms) == 0:
				return l.and(r.c)
			case len(l.terms) == 0:
				return r.and(l.c)
			}
			return nil
		case "<<", ">>":
			if len(r.terms) > 0 || r.c < 0 || r.c > 63 {
				return nil
			}
			if n.Op == "<<" {
				return l.shiftLeft(uint8(r.c))
			}
			return l.shiftRight(uint8(r.c))
		}
	}
	return nil
}

// add ORs term t into p, merging it into a term with the same shifts.
// A zero mask contributes nothing and is dropped.
func (p *kIdxProg) add(t kIdxTerm) {
	if t.mask == 0 {
		return
	}
	for i := range p.terms {
		if p.terms[i].shr == t.shr && p.terms[i].shl == t.shl {
			p.terms[i].mask |= t.mask
			return
		}
	}
	p.terms = append(p.terms, t)
}

// and is p & m: bit j of (x << shl) & m is bit j-shl of x & (m >> shl).
func (p *kIdxProg) and(m int64) *kIdxProg {
	out := &kIdxProg{c: p.c & m}
	for _, t := range p.terms {
		t.mask &= m >> t.shl
		out.add(t)
	}
	return out
}

// shiftLeft is p << k; a term shifted past bit 63 is zero.
func (p *kIdxProg) shiftLeft(k uint8) *kIdxProg {
	out := &kIdxProg{c: p.c << k}
	for _, t := range p.terms {
		if int(t.shl)+int(k) <= 63 {
			t.shl += k
			out.add(t)
		}
	}
	return out
}

// shiftRight is p >> k (arithmetic). An unshifted term absorbs k into
// its right shift (s >> 63 already replicates the sign, so the sum caps
// at 63) and its mask. A left-shifted term folds only when its mask is
// non-negative and narrow enough that the left shift lost no bits;
// otherwise the program declines.
func (p *kIdxProg) shiftRight(k uint8) *kIdxProg {
	out := &kIdxProg{c: p.c >> k}
	for _, t := range p.terms {
		d := k
		if t.shl > 0 {
			if t.mask < 0 || t.mask >= int64(1)<<(63-t.shl) {
				return nil
			}
			if k <= t.shl {
				t.shl -= k
				out.add(t)
				continue
			}
			d, t.shl = k-t.shl, 0
		}
		t.shr = min(t.shr+d, 63)
		t.mask >>= d
		out.add(t)
	}
	return out
}

// kernelKeyBufs recycles the buffers gate-stage cache keys are
// appended into, so building and looking up a warm key allocates
// nothing.
var kernelKeyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// lookupGateProgram looks a gate stage's compiled program up in cache
// under appendGateStageKey. On a hit it returns the program; on a miss
// it returns the key as a string, for storing the program once
// compiled.
func lookupGateProgram(cache *KernelCache, agg *aggNode, having *filterNode, join *joinNode, gateScan *storeScanNode) (*kernelProg, string) {
	bp := kernelKeyBufs.Get().(*[]byte)
	b := appendGateStageKey((*bp)[:0], agg, having, join, gateScan)
	prog, hit := cache.lookup(b)
	key := ""
	if !hit {
		key = string(b)
	}
	*bp = b
	kernelKeyBufs.Put(bp)
	return prog, key
}

// appendGateStageKey appends the canonical form of everything a
// compiled program depends on: the expressions (with resolved slots and
// literal values) and the schema widths. A scan's schema slots are its
// store's physical columns, so the slots pin the column layout too. The
// key is the program's identity: two stages with equal keys compile to
// the same program.
func appendGateStageKey(b []byte, agg *aggNode, having *filterNode, join *joinNode, gateScan *storeScanNode) []byte {
	left := join.left.schema()
	both := keySchema{left, gateScan.cols}
	b = append(b, "v1|nl="...)
	b = strconv.AppendInt(b, int64(len(left)), 10)
	b = append(b, "|nr="...)
	b = strconv.AppendInt(b, int64(len(gateScan.cols)), 10)
	b = append(b, "|in="...)
	b = appendCanonicalExpr(b, join.leftKeys[0], keySchema{left: left})
	b = append(b, "|rk="...)
	b = appendCanonicalExpr(b, join.rightKeys[0], keySchema{left: gateScan.cols})
	b = append(b, "|out="...)
	b = appendCanonicalExpr(b, agg.groupBy[0], both)
	b = append(b, "|s0="...)
	b = appendCanonicalExpr(b, agg.aggs[0].Arg, both)
	b = append(b, "|s1="...)
	b = appendCanonicalExpr(b, agg.aggs[1].Arg, both)
	b = append(b, "|hv="...)
	if having != nil {
		return appendCanonicalExpr(b, having.pred, keySchema{left: agg.schema()})
	}
	return append(b, '-')
}

// keySchema is the schema a key expression resolves against: left,
// then right at offset len(left), as if concatenated — resolved in
// place, so a join's key needs no copy of the join schema.
type keySchema struct{ left, right planSchema }

// resolve is planSchema.resolveColumn over the concatenation, without
// the error: false for an unknown or ambiguous column.
func (s keySchema) resolve(table, name string) (int, bool) {
	found, off := -1, 0
	for _, part := range [2]planSchema{s.left, s.right} {
		for i, c := range part {
			if !strings.EqualFold(c.name, name) || (table != "" && !strings.EqualFold(c.table, table)) {
				continue
			}
			if found >= 0 {
				return 0, false
			}
			found = off + i
		}
		off += len(part)
	}
	return found, found >= 0
}

// appendCanonicalExpr appends an expression with column references
// replaced by their resolved slot index, so that "T0.s" and "s" (when
// unambiguous) render alike.
func appendCanonicalExpr(b []byte, e Expr, s keySchema) []byte {
	switch n := e.(type) {
	case *ColumnRef:
		if idx, ok := s.resolve(n.Table, n.Name); ok {
			return strconv.AppendInt(append(b, "#c"...), int64(idx), 10)
		}
		return append(append(b, "?unresolved:"...), strings.ToLower(n.Deparse())...)
	case *BinaryExpr:
		b = appendCanonicalExpr(append(b, '('), n.L, s)
		b = append(append(append(b, ' '), n.Op...), ' ')
		return append(appendCanonicalExpr(b, n.R, s), ')')
	case *UnaryExpr:
		b = append(append(append(b, '('), n.Op...), ' ')
		return append(appendCanonicalExpr(b, n.X, s), ')')
	case *FuncCall:
		b = append(b, n.Name...)
		if n.Star {
			return append(b, "(*)"...)
		}
		b = append(b, '(')
		if n.Distinct {
			b = append(b, "DISTINCT "...)
		}
		b = appendCanonicalList(b, n.Args, s)
		return append(b, ')')
	case *CaseExpr:
		b = append(b, "CASE"...)
		if n.Operand != nil {
			b = appendCanonicalExpr(append(b, ' '), n.Operand, s)
		}
		for _, w := range n.Whens {
			b = appendCanonicalExpr(append(b, " WHEN "...), w.When, s)
			b = appendCanonicalExpr(append(b, " THEN "...), w.Then, s)
		}
		if n.Else != nil {
			b = appendCanonicalExpr(append(b, " ELSE "...), n.Else, s)
		}
		return append(b, " END"...)
	case *IsNullExpr:
		b = append(appendCanonicalExpr(b, n.X, s), " IS "...)
		if n.Not {
			b = append(b, "NOT "...)
		}
		return append(b, "NULL"...)
	case *InExpr:
		b = appendCanonicalExpr(b, n.X, s)
		if n.Not {
			b = append(b, " NOT"...)
		}
		b = appendCanonicalList(append(b, " IN ("...), n.List, s)
		return append(b, ')')
	case *BetweenExpr:
		b = appendCanonicalExpr(b, n.X, s)
		if n.Not {
			b = append(b, " NOT"...)
		}
		b = appendCanonicalExpr(append(b, " BETWEEN "...), n.Lo, s)
		return appendCanonicalExpr(append(b, " AND "...), n.Hi, s)
	case *CastExpr:
		b = appendCanonicalExpr(append(b, "CAST("...), n.X, s)
		return append(append(append(b, " AS "...), n.To.String()...), ')')
	case *Literal:
		switch n.Val.T {
		case TypeInt:
			return strconv.AppendInt(b, n.Val.I, 10)
		case TypeFloat:
			return strconv.AppendFloat(b, n.Val.F, 'g', -1, 64)
		}
	case *ParamRef:
		return strconv.AppendInt(append(b, '?'), int64(n.Index), 10)
	}
	return append(b, e.Deparse()...)
}

// appendCanonicalList appends comma-separated canonical expressions.
func appendCanonicalList(b []byte, list []Expr, s keySchema) []byte {
	for i, x := range list {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendCanonicalExpr(b, x, s)
	}
	return b
}
