package sqlengine

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"
)

// Whole-circuit chain fusion: multi-stage fused execution without
// intermediate materialization.
//
// A translated circuit is a chain of gate stages, each reading exactly
// the previous stage's state table — as chained CTEs in single-query
// mode, or (after core.FusedStatements regroups them) inside one
// synthesized CREATE TABLE … AS WITH. With the optimizer on, every
// interior stage CTE stays unmaterialized until its single reference
// demands it (the reference sits under the next stage's float SUM, so
// inlining is blocked by the bit-neutrality contract). That demand —
// planner.materializeCTE — is this tier's hook: instead of
// materializing the referenced CTE and recursing stage by stage,
// fuseCTEChain walks the reference chain to the bottom, compiles every
// stage with the single-stage kernel machinery (kernel_lower.go), and
// runs all of them in one pass. The amplitudes flow between stages
// through double-buffered in-memory (key, re, im) triples; only the
// topmost chain stage's output is materialized into a ColStore. The
// intermediate stage tables never exist: no storage, no spill
// eligibility. Under a bounded budget the run reserves the buffers and
// the accumulator instead, and declines when they do not fit.
//
// Determinism contract (extends kernel.go's): a chainBuf holds exactly
// the rows, in exactly the order, that the stage's materialized store
// would hold — the kernel's emission order with the pruning HAVING
// applied at emission (kEmitter.add's schedule verbatim). Each stage
// then runs the same serial-or-morsel accumulation schedule the
// single-stage kernel would have chosen for a store of that row count
// (the buffers never spill, so ColStore.morselCount reduces to the same
// ceil(rows / morselRows) geometry). Amplitudes are therefore
// bit-identical to unbounded stage-at-a-time execution at every worker
// count, layout, encoding, optimizer setting, and budget that lets the
// chain run; the differential matrix in kernel_chain_test.go asserts
// it.

// cteStubNode stands in for an unmaterialized CTE reference while a
// chain stage's plan is lowered for compilation only (planner.stubCTE):
// it carries the reference's schema and is never opened.
type cteStubNode struct {
	name string
	cols planSchema
}

func (n *cteStubNode) schema() planSchema { return n.cols }

func (n *cteStubNode) open(*execCtx) (batchIter, error) {
	return nil, fmt.Errorf("sqlengine: internal: cteStubNode is compile-only")
}

// chainStage is one compiled-and-gate-bound stage of a fused chain.
type chainStage struct {
	kern *gateKernel
	// Interior binding (stages after the first): the gate side's bucket
	// table and output-index vector, bound from the real gate table.
	buckets  map[int64][]kGateRow
	gOut     []int64
	gateRows int
}

// chainPlan is a compiled chain, bottom stage first. stages[0] binds
// its state side to a real store (base table or an already-materialized
// CTE); every later stage consumes the previous stage's in-memory
// buffer.
type chainPlan struct {
	stages []*chainStage
}

// chainBuf is the in-memory intermediate between fused stages: the
// exact post-HAVING rows, in the exact order, the stage's materialized
// store would have held. It doubles as the kernel's emission sink
// (kSink) and the next stage's input binding.
type chainBuf struct {
	having         bool
	eps2           float64
	keys           []int64
	re, im         []float64
	minKey, maxKey int64
	any            bool
}

// reset readies a recycled buffer to receive a stage's output: empty,
// with the stage's pruning threshold, and capacity for at least hint
// rows (kept from earlier stages, grown only when a stage needs more).
func (b *chainBuf) reset(having bool, eps2 float64, hint int64) {
	b.having, b.eps2 = having, eps2
	if c := int(min(hint, maxAccPresize)); cap(b.keys) < c {
		b.keys = make([]int64, 0, c)
		b.re = make([]float64, 0, c)
		b.im = make([]float64, 0, c)
	}
	b.keys, b.re, b.im = b.keys[:0], b.re[:0], b.im[:0]
	b.minKey, b.maxKey, b.any = 0, 0, false
}

// footprint is the buffer's size once reset(…, hint) has run (hint 0:
// its current size).
func (b *chainBuf) footprint(hint int64) int64 {
	return ampRowBytes * max(int64(cap(b.keys)), min(hint, maxAccPresize))
}

// emitAll implements kSink, applying the same pruning HAVING as
// kEmitter.
func (b *chainBuf) emitAll(keys []int64, r, i []float64) error {
	// At most len(keys) rows survive: grow once, not per append.
	b.keys = slices.Grow(b.keys, len(keys))
	b.re = slices.Grow(b.re, len(keys))
	b.im = slices.Grow(b.im, len(keys))
	for idx, key := range keys {
		rv, iv := r[idx], i[idx]
		if b.having && pruned(b.eps2, rv, iv) {
			continue
		}
		b.keys = append(b.keys, key)
		b.re = append(b.re, rv)
		b.im = append(b.im, iv)
		if !b.any || key < b.minKey {
			b.minKey = key
		}
		if !b.any || key > b.maxKey {
			b.maxKey = key
		}
		b.any = true
	}
	return nil
}

// fuseCTEChain is the materializeCTE hook: when d tops a fusable run of
// unmaterialized single-use gate-stage CTEs, execute the whole run as
// one fused pass and install the result as d's store. Returns true when
// it did (or failed trying — a real execution error propagates); false
// declines back to stage-at-a-time materialization, counting the
// decline reason once per statement under "fallback_chain-*".
func (p *planner) fuseCTEChain(d *cteDef) (bool, error) {
	env := p.ctx.env
	if p.explain || p.stubCTE || !env.fusion || !env.kernels || !env.optimizer {
		return false, nil
	}
	chain := collectCTEChain(d)
	if len(chain) < 2 {
		return false, nil
	}
	plan, reason := p.compileChain(chain)
	if plan == nil {
		p.chainFallback(reason)
		return false, nil
	}
	bound0, reason := bindChain(env, plan)
	if bound0 == nil {
		p.chainFallback(reason)
		return false, nil
	}
	start := time.Now()
	store, err := runChainKernel(p.ctx, plan, bound0)
	if err == errChainBudget {
		// Nothing escaped: the refusal came before the output store
		// existed. Stage-at-a-time execution may still run single-stage
		// kernels, each reserving its own smaller working set.
		p.chainFallback(kfChainBudgetLimited)
		return false, nil
	}
	if err != nil {
		return true, err
	}
	stages := int64(len(plan.stages))
	kernelBump(env, func(k *kernelCounterSet) *atomic.Int64 { return &k.executions }, stages)
	kernelBump(env, func(k *kernelCounterSet) *atomic.Int64 { return &k.chainExecutions }, 1)
	kernelBump(env, func(k *kernelCounterSet) *atomic.Int64 { return &k.chainStages }, stages)
	kernelBump(env, func(k *kernelCounterSet) *atomic.Int64 { return &k.chainElided }, stages-1)
	wall := time.Since(start)
	p.ctx.chainExec = &chainExecStat{
		wall:    wall,
		stages:  stages,
		rowsIn:  int64(bound0.rows),
		rowsOut: store.Len(),
	}
	sp := p.ctx.span.CompleteChild("kernel-chain", start, wall)
	sp.Add("stages", stages)
	sp.Add("rows_in", int64(bound0.rows))
	sp.Add("rows_out", store.Len())
	p.cleanup = append(p.cleanup, store)
	d.store = store
	return true, nil
}

// chainFallback records one chain decline, at most once per statement
// (the demand-driven materialization recursion would otherwise count
// every suffix of the same chain).
func (p *planner) chainFallback(reason string) {
	if p.chainCounted {
		return
	}
	p.chainCounted = true
	if !strings.HasPrefix(reason, "chain-") {
		reason = "chain-" + reason
	}
	kernelFallback(p.ctx.env, reason)
}

// collectCTEChain walks the stage chain downward from d: each link is a
// CTE plan containing exactly one CTE reference, to an unmaterialized,
// non-inline, single-use definition. Returns the chain bottom-first
// (the last entry is d).
func collectCTEChain(d *cteDef) []*cteDef {
	seen := map[*cteDef]bool{d: true}
	chain := []*cteDef{d}
	cur := d
	for {
		refs := cteRefsIn(cur.plan)
		if len(refs) != 1 {
			break
		}
		prev := refs[0].cte
		if prev == nil || prev.inline || prev.store != nil || prev.uses != 1 || seen[prev] {
			break
		}
		seen[prev] = true
		chain = append(chain, prev)
		cur = prev
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}

// cteRefsIn collects every CTE reference in a logical subtree.
func cteRefsIn(n logicalNode) []*lCTERef {
	var out []*lCTERef
	var walk func(logicalNode)
	walk = func(n logicalNode) {
		switch t := n.(type) {
		case *lCTERef:
			out = append(out, t)
		case *lFilter:
			walk(t.child)
		case *lProject:
			walk(t.child)
		case *lStrip:
			walk(t.child)
		case *lPick:
			walk(t.child)
		case *lJoin:
			walk(t.left)
			walk(t.right)
		case *lAgg:
			walk(t.child)
		case *lSort:
			walk(t.child)
		case *lLimit:
			walk(t.child)
		case *lAlias:
			walk(t.child)
		}
	}
	walk(n)
	return out
}

// chainFindCore walks a lowered stage plan through the order-neutral
// wrappers (the same set findGateStage tolerates) to the gate-stage
// core projection.
func chainFindCore(root planNode) (*projectNode, string) {
	cur := root
	for {
		switch n := cur.(type) {
		case *statNode:
			cur = n.child
		case *projectNode:
			if agg, _ := coreAggOf(n); agg != nil {
				return n, ""
			}
			cur = n.child
		case *sortNode:
			cur = n.child
		case *aliasNode:
			cur = n.child
		case *filterNode:
			cur = n.child
		case *limitNode:
			cur = n.child
		case *sliceProjectNode:
			cur = n.child
		case *pickNode:
			cur = n.child
		default:
			return nil, kfChainStageShape
		}
	}
}

// coreStateSide returns the state-side join input of a matched
// gate-stage core projection.
func coreStateSide(core *projectNode) planNode {
	agg, _ := coreAggOf(core)
	if agg == nil {
		return nil
	}
	join, ok := unwrapStat(agg.child).(*joinNode)
	if !ok {
		return nil
	}
	return join.left
}

// cteShowOf descends the order-neutral wrappers to a CTE display node,
// or nil when the subtree bottoms out elsewhere (a real table scan).
func cteShowOf(n planNode) *cteShowNode {
	for {
		switch x := n.(type) {
		case *statNode:
			n = x.child
		case *aliasNode:
			n = x.child
		case *cteShowNode:
			return x
		default:
			return nil
		}
	}
}

// explainChainStages mirrors the fusion chain walk on EXPLAIN's
// physical tree (where CTE references appear as cteShowNode subplans):
// starting from a matched top-level core, it counts the consecutive
// single-use gate-stage CTE links down to the real state table. The
// count is the number of stages a fused execution would cover; it is 0
// when any link breaks the chain (fusion is all-or-nothing).
func explainChainStages(env *storageEnv, core *projectNode) int {
	stages := 0
	cur := coreStateSide(core)
	for {
		if cur == nil {
			return 0
		}
		show := cteShowOf(cur)
		if show == nil {
			return stages // clean bottom: a real state table
		}
		if stages > 0 && show.uses != 1 {
			return 0 // shared interior CTE: the chain cannot claim it
		}
		inner, _ := chainFindCore(show.child)
		if inner == nil {
			return 0
		}
		kern, _ := compileGateStage(inner, env, false)
		if kern == nil {
			return 0
		}
		next := coreStateSide(inner)
		if cteShowOf(next) != nil && !chainStateSlots(kern.prog) {
			return 0 // interior stage breaks the (s, r, i) slot contract
		}
		stages++
		cur = next
	}
}

// compileChain lowers and compiles every stage, bottom first. Each
// stage's plan is lowered by a throwaway sub-planner in stubCTE mode,
// which replaces unmaterialized CTE references with schema stubs
// instead of recursing — lowering one stage therefore costs one stage,
// not the whole chain below it. The bottom stage compiles through the
// full single-stage path (its state side is a real store); interior
// stages compile in chain mode (state side pinned to the (s, r, i)
// intermediate layout, gate side bound physically).
func (p *planner) compileChain(chain []*cteDef) (*chainPlan, string) {
	stages := make([]*chainStage, len(chain))
	for i, d := range chain {
		sub := &planner{ctx: p.ctx, db: p.db, stubCTE: true}
		node, err := sub.lower(d.plan)
		if err != nil {
			// Let stage-at-a-time execution rediscover (and report) the
			// lowering error on the normal path.
			return nil, kfChainStageShape
		}
		core, reason := chainFindCore(node)
		if core == nil {
			return nil, reason
		}
		var kern *gateKernel
		if i == 0 {
			kern, reason = compileGateStage(core, p.ctx.env, true)
		} else {
			kern, reason = compileChainStage(core, p.ctx.env)
		}
		if kern == nil {
			return nil, reason
		}
		stages[i] = &chainStage{kern: kern}
	}
	return &chainPlan{stages: stages}, ""
}

// bindChain binds every stage to the current data — the bottom stage
// fully (state store + gate buckets, via bindGateStage), later stages
// on their gate side only — before anything executes, so a bind decline
// falls back with no work done.
func bindChain(env *storageEnv, plan *chainPlan) (*boundGate, string) {
	bound0, reason := bindGateStage(env, plan.stages[0].kern)
	if bound0 == nil {
		return nil, reason
	}
	for _, st := range plan.stages[1:] {
		if reason := bindChainGate(env, st); reason != "" {
			return nil, reason
		}
	}
	return bound0, ""
}

// bindChainGate binds an interior stage's gate side: the build-key
// buckets in gate-row order (the streaming join's insertion order) and
// the output-index vector for dense bounding.
func bindChainGate(env *storageEnv, st *chainStage) string {
	prog := st.kern.prog
	gate, ok := st.kern.gate.store.(*ColStore)
	if !ok {
		return kfRowLayout
	}
	if err := gate.Freeze(); err != nil {
		return kfSpilled
	}
	if gate.Spilled() {
		return kfSpilled
	}
	st.gateRows = gate.rows
	if gate.rows == 0 {
		return ""
	}
	gIn := kernelIntVec(env, gate, prog.gIn)
	g0a := kernelFloatVec(env, gate, prog.g0a)
	g0b := kernelFloatVec(env, gate, prog.g0b)
	g1a := kernelFloatVec(env, gate, prog.g1a)
	g1b := kernelFloatVec(env, gate, prog.g1b)
	var gOut []int64
	if prog.gOut >= 0 {
		gOut = kernelIntVec(env, gate, prog.gOut)
		if gOut == nil {
			return kfColumnTypes
		}
	}
	if gIn == nil || g0a == nil || g0b == nil || g1a == nil || g1b == nil {
		return kfColumnTypes
	}
	st.buckets = buildGateBuckets(gIn, gOut, g0a, g0b, g1a, g1b, gate.rows)
	st.gOut = gOut
	return ""
}

// bindChainInput binds a stage's state side to the previous stage's
// in-memory buffer. The program's state slots address the fixed
// (s, r, i) layout (chainStateSlots proved it at compile time).
func bindChainInput(st *chainStage, in *chainBuf) *boundGate {
	prog := st.kern.prog
	bk := &boundGate{prog: prog, rows: len(in.keys), groupHint: int64(len(in.keys)), denseHi: -1}
	if len(in.keys) == 0 || st.gateRows == 0 {
		bk.empty = true
		return bk
	}
	pick := func(slot int) []float64 {
		if slot == 1 {
			return in.re
		}
		return in.im
	}
	bk.sKey = in.keys
	bk.s0a, bk.s0b = pick(prog.s0a), pick(prog.s0b)
	bk.s1a, bk.s1b = pick(prog.s1a), pick(prog.s1b)
	bk.buckets = st.buckets
	// The same mode the single-stage kernel would choose for a
	// materialized store of this row count (the fused path never
	// spills, so morselCount reduces to the plain geometry).
	bk.morsel = (bk.rows+morselRows-1)/morselRows >= minParallelMorsels
	if !bk.morsel && prog.gOutFn != nil {
		bk.denseHi = chainDenseBound(in, prog, st.gOut)
	}
	return bk
}

// chainDenseBound is denseBound over an in-memory intermediate: the
// buffer tracks its own exact key min/max, standing in for the table
// statistics a materialized store would carry.
func chainDenseBound(in *chainBuf, prog *kernelProg, gOut []int64) int64 {
	if !in.any || in.minKey < 0 {
		return -1
	}
	hi := pow2mask(in.maxKey)
	if hi < 0 {
		return -1
	}
	if gOut == nil {
		v := prog.gOutFn(0, 0)
		if v < 0 {
			return -1
		}
		hi |= v
	} else {
		for _, out := range gOut {
			v := prog.gOutFn(0, out)
			if v < 0 {
				return -1
			}
			hi |= v
		}
	}
	if hi >= denseCap {
		return -1
	}
	return hi
}

// errChainBudget is runChainKernel's sentinel for a refused working-set
// reservation: fuseCTEChain declines to stage-at-a-time execution.
var errChainBudget = errors.New("sqlengine: fused chain working set refused by the memory budget")

// runChainKernel executes a bound chain: every stage but the last emits
// into the next stage's chainBuf; the last materializes through the
// standard kernel emitter into a fresh store (exactly the store
// stage-at-a-time execution would have produced for the top CTE, with
// statistics, so the stage reading it can prove a dense key bound). The
// run owns one accumulator and two stage buffers and recycles them
// across all stages: stage k reads one buffer while emitting into the
// other, so after the first stages warm them up a stage allocates
// almost nothing.
//
// Under a bounded budget every stage first reserves the growth of the
// accumulator and buffers its run will allocate (the last stage also
// its emitter batch); a refusal — or a stage in morsel mode, whose
// partial tables are not bounded — returns errChainBudget before the
// output store exists. The reservation is released when the run ends.
func runChainKernel(ctx *execCtx, plan *chainPlan, bound0 *boundGate) (tableStore, error) {
	var (
		acc  kAcc
		bufs [2]chainBuf
		cur  *chainBuf
	)
	res := kReserve{budget: ctx.env.budget}
	defer res.release()
	bounded := res.budget.Limit() > 0
	last := len(plan.stages) - 1
	for i, st := range plan.stages {
		bk := bound0
		if i > 0 {
			bk = bindChainInput(st, cur)
		}
		nxt := &bufs[i%2]
		if bounded {
			if !bk.presizeToBound() {
				return nil, errChainBudget
			}
			other := &bufs[1-i%2]
			need := acc.footprint(bk) + other.footprint(0)
			if i == last {
				need += nxt.footprint(0) + emitterBytes(bk.groupHint)
			} else {
				need += nxt.footprint(bk.groupHint)
			}
			if !res.growTo(need) {
				return nil, errChainBudget
			}
		}
		if i == last {
			return runGateKernel(ctx, st.kern, bk, true, &acc)
		}
		prog := st.kern.prog
		nxt.reset(prog.having, prog.eps2, bk.groupHint)
		if err := bk.run(ctx, nxt, &acc); err != nil {
			return nil, err
		}
		cur = nxt
	}
	// Unreachable: the loop always returns at i == last.
	return nil, fmt.Errorf("sqlengine: internal: empty chain plan")
}

// kernelIntVec decodes a frozen store's int column into a plain vector
// (bindGateStage's intVec as a package helper; encoded columns decode
// into fresh scratch, counted as a kernel encoding bind).
func kernelIntVec(env *storageEnv, cs *ColStore, idx int) []int64 {
	if idx < 0 || idx >= len(cs.cols) {
		return nil
	}
	c := &cs.cols[idx]
	if len(c.nulls) != 0 {
		return nil
	}
	switch c.kind {
	case colInt:
		return c.ints
	case colIntRLE:
		out := make([]int64, cs.rows)
		pos := 0
		for _, r := range c.runs {
			for ; pos < int(r.end); pos++ {
				out[pos] = r.v
			}
		}
		env.storageCtrs.bumpKernelEncBind()
		return out
	case colIntDict:
		out := make([]int64, cs.rows)
		for i, code := range c.codes {
			out[i] = c.dict[code]
		}
		env.storageCtrs.bumpKernelEncBind()
		return out
	}
	return nil
}

// kernelFloatVec decodes a frozen store's float column into a plain
// vector (bindGateStage's floatVec as a package helper).
func kernelFloatVec(env *storageEnv, cs *ColStore, idx int) []float64 {
	if idx < 0 || idx >= len(cs.cols) {
		return nil
	}
	c := &cs.cols[idx]
	if len(c.nulls) != 0 {
		return nil
	}
	switch c.kind {
	case colFloat:
		return c.floats
	case colFloatSparse:
		out := make([]float64, cs.rows)
		for i, p := range c.spos {
			out[p] = c.svals[i]
		}
		env.storageCtrs.bumpKernelEncBind()
		return out
	}
	return nil
}

// buildGateBuckets builds the gate-side bucket table in gate-row order
// (the streaming join's insertion order).
func buildGateBuckets(gIn, gOut []int64, g0a, g0b, g1a, g1b []float64, rows int) map[int64][]kGateRow {
	buckets := make(map[int64][]kGateRow, rows)
	for r := 0; r < rows; r++ {
		row := kGateRow{g0a: g0a[r], g0b: g0b[r], g1a: g1a[r], g1b: g1b[r]}
		if gOut != nil {
			row.out = gOut[r]
		}
		buckets[gIn[r]] = append(buckets[gIn[r]], row)
	}
	return buckets
}
