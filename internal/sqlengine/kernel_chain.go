package sqlengine

import (
	"errors"
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
// synthesized CREATE TABLE … AS WITH. Every interior stage CTE lowers
// to a materializeNode (its single reference sits under the next
// stage's float SUM, so inlining is blocked by the bit-neutrality
// contract). Materializing such a node —
// planner.materialize, after planning is done — is this tier's hook:
// instead of running the node's subplan and recursing stage by stage,
// fuseCTEChain walks the reference chain to the bottom through the
// lowered subplans, compiles every stage with the single-stage kernel
// machinery (kernel_lower.go), and runs all of them in one pass. The
// amplitudes flow between stages through double-buffered in-memory
// (key, re, im) triples; only the topmost chain stage's output is
// materialized into a ColStore. The intermediate stage tables never
// exist: no storage, no spill eligibility. Under a bounded budget the
// run reserves the buffers and the accumulator instead, and declines
// when they do not fit. EXPLAIN previews the same walk (kernelExplain).
//
// Determinism contract (extends kernel.go's): a chainBuf holds exactly
// the rows, in exactly the order, that the stage's materialized store
// would hold — the kernel's emission order with the pruning HAVING
// applied at emission (kEmitter.add's schedule verbatim). Each stage
// then runs the same accumulation the single-stage kernel runs over a
// store holding those rows. Amplitudes are therefore bit-identical to
// unbounded stage-at-a-time execution at every encoding and budget
// that lets the chain run; the differential matrix in
// kernel_chain_test.go asserts it.

// chainStage is one compiled-and-gate-bound stage of a fused chain.
type chainStage struct {
	kern *gateKernel
	// Interior binding (stages after the first): the gate side's bucket
	// table and output-index vector, bound from the real gate table.
	buckets  *kBuckets
	gOut     []int64
	gateRows int
}

// chainPlan is a compiled chain, bottom stage first. stages[0] binds
// its state side to a real store (base table or an already-materialized
// CTE); every later stage consumes the previous stage's in-memory
// buffer. A top-level gate stage runs as a chain of one.
type chainPlan struct {
	stages []*chainStage
	// keyOrder makes the last stage emit in key order when its run is
	// dense (kEmitter); set only for a top-level stage under
	// ORDER BY its group key (kernelAttempt).
	keyOrder bool
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

// emit implements kSink: first-seen order, with the same pruning
// HAVING as kEmitter.
func (b *chainBuf) emit(a *kAcc) error {
	keys, r, i := a.keys, a.r, a.i
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

// fuseCTEChain is the materialize hook: when m tops a fusable run of
// unmaterialized single-use gate-stage CTEs, execute the whole run as
// one fused pass and install the result as m's store. Returns true when
// it did (or failed trying — a real execution error propagates); false
// declines back to stage-at-a-time materialization, counting the
// decline reason once per statement under "fallback_chain-*".
func (p *planner) fuseCTEChain(m *materializeNode) (bool, error) {
	env := p.ctx.env
	if !env.kernels {
		return false, nil
	}
	links := collectCTEChain(m)
	if len(links) < 2 {
		return false, nil
	}
	// The bottom stage reads real stores: bind its join strategy as
	// stage-at-a-time execution would (a grace join declines the kernel).
	p.bind(links[0].child)
	plan, reason := compileChain(env, links, false)
	if plan == nil {
		p.chainFallback(reason)
		return false, nil
	}
	bound0, reason := bindChain(env, plan)
	if bound0 == nil {
		p.chainFallback(reason)
		return false, nil
	}
	run, store, err := runChainKernel(p.ctx, plan, bound0, true)
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
	kernelBump(env, func(k *kernelCounterSet) *atomic.Int64 { return &k.executions }, run.stages)
	kernelBump(env, func(k *kernelCounterSet) *atomic.Int64 { return &k.chainExecutions }, 1)
	kernelBump(env, func(k *kernelCounterSet) *atomic.Int64 { return &k.chainStages }, run.stages)
	kernelBump(env, func(k *kernelCounterSet) *atomic.Int64 { return &k.chainElided }, run.stages-1)
	p.ctx.chainExec = run
	sp := p.ctx.span.CompleteChild("kernel-chain", run.start, run.wall)
	sp.Add("stages", run.stages)
	sp.Add("rows_in", run.rowsIn)
	sp.Add("rows_out", run.rowsOut)
	p.cleanup = append(p.cleanup, store)
	m.res.store = store
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

// collectCTEChain walks the stage chain downward from m: each link is a
// CTE subplan reading exactly one other CTE, an unmaterialized
// single-use definition. Returns the chain bottom-first (the last entry
// is m).
func collectCTEChain(m *materializeNode) []*materializeNode {
	seen := map[*cteResult]bool{m.res: true}
	chain := []*materializeNode{m}
	for cur := m; ; {
		refs := cteRefsIn(cur.child)
		if len(refs) != 1 {
			break
		}
		prev := refs[0]
		if prev.res.store != nil || prev.uses != 1 || seen[prev.res] {
			break
		}
		seen[prev.res] = true
		chain = append(chain, prev)
		cur = prev
	}
	slices.Reverse(chain)
	return chain
}

// cteRefsIn collects the CTE references of one plan, not descending
// into the referenced CTEs' own subplans.
func cteRefsIn(n planNode) []*materializeNode {
	if m, ok := n.(*materializeNode); ok {
		return []*materializeNode{m}
	}
	var out []*materializeNode
	for _, c := range planChildren(n) {
		out = append(out, cteRefsIn(c)...)
	}
	return out
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

// compileChain compiles every link's stage, bottom first, straight from
// the lowered subplans. The bottom stage compiles through the full
// single-stage path (its state side is a real store); interior stages
// compile in chain mode (state side pinned to the (s, r, i)
// intermediate layout, gate side bound physically). dry is EXPLAIN's
// structural preview: no store checks, no cache, no counters — but the
// bottom must still read a real table, as execution requires.
func compileChain(env *storageEnv, links []*materializeNode, dry bool) (*chainPlan, string) {
	stages := make([]*chainStage, len(links))
	for i, m := range links {
		core, _ := findCore(m.child)
		if core == nil {
			return nil, kfChainStageShape
		}
		var kern *gateKernel
		var reason string
		switch {
		case i == 0:
			kern, reason = compileGateStage(core, env, !dry)
			if kern != nil && kern.state == nil {
				kern, reason = nil, kfScanShape
			}
		case dry:
			kern, reason = compileGateStage(core, env, false)
			if kern != nil && !chainStateSlots(kern.prog) {
				kern, reason = nil, kfChainSlots
			}
		default:
			kern, reason = compileChainStage(core, env)
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

// bindChainGate binds an interior stage's gate side.
func bindChainGate(env *storageEnv, st *chainStage) string {
	gate := st.kern.gate.store
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
	var reason string
	st.buckets, st.gOut, reason = bindGateSide(env, st.kern.prog, gate)
	return reason
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
	if prog.gOutFn != nil && in.any && in.minKey >= 0 {
		// The buffer tracks its own exact key range, standing in for
		// the statistics a materialized store would carry.
		bk.denseHi = gateDenseBound(pow2mask(in.maxKey), prog, st.gOut)
	}
	bk.presizeDense()
	return bk
}

// errChainBudget is runChainKernel's sentinel for a refused working-set
// reservation: the caller declines to the next path down
// (stage-at-a-time execution, or the interpreter for a single stage).
var errChainBudget = errors.New("sqlengine: fused chain working set refused by the memory budget")

// kernelRun records one kernel execution on the execCtx — a fused chain
// (chainExec) or a single gate stage (kexec): its start and wall time,
// the stages it covered, the rows into the first stage and out of the
// last, and whether every program came
// from the kernel cache. EXPLAIN ANALYZE and span attachment read it.
type kernelRun struct {
	start    time.Time
	wall     time.Duration
	stages   int64
	rowsIn   int64
	rowsOut  int64
	cacheHit bool
}

// runChainKernel executes a bound chain: every stage but the last emits
// into the next stage's chainBuf; the last materializes through the
// standard kernel emitter into a fresh store (for a chain top, exactly
// the store stage-at-a-time execution would have produced for the CTE,
// with statistics, so the stage reading it can prove a dense key
// bound). The run owns one accumulator and two stage buffers and
// recycles them across all stages: stage k reads one buffer while
// emitting into the other, so after the first stages warm them up a
// stage allocates almost nothing.
//
// Under a bounded budget every stage first reserves the growth of the
// accumulator and buffers its run will allocate (the last stage also
// its emitter batch); a refusal returns errChainBudget before the
// output store exists. The reservation is released when the run ends.
func runChainKernel(ctx *execCtx, plan *chainPlan, bound0 *boundGate, collect bool) (*kernelRun, *ColStore, error) {
	var (
		acc  kAcc
		bufs [2]chainBuf
		cur  *chainBuf
	)
	res := kReserve{budget: ctx.env.budget}
	defer res.release()
	bounded := res.budget.Limit() > 0
	run := &kernelRun{
		start:  time.Now(),
		stages: int64(len(plan.stages)),
		rowsIn: int64(bound0.rows),
	}
	last := len(plan.stages) - 1
	for i, st := range plan.stages {
		bk := bound0
		if i > 0 {
			bk = bindChainInput(st, cur)
		}
		nxt := &bufs[i%2]
		if bounded {
			if !bk.presizeToBound() {
				return nil, nil, errChainBudget
			}
			other := &bufs[1-i%2]
			need := acc.footprint(bk) + other.footprint(0)
			if i == last {
				need += nxt.footprint(0) + emitterBytes(bk.groupHint)
			} else {
				need += nxt.footprint(bk.groupHint)
			}
			if !res.growTo(need) {
				return nil, nil, errChainBudget
			}
		}
		if i == last {
			store, err := runGateKernel(ctx, st.kern, bk, collect, plan.keyOrder, &acc)
			if err != nil {
				return nil, nil, err
			}
			run.wall = time.Since(run.start)
			run.rowsOut = store.Len()
			run.cacheHit = !slices.ContainsFunc(plan.stages, func(s *chainStage) bool { return !s.kern.cached })
			return run, store, nil
		}
		prog := st.kern.prog
		nxt.reset(prog.having, prog.eps2, bk.groupHint)
		if err := bk.run(ctx, nxt, &acc); err != nil {
			return nil, nil, err
		}
		cur = nxt
	}
	return nil, nil, errors.New("sqlengine: internal: empty chain plan")
}

// kernelIntVec returns a frozen store's int column as a plain vector;
// nil for a missing, nullable or non-integer column.
func kernelIntVec(cs *ColStore, idx int) []int64 {
	if idx < 0 || idx >= len(cs.cols) {
		return nil
	}
	c := &cs.cols[idx]
	if len(c.nulls) != 0 || c.kind != colInt {
		return nil
	}
	return c.ints
}

// kernelFloatVec returns a frozen store's float column as a plain
// vector (a sparse column decodes into fresh scratch, counted as a
// kernel encoding bind); nil for a missing, nullable or non-float
// column.
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

// bindGateSide binds a program's gate side: the build-key buckets and
// the output-index vector for dense bounding.
func bindGateSide(env *storageEnv, prog *kernelProg, gate *ColStore) (*kBuckets, []int64, string) {
	gIn := kernelIntVec(gate, prog.gIn)
	g0a := kernelFloatVec(env, gate, prog.g0a)
	g0b := kernelFloatVec(env, gate, prog.g0b)
	g1a := kernelFloatVec(env, gate, prog.g1a)
	g1b := kernelFloatVec(env, gate, prog.g1b)
	var gOut []int64
	if prog.gOut >= 0 {
		gOut = kernelIntVec(gate, prog.gOut)
		if gOut == nil {
			return nil, nil, kfColumnTypes
		}
	}
	if gIn == nil || g0a == nil || g0b == nil || g1a == nil || g1b == nil {
		return nil, nil, kfColumnTypes
	}
	row := func(r int) kGateRow {
		g := kGateRow{g0a: g0a[r], g0b: g0b[r], g1a: g1a[r], g1b: g1b[r]}
		if gOut != nil {
			g.out = gOut[r]
		}
		if prog.gOutFn != nil {
			g.outBits = prog.gOutFn(0, g.out)
		}
		return g
	}
	gIn = gIn[:gate.rows]
	hiKey := int64(-1)
	for _, k := range gIn {
		if k < 0 || k >= flatBuckets {
			hiKey = flatBuckets
			break
		}
		hiKey = max(hiKey, k)
	}
	b := &kBuckets{}
	if hiKey >= flatBuckets {
		b.hashed = make(map[int64][]kGateRow, gate.rows)
		for r, k := range gIn {
			b.hashed[k] = append(b.hashed[k], row(r))
		}
		for _, bucket := range b.hashed {
			b.widest = max(b.widest, len(bucket))
		}
		return b, gOut, ""
	}
	// Counting sort by build key, stable in gate-row order: every
	// bucket is a window of one backing array.
	start := make([]int, hiKey+2)
	for _, k := range gIn {
		start[k+1]++
	}
	for k := 1; k < len(start); k++ {
		b.widest = max(b.widest, start[k])
		start[k] += start[k-1]
	}
	sorted := make([]kGateRow, len(gIn))
	for r, k := range gIn {
		sorted[start[k]] = row(r)
		start[k]++
	}
	// start[k] now ends bucket k.
	b.flat = make([][]kGateRow, hiKey+1)
	lo := 0
	for k := range b.flat {
		b.flat[k] = sorted[lo:start[k]:start[k]]
		lo = start[k]
	}
	return b, gOut, ""
}
