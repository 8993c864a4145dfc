package sqlengine

import (
	"errors"
	"slices"
	"time"
)

// Chain execution: every kernel run is a chain of gate stages run in
// one pass, without intermediate materialization.
//
// A translated circuit is a chain of gate stages, each reading exactly
// the previous stage's state table — as chained CTEs in single-query
// mode, or (after core.FusedStatements regroups them) inside one
// synthesized CREATE TABLE … AS WITH. Every interior stage CTE stays
// a materializeNode (its single reference sits under the next
// stage's float SUM, so inlining is blocked by the bit-neutrality
// contract). The kernel tier's one entry point (planner.runKernel,
// kernel.go) gets each plan before the CTEs it reads are materialized:
// compileChain matches the plan's gate-stage core, walks down the
// single-use gate-stage CTEs its state side reads, and compiles every
// stage (kernel_lower.go); runChainKernel runs all of them in one pass.
// The amplitudes flow between stages through double-buffered in-memory
// (key, re, im) triples; only the top stage's output is materialized
// into a ColStore. The interior stage tables never exist: no storage,
// no spill eligibility. A lone stage is a chain of one. Under a bounded
// budget the run reserves the buffers and the accumulator instead, and
// declines when they do not fit. EXPLAIN previews the same match
// (kernelExplain).
//
// Determinism contract (extends kernel.go's): a chainBuf holds exactly
// the rows, in exactly the order, that the stage's materialized store
// would hold — the kernel's emission order with the pruning HAVING
// applied at emission (kEmitter.add's schedule verbatim). Each stage
// then runs the same accumulation a chain of one runs over a store
// holding those rows. Amplitudes are therefore bit-identical to
// stage-at-a-time execution (one CREATE TABLE AS per stage) at every
// budget that lets the chain run; the differential matrix
// in kernel_chain_test.go asserts it. One exception keeps the bits but
// not the interior order: under a key-ordered top (ORDER BY s), the
// chain's suffix of fan-in ≤ 2 stages may run over the cube
// (kernel_cube.go), adding in its own order. With at most two adds per
// slot the add order cannot change a bit, and the sorted result has no
// order of its own to keep.

// chainStage is one compiled-and-gate-bound stage of a chain.
type chainStage struct {
	kern *gateKernel
	// Interior binding (stages after the first): the gate side's bucket
	// table and output-index vector, bound from the real gate table.
	buckets  *kBuckets
	gOut     []int64
	gateRows int
	// outMask is the OR of the output bits the stage's gate rows reach,
	// set by cosetExact (kernel_cube.go).
	outMask int64
}

// chainPlan is a compiled chain, bottom stage first. stages[0] binds
// its state side to a real store (base table or an already-materialized
// CTE); every later stage consumes the previous stage's in-memory
// buffer, and the last stage is the plan's core.
type chainPlan struct {
	stages []*chainStage
	// set replaces the core in its parent (nil when the core is the
	// plan root; see findCore).
	set func(planNode)
	// keyOrder makes the last stage emit in key order when its run is
	// dense (kEmitter); set only for a core under ORDER BY its group
	// key (sortsByGroupKey).
	keyOrder bool
}

// top is the chain's last stage: the plan's core.
func (c *chainPlan) top() *gateKernel { return c.stages[len(c.stages)-1].kern }

// chainBuf is the in-memory intermediate between fused stages: the
// exact post-HAVING rows, in the exact order, the stage's materialized
// store would have held. It doubles as the kernel's emission sink
// (kSink) and the next stage's input binding.
type chainBuf struct {
	having bool
	eps2   float64
	keys   []int64
	re, im []float64
	// or is the OR of every key (keyOr, kept as rows arrive): the next
	// stage's dense bound reads it, and the keys are a full sub-cube
	// when there are 2^popcount(or) of them (kernel_cube.go).
	or int64
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
	b.or = 0
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
		b.add(key, rv, iv)
	}
	return nil
}

// add appends one row.
func (b *chainBuf) add(key int64, r, i float64) {
	b.keys = append(b.keys, key)
	b.re = append(b.re, r)
	b.im = append(b.im, i)
	b.or |= key
}

// compileChain is the kernel tier's matcher. It finds the gate-stage
// core of a plan (findCore) and compiles it, then walks down the CTEs
// the stages read on their state side: a single-use, unmaterialized CTE
// whose subplan is a gate-stage core joins the chain below the stage
// reading it. The walk stops at the first CTE that does not — that CTE,
// or the base table, is the bottom stage's input — and at a stage whose
// state slots cannot read the in-memory (s, r, i) layout. dry is
// EXPLAIN's structural preview: no cache, no counters.
func compileChain(env *storageEnv, root planNode, dry bool) (*chainPlan, string) {
	core, set := findCore(root)
	if core == nil {
		return nil, kfNoGateStage
	}
	above, reason := compileGateStage(core, env, dry)
	if above == nil {
		return nil, reason
	}
	plan := &chainPlan{stages: []*chainStage{{kern: above}}, set: set}
	for chainStateSlots(above.prog) {
		m := cteOf(above.join.left)
		if m == nil || m.store != nil || m.uses != 1 {
			break
		}
		core, _ := unwrapStat(m.child).(*projectNode)
		if core == nil {
			break
		}
		below, _ := compileGateStage(core, env, dry)
		if below == nil {
			break
		}
		plan.stages = append(plan.stages, &chainStage{kern: below})
		above = below
	}
	slices.Reverse(plan.stages)
	return plan, ""
}

// bindChain binds every stage to the current data — the bottom stage
// fully (state store + gate buckets, via bindGateStage), later stages
// on their gate side only — before anything executes, so a bind decline
// falls back with no work done.
func bindChain(plan *chainPlan) (*boundGate, string) {
	bound0, reason := bindGateStage(plan.stages[0].kern)
	if bound0 == nil {
		return nil, reason
	}
	for _, st := range plan.stages[1:] {
		if reason := bindChainGate(st); reason != "" {
			return nil, reason
		}
	}
	return bound0, ""
}

// bindChainGate binds an interior stage's gate side.
func bindChainGate(st *chainStage) string {
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
	st.buckets, st.gOut, reason = bindGateSide(st.kern.prog, gate)
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
	if prog.gOutFn != nil {
		bk.denseHi = denseBound(in.or, prog, st.gOut)
	}
	bk.presizeDense()
	return bk
}

// errChainBudget is runChainKernel's sentinel for a refused working-set
// reservation: the caller falls back to a shorter chain, or to the
// interpreter for a chain of one.
var errChainBudget = errors.New("sqlengine: kernel chain working set refused by the memory budget")

// kernelRun records one kernel run on the execCtx: the plan it ran for,
// its start and wall time, the stages it covered, the rows into the
// first stage and out of the last, and whether every program came from
// the kernel cache. EXPLAIN ANALYZE reads it.
type kernelRun struct {
	plan     planNode
	start    time.Time
	wall     time.Duration
	stages   int64
	rowsIn   int64
	rowsOut  int64
	cacheHit bool
	// cubeStages counts the stages that ran over the cube
	// (kernel_cube.go).
	cubeStages int64
}

// runChainKernel executes a bound chain: every stage but the last emits
// into the next stage's chainBuf; the last materializes through the
// standard kernel emitter into a fresh store. The run owns one
// accumulator and two stage buffers and recycles them across all
// stages: stage k reads one buffer while emitting into the other, so
// after the first stages warm them up a stage allocates almost nothing. The last stage drops the idle buffer
// before it runs. A key-ordered chain runs its cube suffix (cubeFrom)
// over a key-indexed state vector instead whenever the state is a full
// sub-cube (kernel_cube.go).
//
// Under a bounded budget every stage first reserves its working set:
// the accumulator, its input buffer, and its output — the next buffer,
// or for the last stage the emitter batch (the output store reserves
// its own rows). The idle buffer is neither kept nor reserved for the
// last stage. A refusal returns errChainBudget before the output store
// exists. The reservation is released when the run ends.
func runChainKernel(ctx *execCtx, plan *chainPlan, bound0 *boundGate) (*kernelRun, *ColStore, error) {
	var (
		acc  kAcc
		bufs [2]chainBuf
		cur  *chainBuf
		cb   cube
	)
	res := kReserve{budget: ctx.env.budget}
	defer res.release()
	bounded := res.budget.Limit() > 0
	run := &kernelRun{
		start:  time.Now(),
		stages: int64(len(plan.stages)),
		rowsIn: int64(bound0.rows),
	}
	finish := func(store *ColStore) (*kernelRun, *ColStore, error) {
		run.wall = time.Since(run.start)
		run.rowsOut = store.Len()
		run.cacheHit = !slices.ContainsFunc(plan.stages, func(s *chainStage) bool { return !s.kern.cached })
		return run, store, nil
	}
	last := len(plan.stages) - 1
	from := cubeFrom(plan, bounded)
	for i, st := range plan.stages {
		prog := st.kern.prog
		nxt := &bufs[i%2]
		if i >= from && !cb.live {
			cb.load(st, cur)
		}
		if cb.live {
			mout, ok := cb.fit(st, cb.m)
			if ok {
				run.cubeStages++
				if i == last {
					store, err := emitStore(ctx, prog, cubeRows(mout), plan.keyOrder, func(em *kEmitter) error {
						return cb.emit(ctx, st, mout, em)
					})
					if err != nil {
						return nil, nil, err
					}
					return finish(store)
				}
				n, err := cb.step(ctx, st, mout)
				if err != nil {
					return nil, nil, err
				}
				if !cb.live {
					nxt.reset(prog.having, prog.eps2, n)
					cb.drain(mout, true, prog.eps2, nxt)
					cur = nxt
				}
				continue
			}
			// The stage's key range outgrows the cube: the state goes on
			// to the bucketed loop, through the buffer this stage does not
			// write.
			cur = &bufs[(i+1)%2]
			cur.reset(false, 0, cubeRows(cb.m))
			cb.drain(cb.m, false, 0, cur)
			cb.live = false
		}
		bk := bound0
		if i > 0 {
			bk = bindChainInput(st, cur)
		}
		if i == last {
			*nxt = chainBuf{}
		}
		if bounded {
			if !bk.presizeToBound() {
				return nil, nil, errChainBudget
			}
			need := acc.footprint(bk)
			if cur != nil {
				need += cur.footprint(0)
			}
			if i == last {
				need += emitterBytes(bk.groupHint)
			} else {
				need += nxt.footprint(bk.groupHint)
			}
			if !res.resize(need) {
				return nil, nil, errChainBudget
			}
		}
		if i == last {
			store, err := emitStore(ctx, prog, bk.groupHint, plan.keyOrder, func(em *kEmitter) error {
				return bk.run(ctx, em, &acc)
			})
			if err != nil {
				return nil, nil, err
			}
			return finish(store)
		}
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
// vector; nil for a missing, nullable or non-float column.
func kernelFloatVec(cs *ColStore, idx int) []float64 {
	if idx < 0 || idx >= len(cs.cols) {
		return nil
	}
	c := &cs.cols[idx]
	if len(c.nulls) != 0 || c.kind != colFloat {
		return nil
	}
	return c.floats
}

// bindGateSide binds a program's gate side: the build-key buckets and
// the output-index vector for dense bounding.
func bindGateSide(prog *kernelProg, gate *ColStore) (*kBuckets, []int64, string) {
	gIn := kernelIntVec(gate, prog.gIn)
	g0a := kernelFloatVec(gate, prog.g0a)
	g0b := kernelFloatVec(gate, prog.g0b)
	g1a := kernelFloatVec(gate, prog.g1a)
	g1b := kernelFloatVec(gate, prog.g1b)
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
