package sqlengine

import (
	"sync"
	"sync/atomic"
)

// Kernel tier: compiled execution of the translated gate-stage shape.
//
// A translated gate stage is always the same plan:
//
//	Project  #grp.g0, #agg.a0, #agg.a1
//	  [Filter ((#agg.a0*#agg.a0) + (#agg.a1*#agg.a1)) > eps²]   (pruning)
//	    HashAggregate keys=[outExpr] aggs=[SUM(±prod), SUM(±prod)]
//	      HashJoin (INNER) on inExpr = h.in_s
//	        BatchScan state          BatchScan gate
//
// where inExpr/outExpr are pure bit-mask arithmetic over the amplitude
// index (core/mask.go semantics) and the SUM arguments are the complex
// multiply-accumulate products. Interpreting that plan pays per-batch
// operator dispatch, Value boxing, and generic hash-table probes on
// every one of the thousands of identical stages a parameter sweep
// executes. The kernel tier pattern-matches the shape once
// (kernel_lower.go), compiles it into a program over the typed ColStore
// vectors, and runs a single fused loop (kernel_gate.go): direct int64
// index arithmetic replaces the join (the gate side becomes a tiny
// bucket table in gate-row order, exactly the hash join's build order),
// and a pre-sized dense or hashed accumulator replaces the aggregation
// hash table. The index arithmetic of the translated bitwise encoding
// compiles to bit-mask data — shift-mask terms for the probe key, a
// keep mask plus per-gate-row bits for the group key — so the loop
// makes no call per operator; other expressions keep compiled
// closures. The tier runs at execution time only, through one entry
// point (planner.runKernel) called on every plan the planner runs — the
// statement root and each CTE subplan (planning executes nothing; see
// planner.go) — which runs the plan's core and the gate-stage CTEs
// below it as one chain (kernel_chain.go); a lone stage is a chain of
// one.
//
// Determinism contract: the kernel reproduces the interpreted engine
// bit for bit. Group emission order, floating-point evaluation order
// (one rounding per multiply, subtract/add, and accumulate — explicit
// float64 conversions forbid FMA contraction), the accumulation order
// and the HAVING comparison are all replicated exactly. Both run on the
// statement's goroutine and add every state row, in row order, into one
// accumulator — the order of the interpreter's streaming aggregation —
// so no result depends on the machine's core count. Emission is
// first-seen, with one exception: a chain's top stage under a proven
// ORDER BY of its group key (sortsByGroupKey) whose run is dense emits
// in ascending key order, which its sort then finds already satisfied
// (sort.go) — the sorted result is the same, since group keys are
// unique. Under that same ORDER BY, the chain's last stages may run
// over a key-indexed state vector (the cube, kernel_cube.go), which
// adds in its own order rather than row order; it takes only stages
// whose output slots receive at most two adds, where (0+a)+b and
// (0+b)+a are the same bits, so every amplitude still matches.
// Anything the matcher cannot prove falls back to the batch executor
// untouched; kernelCounters records why.

// kernelCounterSet is one scope of kernel-tier counters. Two scopes
// exist: the process-wide aggregate (kernelCounters, what /metrics and
// the package-level KernelCounters() report) and one per engine
// instance (storageEnv.kernelCtrs, read through DB.KernelCounters) so
// interleaved benchmark samples and parallel tests no longer
// cross-contaminate each other's readings. Every increment goes to
// both.
type kernelCounterSet struct {
	compiles   atomic.Int64
	cacheHits  atomic.Int64
	executions atomic.Int64
	fallbacks  atomic.Int64
	// chain counters: whole-circuit fused executions, the stages they
	// covered, and the intermediate stage tables they elided (see
	// kernel_chain.go).
	chainExecutions atomic.Int64
	chainStages     atomic.Int64
	chainElided     atomic.Int64
	// cubeStages counts the stages run over a key-indexed state vector
	// (kernel_cube.go).
	cubeStages atomic.Int64
	mu         sync.Mutex
	reasons    map[string]int64
}

func (k *kernelCounterSet) fallback(reason string) {
	k.fallbacks.Add(1)
	k.mu.Lock()
	if k.reasons == nil {
		k.reasons = map[string]int64{}
	}
	k.reasons[reason]++
	k.mu.Unlock()
}

func (k *kernelCounterSet) snapshot() map[string]int64 {
	out := map[string]int64{
		"compiles":         k.compiles.Load(),
		"cache_hits":       k.cacheHits.Load(),
		"executions":       k.executions.Load(),
		"fallbacks":        k.fallbacks.Load(),
		"chain_executions": k.chainExecutions.Load(),
		"chain_stages":     k.chainStages.Load(),
		"chain_elided":     k.chainElided.Load(),
		"cube_stages":      k.cubeStages.Load(),
	}
	k.mu.Lock()
	for r, n := range k.reasons {
		out["fallback_"+r] = n
	}
	k.mu.Unlock()
	return out
}

func (k *kernelCounterSet) reset() {
	k.compiles.Store(0)
	k.cacheHits.Store(0)
	k.executions.Store(0)
	k.fallbacks.Store(0)
	k.chainExecutions.Store(0)
	k.chainStages.Store(0)
	k.chainElided.Store(0)
	k.cubeStages.Store(0)
	k.mu.Lock()
	k.reasons = nil
	k.mu.Unlock()
}

// kernelCounters is the process-wide aggregate scope.
var kernelCounters kernelCounterSet

// kernelFallback records one matcher decline with its reason, in both
// the process aggregate and the engine's own scope.
func kernelFallback(env *storageEnv, reason string) {
	kernelCounters.fallback(reason)
	if env != nil && env.kernelCtrs != nil {
		env.kernelCtrs.fallback(reason)
	}
}

// kernelBump increments one counter field in both scopes.
func kernelBump(env *storageEnv, pick func(*kernelCounterSet) *atomic.Int64, n int64) {
	pick(&kernelCounters).Add(n)
	if env != nil && env.kernelCtrs != nil {
		pick(env.kernelCtrs).Add(n)
	}
}

// KernelCounters snapshots the cumulative kernel-tier counters
// (monotonic across all engine instances in the process): compiles,
// cache_hits, executions, fallbacks, the chain_* whole-circuit fusion
// counters, cube_stages (stages run over a key-indexed state vector),
// and one "fallback_<reason>" entry per observed decline reason. For a
// single engine's uncontaminated view, use DB.KernelCounters.
func KernelCounters() map[string]int64 {
	return kernelCounters.snapshot()
}

// ResetKernelCounters zeroes the process-wide aggregate counters
// (benchmark phases and tests). Per-DB scopes are unaffected.
func ResetKernelCounters() {
	kernelCounters.reset()
}

// KernelCache caches compiled kernel programs keyed by the canonical
// plan structure: appendGateStageKey appends the expressions with
// resolved column slots, the schema widths and the HAVING threshold
// into a pooled buffer, and a warm lookup finds the program without
// allocating. Programs are store-independent — execution
// re-binds them to the current table vectors — so a sweep that re-plans
// the same structural query with different gate numerics compiles once
// and rebinds thereafter. No engine setting enters a program, so one
// cache serves engines of any configuration. Every
// engine opened without Config.KernelCache shares ProcessKernelCache.
type KernelCache struct {
	lru *lruCache[*kernelProg]
}

// NewKernelCache creates a kernel program cache holding up to capacity
// compiled programs (<=0 uses a default of 256), evicting the least
// recently used program on overflow.
func NewKernelCache(capacity int) *KernelCache {
	if capacity <= 0 {
		capacity = 256
	}
	return &KernelCache{lru: newLRU[*kernelProg](capacity)}
}

// processKernelCache is the kernel cache of every engine opened without
// one of its own.
var processKernelCache = NewKernelCache(0)

// ProcessKernelCache returns the process-wide kernel program cache that
// Open uses when Config.KernelCache is nil.
func ProcessKernelCache() *KernelCache { return processKernelCache }

// Len reports the number of cached programs.
func (c *KernelCache) Len() int { return c.lru.len() }

func (c *KernelCache) lookup(key []byte) (*kernelProg, bool) { return c.lru.getBytes(key) }

func (c *KernelCache) store(key string, p *kernelProg) { c.lru.put(key, p, 1) }

// runKernel is the kernel tier's one entry point, called on every plan
// the planner runs before the CTEs the plan reads are materialized. It
// matches the plan's gate-stage core together with the gate-stage CTEs
// below it (compileChain), materializes what the chain's bottom stage
// reads, and runs every stage as one chain (runChainKernel).
//
// Returns (result, nil, nil) when the core was the plan root and result
// is the final store; (nil, swapped, nil) when the core sat under
// wrappers — the core subtree has been replaced in the tree by a scan
// over the kernel's output store (swapped; the caller releases it if a
// downstream error strands it); (nil, nil, nil) when the kernel tier
// declined and the plan is untouched.
//
// Under a bounded budget the run reserves its working set stage by
// stage. When the budget refuses, a longer chain falls back to shorter
// ones: the top stage's input CTE materializes through its own chain,
// and the top stage retries as a chain of one; a refused chain of one
// declines to the interpreter, which spills.
func (p *planner) runKernel(root planNode) (*ColStore, *ColStore, error) {
	ctx, env := p.ctx, p.ctx.env
	if !env.kernels {
		return nil, nil, nil
	}
	// The join strategies decide what the matcher accepts: bind them as
	// the interpreter would (a grace join declines the kernel).
	p.bind(root)
	for {
		plan, reason := compileChain(env, root, false)
		if plan == nil {
			kernelFallback(env, reason)
			return nil, nil, nil
		}
		if err := p.materializeAll(plan.stages[0].kern.join.left); err != nil {
			return nil, nil, err
		}
		bound, reason := bindChain(plan)
		if bound == nil {
			kernelRuntimeDecline(ctx, reason)
			return nil, nil, nil
		}
		top := plan.top()
		plan.keyOrder = plan.set != nil && sortsByGroupKey(root, top.core)
		run, store, err := runChainKernel(ctx, plan, bound)
		if err == errChainBudget {
			kernelRuntimeDecline(ctx, kfBudgetLimited)
			if len(plan.stages) == 1 {
				return nil, nil, nil
			}
			if err := p.materialize(cteOf(top.join.left)); err != nil {
				return nil, nil, err
			}
			continue
		}
		if err != nil {
			return nil, nil, err
		}
		run.plan = root
		p.recordKernelRun(run)
		if plan.set == nil {
			return store, nil, nil
		}
		plan.set(&storeScanNode{
			store:        store,
			cols:         top.core.schema(),
			ownStore:     true,
			kernel:       chainAnnotation(int(run.stages)),
			kernelRows:   store.Len(),
			kernelLayout: scanLayout(store),
		})
		return nil, store, nil
	}
}

// recordKernelRun counts one kernel run and records it on the
// statement: the counters, a "kernel-chain" span (stages, cube_stages,
// rows_in, rows_out, cache_hit or compiled), and ctx.krun for EXPLAIN
// ANALYZE.
func (p *planner) recordKernelRun(run *kernelRun) {
	env := p.ctx.env
	kernelBump(env, func(k *kernelCounterSet) *atomic.Int64 { return &k.executions }, run.stages)
	kernelBump(env, func(k *kernelCounterSet) *atomic.Int64 { return &k.chainExecutions }, 1)
	kernelBump(env, func(k *kernelCounterSet) *atomic.Int64 { return &k.chainStages }, run.stages)
	kernelBump(env, func(k *kernelCounterSet) *atomic.Int64 { return &k.chainElided }, run.stages-1)
	kernelBump(env, func(k *kernelCounterSet) *atomic.Int64 { return &k.cubeStages }, run.cubeStages)
	p.ctx.krun = run
	sp := p.ctx.span.CompleteChild("kernel-chain", run.start, run.wall)
	sp.Add("stages", run.stages)
	sp.Add("cube_stages", run.cubeStages)
	sp.Add("rows_in", run.rowsIn)
	sp.Add("rows_out", run.rowsOut)
	if run.cacheHit {
		sp.Add("cache_hit", 1)
	} else {
		sp.Add("compiled", 1)
	}
}

// sortsByGroupKey reports whether root is an ORDER BY of one ASC key
// that resolves, through column-preserving wrappers only
// (orderPreservingChild), to column 0 of core: the group key. The
// sort's order then equals ascending group-key order, so the kernel may
// emit that order directly and the sort finds its input ordered.
func sortsByGroupKey(root planNode, core *projectNode) bool {
	srt, ok := unwrapStat(root).(*sortNode)
	if !ok {
		return false
	}
	n, col, ok := srt.ascKey()
	for ok && n != planNode(core) {
		n, col, ok = orderPreservingChild(n, col)
	}
	return ok && col == 0
}

// kernelRuntimeDecline records a decline made after the matcher
// accepted the plan — a bind check or a refused reservation — which
// EXPLAIN's structural dry run cannot foresee; EXPLAIN ANALYZE reports
// it from ctx.kdecline.
func kernelRuntimeDecline(ctx *execCtx, reason string) {
	kernelFallback(ctx.env, reason)
	ctx.kdecline = reason
}
