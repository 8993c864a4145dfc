package sqlengine

import (
	"sync"
	"sync/atomic"
)

// Execution of a compiled gate-stage kernel: bind the program to the
// current ColStore vectors, then run one fused
// scan⋈join⋈agg⋈project loop (see the determinism contract in
// kernel.go).

// kGateRow is one gate-table row in the bucket table: the output-index
// column plus the four float factors of the two SUM products, gathered
// once at bind time.
type kGateRow struct {
	out                int64
	g0a, g0b, g1a, g1b float64
}

// boundGate is a program bound to concrete table vectors for one
// execution. Rebinding is cheap (the gate table is a 2×2/4×4 matrix),
// which is what lets a sweep reuse one cached program across thousands
// of numeric rebinds.
type boundGate struct {
	prog *kernelProg
	rows int
	// sKey is the state amplitude-index vector; s0a..s1b the state
	// float vectors of the SUM factors (slices may alias). When the
	// index column is RLE-encoded, sRuns holds its runs instead and the
	// fused loop iterates run-at-a-time (sKey stays nil).
	sKey               []int64
	sRuns              []intRun
	s0a, s0b, s1a, s1b []float64
	// buckets replaces the hash join: build-key -> gate rows in
	// gate-table order, exactly the streaming join's insertion order.
	buckets map[int64][]kGateRow
	// morsel selects the two-phase partitioned accumulation, mirroring
	// the engine's own mode choice (the morsel aggregation engages
	// whenever the state scan splits into two or more morsels,
	// regardless of the worker count).
	morsel bool
	// denseHi, when >= 0, is a proven upper bound on every group key:
	// the serial path then may use a dense array accumulator instead of
	// a hash table (runSerial).
	denseHi   int64
	groupHint int64
	empty     bool
	// runsSkipped counts RLE run segments whose probe key missed every
	// bucket — whole segments of zero contribution skipped without
	// touching the float vectors (kernelExecStat, EXPLAIN ANALYZE).
	runsSkipped atomic.Int64
}

// denseCap bounds the dense accumulator's position array (int32
// entries; 1<<22 keys = 16 MB of scratch).
const denseCap = 1 << 22

// ampRowBytes is the in-memory size of one (key, re, im) triple: one
// accumulator group, one chainBuf row, one emitter batch row.
const ampRowBytes = 24

// dense reports whether runSerial accumulates through a dense position
// array. A dense array costs its whole key range; a few rows spread
// over a wide range (GHZ: two rows, keys up to 2^n) accumulate hashed
// instead. Either mode emits groups first-seen.
func (bk *boundGate) dense() bool {
	return bk.denseHi >= 0 && bk.denseHi < 8*max(int64(bk.rows), 1024)
}

// groupBound is an upper bound on a serial run's group count: every
// input row feeds at most one group per row of its gate bucket, and a
// dense run's keys all lie in [0, denseHi].
func (bk *boundGate) groupBound() int64 {
	widest := 0
	for _, b := range bk.buckets {
		widest = max(widest, len(b))
	}
	n := int64(bk.rows) * int64(widest)
	if bk.dense() {
		n = min(n, bk.denseHi+1)
	}
	return n
}

// presizeToBound readies a run for a bounded budget: the group hint
// becomes the group bound, so the accumulator, the stage buffers, and
// the emitter batch are allocated once at a size their reservation
// covers and never grow past it. Reports false for a run whose working
// set cannot be bounded up front — a morsel-mode run (its per-morsel
// partial tables) or one past the pre-size caps.
func (bk *boundGate) presizeToBound() bool {
	if bk.morsel {
		return false
	}
	if bk.empty {
		bk.groupHint = 0
		return true
	}
	n := bk.groupBound()
	if n > maxAccPresize {
		return false
	}
	bk.groupHint = n
	return true
}

// emitterBytes is the footprint of runGateKernel's emitter batch.
func emitterBytes(groupHint int64) int64 {
	return ampRowBytes * min(groupHint, batchSize)
}

// kReserve is a kernel run's reservation against a bounded budget. It
// only grows — to the largest working set the run has held so far —
// and is released in one piece when the run ends.
type kReserve struct {
	budget *MemBudget
	held   int64
}

// growTo raises the reservation to n bytes, reporting false (and
// reserving nothing more) when the budget refuses.
func (r *kReserve) growTo(n int64) bool {
	if n <= r.held {
		return true
	}
	if !r.budget.tryReserve(n - r.held) {
		return false
	}
	r.held = n
	return true
}

func (r *kReserve) release() {
	r.budget.release(r.held)
	r.held = 0
}

// bindGateStage binds a compiled program to the scans' current stores,
// running the data-dependent checks the matcher cannot do statically.
func bindGateStage(env *storageEnv, k *gateKernel) (*boundGate, string) {
	prog := k.prog
	state, ok := k.state.store.(*ColStore)
	gate, ok2 := k.gate.store.(*ColStore)
	if !ok || !ok2 {
		return nil, kfRowLayout
	}
	if err := state.Freeze(); err != nil {
		return nil, kfSpilled
	}
	if err := gate.Freeze(); err != nil {
		return nil, kfSpilled
	}
	if state.Spilled() || gate.Spilled() {
		return nil, kfSpilled
	}
	bk := &boundGate{prog: prog, rows: state.rows, groupHint: k.agg.groupHint, denseHi: -1}
	if state.rows == 0 || gate.rows == 0 {
		// A grouped aggregation of an empty join emits no rows; nothing
		// to check or bind.
		bk.empty = true
		return bk, ""
	}
	colAt := func(cs *ColStore, idx int) *column {
		if idx < 0 || idx >= len(cs.cols) {
			return nil
		}
		return &cs.cols[idx]
	}
	// Encoded columns bind too: dictionary and RLE int vectors (and
	// sparse float vectors) are decoded into fresh scratch once per
	// bind, so the fused loop keeps its plain-vector inner body — except
	// the state index column, whose RLE runs the loop iterates directly.
	intVec := func(cs *ColStore, idx int) []int64 {
		c := colAt(cs, idx)
		if c == nil || len(c.nulls) != 0 {
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
	floatVec := func(cs *ColStore, idx int) []float64 {
		c := colAt(cs, idx)
		if c == nil || len(c.nulls) != 0 {
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
	if c := colAt(state, prog.sCol); c != nil && c.kind == colIntRLE && len(c.nulls) == 0 {
		bk.sRuns = c.runs
		env.storageCtrs.bumpKernelEncBind()
	} else {
		bk.sKey = intVec(state, prog.sCol)
	}
	bk.s0a = floatVec(state, prog.s0a)
	bk.s0b = floatVec(state, prog.s0b)
	bk.s1a = floatVec(state, prog.s1a)
	bk.s1b = floatVec(state, prog.s1b)
	gIn := intVec(gate, prog.gIn)
	g0a := floatVec(gate, prog.g0a)
	g0b := floatVec(gate, prog.g0b)
	g1a := floatVec(gate, prog.g1a)
	g1b := floatVec(gate, prog.g1b)
	var gOut []int64
	if prog.gOut >= 0 {
		gOut = intVec(gate, prog.gOut)
		if gOut == nil {
			return nil, kfColumnTypes
		}
	}
	if (bk.sKey == nil && bk.sRuns == nil) || bk.s0a == nil || bk.s0b == nil || bk.s1a == nil || bk.s1b == nil ||
		gIn == nil || g0a == nil || g0b == nil || g1a == nil || g1b == nil {
		return nil, kfColumnTypes
	}
	bk.buckets = make(map[int64][]kGateRow, gate.rows)
	for r := 0; r < gate.rows; r++ {
		row := kGateRow{g0a: g0a[r], g0b: g0b[r], g1a: g1a[r], g1b: g1b[r]}
		if gOut != nil {
			row.out = gOut[r]
		}
		bk.buckets[gIn[r]] = append(bk.buckets[gIn[r]], row)
	}
	bk.morsel = state.morselCount() >= minParallelMorsels
	if !bk.morsel && prog.gOutFn != nil {
		bk.denseHi = denseBound(state, prog, gOut)
	}
	return bk, ""
}

// denseBound proves an upper bound on every group key of the
// mask-merge form (s & mask) | f(out), or returns -1. For s ≥ 0 the
// masked half is ⊆ the bits of s, so pow2mask(max s) covers it; OR-ing
// the bits of every gate row's f(out) covers the rest. Requires fresh
// exact statistics on the state index column (satellite of this tier:
// CTAS/INSERT..SELECT materialization now collects them incrementally).
func denseBound(state *ColStore, prog *kernelProg, gOut []int64) int64 {
	ts := storeStats(state)
	if ts == nil || ts.rows != state.Len() {
		return -1
	}
	cs := ts.col(prog.sCol)
	if cs == nil || !cs.intSeen || cs.intMin < 0 || cs.nulls != 0 {
		return -1
	}
	hi := pow2mask(cs.intMax)
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

// pow2mask returns the smallest 2^k - 1 covering x (x ≥ 0), or -1.
func pow2mask(x int64) int64 {
	if x < 0 {
		return -1
	}
	m := int64(1)
	for m-1 < x {
		m <<= 1
		if m <= 0 {
			return -1
		}
	}
	return m - 1
}

// kAcc is the kernel's group accumulator: group keys and the two sums
// in first-seen order (the engine's emission order), indexed either
// densely by key or through an open-addressed int64 hash. One kAcc is
// recycled across runs (a fused chain's stages, a worker's morsels):
// reset clears only what the previous run touched and keeps every
// array's capacity.
type kAcc struct {
	dense bool
	// dpos maps key to group index + 1 (dense mode); hpos maps probe
	// slot to group index + 1 (hashed mode). Both are all-zero between
	// runs.
	dpos, hpos []int32
	mask       uint64
	keys       []int64
	r, i       []float64
}

// maxAccPresize caps the group vectors' up-front capacity (a wrong
// estimate can waste at most this many groups).
const maxAccPresize = 1 << 20

// reset readies the accumulator for a run. The previous run's position
// entries are zeroed — a dense array through the keys it used, a hashed
// table wholesale. The dense array is reallocated only when denseHi
// outgrows it; the hashed table only when the hint asks for a different
// size. Group vectors keep their capacity, pre-sized from the hint.
func (a *kAcc) reset(dense bool, denseHi, hint int64) {
	if a.dense {
		for _, k := range a.keys {
			a.dpos[k] = 0
		}
	} else {
		clear(a.hpos)
	}
	a.dense = dense
	if dense {
		if int64(len(a.dpos)) <= denseHi {
			a.dpos = make([]int32, denseHi+1)
		}
	} else {
		n := hashSlots(hint)
		if len(a.hpos) != n {
			a.hpos = make([]int32, n)
		}
		a.mask = uint64(n - 1)
	}
	if c := int(min(hint, maxAccPresize)); cap(a.keys) < c {
		a.keys = make([]int64, 0, c)
		a.r = make([]float64, 0, c)
		a.i = make([]float64, 0, c)
	}
	a.keys, a.r, a.i = a.keys[:0], a.r[:0], a.i[:0]
}

// hashSlots is the hashed position table's size for a group hint: at
// most half full, so a run of hint groups never triggers grow.
func hashSlots(hint int64) int {
	n := 1024
	for int64(n) < hint*2 && n < 1<<21 {
		n <<= 1
	}
	return n
}

// footprint is the accumulator's size once bk's serial run has reset
// it (an empty run leaves it untouched): both position arrays — the
// idle one keeps its allocation — and the group vectors.
func (a *kAcc) footprint(bk *boundGate) int64 {
	dpos, hpos, groups := int64(len(a.dpos)), int64(len(a.hpos)), int64(cap(a.keys))
	if !bk.empty {
		if bk.dense() {
			dpos = max(dpos, bk.denseHi+1)
		} else {
			hpos = int64(hashSlots(bk.groupHint))
		}
		groups = max(groups, min(bk.groupHint, maxAccPresize))
	}
	return 4*(dpos+hpos) + ampRowBytes*groups
}

// slot returns the group index for a key, appending a fresh zeroed
// group on first sight. Accumulation always starts from 0.0: sumAgg
// seeds its float accumulator with float64(0) before the first add, in
// both the streaming and the merge phase.
func (a *kAcc) slot(key int64) int {
	if a.dense {
		if p := a.dpos[key]; p != 0 {
			return int(p) - 1
		}
		a.dpos[key] = int32(a.newGroup(key) + 1)
		return len(a.keys) - 1
	}
	if uint64(len(a.keys))*4 >= uint64(len(a.hpos))*3 {
		a.grow()
	}
	h := mix64(uint64(key), 0) & a.mask
	for {
		p := a.hpos[h]
		if p == 0 {
			a.hpos[h] = int32(a.newGroup(key) + 1)
			return len(a.keys) - 1
		}
		if a.keys[p-1] == key {
			return int(p) - 1
		}
		h = (h + 1) & a.mask
	}
}

// newGroup appends a zeroed group and returns its index. Full group
// vectors double (append's growth for large slices is 1.25×, which
// would reallocate several times per doubling of the state).
func (a *kAcc) newGroup(key int64) int {
	if n := len(a.keys); n == cap(a.keys) {
		c := max(2*n, 64)
		a.keys = append(make([]int64, 0, c), a.keys...)
		a.r = append(make([]float64, 0, c), a.r...)
		a.i = append(make([]float64, 0, c), a.i...)
	}
	a.keys = append(a.keys, key)
	a.r = append(a.r, 0)
	a.i = append(a.i, 0)
	return len(a.keys) - 1
}

func (a *kAcc) grow() {
	n := len(a.hpos) * 2
	a.hpos = make([]int32, n)
	a.mask = uint64(n - 1)
	for idx, key := range a.keys {
		h := mix64(uint64(key), 0) & a.mask
		for a.hpos[h] != 0 {
			h = (h + 1) & a.mask
		}
		a.hpos[h] = int32(idx + 1)
	}
}

// scanRange runs the fused loop over state rows [lo, hi): probe the
// gate buckets with the input index, and for every matching gate row
// accumulate the two complex products into the target group. The
// floating-point schedule is the interpreted engine's exactly: each
// product rounds once (the explicit float64 conversions forbid FMA
// contraction), the pair combines once, the accumulate rounds once.
func (bk *boundGate) scanRange(lo, hi int, acc *kAcc) {
	if bk.sRuns != nil {
		bk.scanRangeRuns(lo, hi, acc)
		return
	}
	prog := bk.prog
	for row := lo; row < hi; row++ {
		s := bk.sKey[row]
		bucket := bk.buckets[prog.inFn(s, 0)]
		for bi := range bucket {
			g := &bucket[bi]
			idx := acc.slot(prog.outFn(s, g.out))
			p0 := float64(bk.s0a[row] * g.g0a)
			p1 := float64(bk.s0b[row] * g.g0b)
			if prog.sub0 {
				acc.r[idx] += p0 - p1
			} else {
				acc.r[idx] += p0 + p1
			}
			q0 := float64(bk.s1a[row] * g.g1a)
			q1 := float64(bk.s1b[row] * g.g1b)
			if prog.sub1 {
				acc.i[idx] += q0 - q1
			} else {
				acc.i[idx] += q0 + q1
			}
		}
	}
}

// scanRangeRuns is scanRange over an RLE-encoded state index column:
// the bucket probe and the group-slot resolution hoist out of the row
// loop, once per run segment instead of once per row. The accumulation
// schedule is unchanged bit for bit — slots are resolved in bucket
// order (exactly what the segment's first row would have done; indices
// stay stable across accumulator growth) and the adds still run
// row-outer, bucket-inner in ascending row order. Runs whose input
// index misses every gate bucket skip the whole segment, which is the
// operate-on-encoded fast path for zero-padded amplitude tables.
func (bk *boundGate) scanRangeRuns(lo, hi int, acc *kAcc) {
	prog := bk.prog
	var idxs [4]int
	ri := runSearch(bk.sRuns, lo)
	for row := lo; row < hi; {
		r := bk.sRuns[ri]
		end := int(r.end)
		if end > hi {
			end = hi
		} else {
			ri++
		}
		s := r.v
		bucket := bk.buckets[prog.inFn(s, 0)]
		if len(bucket) == 0 {
			bk.runsSkipped.Add(1)
			row = end
			continue
		}
		slots := idxs[:0]
		if len(bucket) > len(idxs) {
			slots = make([]int, 0, len(bucket))
		}
		for bi := range bucket {
			slots = append(slots, acc.slot(prog.outFn(s, bucket[bi].out)))
		}
		for ; row < end; row++ {
			for bi := range bucket {
				g := &bucket[bi]
				idx := slots[bi]
				p0 := float64(bk.s0a[row] * g.g0a)
				p1 := float64(bk.s0b[row] * g.g0b)
				if prog.sub0 {
					acc.r[idx] += p0 - p1
				} else {
					acc.r[idx] += p0 + p1
				}
				q0 := float64(bk.s1a[row] * g.g1a)
				q1 := float64(bk.s1b[row] * g.g1b)
				if prog.sub1 {
					acc.i[idx] += q0 - q1
				} else {
					acc.i[idx] += q0 + q1
				}
			}
		}
	}
}

// runGateKernel executes a bound kernel and materializes its output
// store (the exact rows the interpreted core would have produced). A
// serial run accumulates into acc (reset first), so a caller running
// several kernels back to back can recycle one accumulator.
func runGateKernel(ctx *execCtx, k *gateKernel, bk *boundGate, collect bool, acc *kAcc) (tableStore, error) {
	// The kernel binds only ColStore inputs (bindGateStage), so the
	// engine runs the columnar layout: its stores are ColStores.
	out := newColStore(ctx.env)
	if collect {
		attachStats(out)
	}
	if bk.groupHint > 0 {
		out.hintRows(bk.groupHint)
	}
	em := &kEmitter{out: out, having: bk.prog.having, eps2: bk.prog.eps2}
	if c := int(min(bk.groupHint, batchSize)); c > 0 {
		em.keys, em.r, em.i = make([]int64, 0, c), make([]float64, 0, c), make([]float64, 0, c)
	}
	err := bk.run(ctx, em, acc)
	if err == nil {
		err = em.flush()
	}
	if err == nil {
		err = out.Freeze()
	}
	if err != nil {
		out.Release()
		return nil, err
	}
	return out, nil
}

// kSink receives a kernel run's grouped output in emission order. Two
// implementations exist: kEmitter materializes rows into a store
// (applying the pruning HAVING), and chainBuf (kernel_chain.go) keeps
// them in memory as the next fused stage's input.
type kSink interface {
	emitAll(keys []int64, r, i []float64) error
}

// run executes the bound kernel into em in the mode bindGateStage (or
// bindChainInput) chose; acc is the serial mode's recycled accumulator.
func (bk *boundGate) run(ctx *execCtx, em kSink, acc *kAcc) error {
	switch {
	case bk.empty:
		return nil
	case bk.morsel:
		return bk.runMorsel(ctx, em)
	}
	return bk.runSerial(ctx, em, acc)
}

// runSerial accumulates all state rows into one accumulator (the
// engine's single-morsel streaming aggregation) and emits groups in
// first-seen order.
func (bk *boundGate) runSerial(ctx *execCtx, em kSink, acc *kAcc) error {
	acc.reset(bk.dense(), bk.denseHi, bk.groupHint)
	for lo := 0; lo < bk.rows; lo += morselRows {
		if err := ctx.cancelled(); err != nil {
			return err
		}
		hi := lo + morselRows
		if hi > bk.rows {
			hi = bk.rows
		}
		bk.scanRange(lo, hi, acc)
	}
	return em.emitAll(acc.keys, acc.r, acc.i)
}

// kPartial is one morsel's partial sum for one group.
type kPartial struct {
	key  int64
	r, i float64
}

// runMorsel is the deterministic two-phase parallel accumulation,
// replicating parallel_agg.go's schedule bit for bit: phase 1
// accumulates each morsel independently and distributes its groups
// into aggPartitions hash partitions preserving first-seen order;
// phase 2 merges every partition across morsels in ascending morsel
// order, re-accumulating partials from a fresh 0.0; emission is
// partition-major. The schedule depends only on the data and the fixed
// morsel geometry — never on the worker count.
func (bk *boundGate) runMorsel(ctx *execCtx, em kSink) error {
	nm := (bk.rows + morselRows - 1) / morselRows
	parts := make([][aggPartitionsKernel][]kPartial, nm)
	workers := ctx.workers
	if workers < 1 {
		workers = 1
	}
	if workers > nm {
		workers = nm
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		abort    atomic.Bool
		next     atomic.Int64
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		abort.Store(true)
	}
	hint := bk.groupHint
	if hint > morselRows {
		hint = morselRows
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var acc kAcc // recycled across this worker's morsels
			for !abort.Load() {
				m := int(next.Add(1)) - 1
				if m >= nm {
					return
				}
				if err := ctx.cancelled(); err != nil {
					fail(err)
					return
				}
				acc.reset(false, -1, hint)
				lo := m * morselRows
				hi := lo + morselRows
				if hi > bk.rows {
					hi = bk.rows
				}
				bk.scanRange(lo, hi, &acc)
				for idx, key := range acc.keys {
					p := hashPartitionInt(key, 0, aggPartitionsKernel)
					parts[m][p] = append(parts[m][p], kPartial{key: key, r: acc.r[idx], i: acc.i[idx]})
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	merged := make([]*kAcc, aggPartitionsKernel)
	var pnext atomic.Int64
	pworkers := ctx.workers
	if pworkers < 1 {
		pworkers = 1
	}
	if pworkers > aggPartitionsKernel {
		pworkers = aggPartitionsKernel
	}
	phint := bk.groupHint / aggPartitionsKernel
	for w := 0; w < pworkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !abort.Load() {
				p := int(pnext.Add(1)) - 1
				if p >= aggPartitionsKernel {
					return
				}
				if err := ctx.cancelled(); err != nil {
					fail(err)
					return
				}
				acc := &kAcc{}
				acc.reset(false, -1, phint)
				for m := 0; m < nm; m++ {
					for _, pt := range parts[m][p] {
						idx := acc.slot(pt.key)
						acc.r[idx] += pt.r
						acc.i[idx] += pt.i
					}
				}
				merged[p] = acc
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	for p := 0; p < aggPartitionsKernel; p++ {
		if err := em.emitAll(merged[p].keys, merged[p].r, merged[p].i); err != nil {
			return err
		}
	}
	return nil
}

// pruned is the pruning HAVING exactly as the interpreted filter
// evaluates it: one rounding per square, one for the sum, then the
// comparison (NaN fails it, dropping the row, as Value comparison
// does).
func pruned(eps2, r, i float64) bool {
	rr := float64(r * r)
	ii := float64(i * i)
	return !(rr+ii > eps2)
}

// kEmitter buffers the surviving output rows into batchSize-row typed
// (s, r, i) vectors and appends each full batch straight into the
// output store's typed columns — one budget reservation per batch, the
// same bytes AppendBatch reserves for the rows boxed.
type kEmitter struct {
	out    *ColStore
	having bool
	eps2   float64
	keys   []int64
	r, i   []float64
}

func (e *kEmitter) emitAll(keys []int64, r, i []float64) error {
	for idx, key := range keys {
		rv, iv := r[idx], i[idx]
		if e.having && pruned(e.eps2, rv, iv) {
			continue
		}
		e.keys = append(e.keys, key)
		e.r = append(e.r, rv)
		e.i = append(e.i, iv)
		if len(e.keys) >= batchSize {
			if err := e.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *kEmitter) flush() error {
	if len(e.keys) == 0 {
		return nil
	}
	err := e.out.appendAmps(e.keys, e.r, e.i)
	e.keys, e.r, e.i = e.keys[:0], e.r[:0], e.i[:0]
	return err
}
