package sqlengine

// Execution of a compiled gate-stage kernel: bind the program to the
// current ColStore vectors, then run one fused
// scan⋈join⋈agg⋈project loop (see the determinism contract in
// kernel.go).

// kGateRow is one gate-table row in the bucket table: the output-index
// column plus the four float factors of the two SUM products, gathered
// once at bind time. outBits is the gate-side half gOutFn(out) of a
// (s & keep) | f(out) group key, precomputed so the fused loop never
// evaluates f.
type kGateRow struct {
	out, outBits       int64
	g0a, g0b, g1a, g1b float64
}

// flatBuckets bounds the probe keys a flat bucket table indexes
// directly: every gate table of up to 10 qubits fits.
const flatBuckets = 1 << 10

// kBuckets replaces the hash join's build table: the gate rows of each
// build key in gate-table order, exactly the streaming join's insertion
// order. When every build key lies in [0, flatBuckets) the buckets are
// a slice indexed by the probe key; otherwise a map.
type kBuckets struct {
	flat   [][]kGateRow
	hashed map[int64][]kGateRow
	// widest is the largest bucket's row count.
	widest int
}

// get returns the gate rows matching probe key k.
func (b *kBuckets) get(k int64) []kGateRow {
	if b.hashed != nil {
		return b.hashed[k]
	}
	if uint64(k) < uint64(len(b.flat)) {
		return b.flat[k]
	}
	return nil
}

// boundGate is a program bound to concrete table vectors for one
// execution. Rebinding is cheap (the gate table is a 2×2/4×4 matrix),
// which is what lets a sweep reuse one cached program across thousands
// of numeric rebinds.
type boundGate struct {
	prog *kernelProg
	rows int
	// sKey is the state amplitude-index vector; s0a..s1b the state
	// float vectors of the SUM factors (slices may alias).
	sKey               []int64
	s0a, s0b, s1a, s1b []float64
	// buckets replaces the hash join.
	buckets *kBuckets
	// denseHi, when >= 0, is a proven upper bound on every group key:
	// the run then may use a dense array accumulator instead of a hash
	// table.
	denseHi   int64
	groupHint int64
	empty     bool
}

// denseCap bounds the dense accumulator's position array (int32
// entries; 1<<22 keys = 16 MB of scratch).
const denseCap = 1 << 22

// ampRowBytes is the in-memory size of one (key, re, im) triple: one
// accumulator group, one chainBuf row, one emitter batch row.
const ampRowBytes = 24

// dense reports whether run accumulates through a dense position
// array. A dense array costs its whole key range; a few rows spread
// over a wide range (GHZ: two rows, keys up to 2^n) accumulate hashed
// instead. Either mode emits groups first-seen.
func (bk *boundGate) dense() bool {
	return bk.denseHi >= 0 && bk.denseHi < 8*max(int64(bk.rows), 1024)
}

// groupBound is an upper bound on a run's group count: every
// input row feeds at most one group per row of its gate bucket, and a
// dense run's keys all lie in [0, denseHi].
func (bk *boundGate) groupBound() int64 {
	n := int64(bk.rows) * int64(bk.buckets.widest)
	if bk.dense() {
		n = min(n, bk.denseHi+1)
	}
	return n
}

// presizeDense sizes a dense run's group vectors, output batch and
// next-stage buffer for its proven group bound — the stage's output,
// not its input row count — so a stage that widens the state (H
// doubles it) never regrows them mid-run.
func (bk *boundGate) presizeDense() {
	if bk.dense() {
		bk.groupHint = bk.groupBound()
	}
}

// presizeToBound readies a run for a bounded budget: the group hint
// becomes the group bound, so the accumulator, the stage buffers, and
// the emitter batch are allocated once at a size their reservation
// covers and never grow past it. Reports false for a run whose working
// set cannot be bounded up front: one past the pre-size caps.
func (bk *boundGate) presizeToBound() bool {
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

// emitterBytes is the footprint of emitStore's emitter batch.
func emitterBytes(groupHint int64) int64 {
	return ampRowBytes * min(groupHint, batchSize)
}

// kReserve is a kernel run's reservation against a bounded budget: the
// working set of the stage running now, released in one piece when the
// run ends.
type kReserve struct {
	budget *MemBudget
	held   int64
}

// resize sets the reservation to n bytes: a smaller n gives the surplus
// back, a larger one reserves the growth, reporting false (and
// reserving nothing more) when the budget refuses.
func (r *kReserve) resize(n int64) bool {
	if n <= r.held {
		r.budget.release(r.held - n)
		r.held = n
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

// bindGateStage binds a chain's bottom stage to the current stores of
// its scans, running the data-dependent checks the matcher cannot do
// statically.
func bindGateStage(k *gateKernel) (*boundGate, string) {
	scan := scanOf(k.join.left)
	if scan == nil {
		return nil, kfScanShape
	}
	prog := k.prog
	state, gate := scan.store, k.gate.store
	if err := state.Freeze(); err != nil {
		return nil, kfSpilled
	}
	if err := gate.Freeze(); err != nil {
		return nil, kfSpilled
	}
	if state.Spilled() || gate.Spilled() {
		return nil, kfSpilled
	}
	bk := &boundGate{prog: prog, rows: state.rows, groupHint: int64(state.rows), denseHi: -1}
	if state.rows == 0 || gate.rows == 0 {
		// A grouped aggregation of an empty join emits no rows; nothing
		// to check or bind.
		bk.empty = true
		return bk, ""
	}
	bk.sKey = kernelIntVec(state, prog.sCol)
	bk.s0a = kernelFloatVec(state, prog.s0a)
	bk.s0b = kernelFloatVec(state, prog.s0b)
	bk.s1a = kernelFloatVec(state, prog.s1a)
	bk.s1b = kernelFloatVec(state, prog.s1b)
	if bk.sKey == nil || bk.s0a == nil || bk.s0b == nil || bk.s1a == nil || bk.s1b == nil {
		return nil, kfColumnTypes
	}
	var gOut []int64
	var reason string
	if bk.buckets, gOut, reason = bindGateSide(prog, gate); reason != "" {
		return nil, reason
	}
	if prog.gOutFn != nil {
		bk.denseHi = denseBound(state, prog, gOut)
	}
	bk.presizeDense()
	return bk, ""
}

// denseBound proves an upper bound on every group key of the
// mask-merge form (s & mask) | f(out), or returns -1. For s ≥ 0 the
// masked half is ⊆ the bits of s, so pow2mask(max s) covers it
// (gateDenseBound ORs in the rest). Requires fresh exact statistics on
// the state index column (CTAS/INSERT..SELECT materialization collects
// them incrementally).
func denseBound(state *ColStore, prog *kernelProg, gOut []int64) int64 {
	ts := state.stats
	if ts == nil || ts.rows != state.Len() {
		return -1
	}
	cs := ts.col(prog.sCol)
	if cs == nil || !cs.intSeen || cs.intMin < 0 || cs.nulls != 0 {
		return -1
	}
	return gateDenseBound(pow2mask(cs.intMax), prog, gOut)
}

// gateDenseBound ORs the bits of every gate row's f(out) onto hi, the
// covering mask of the state keys, giving the dense key bound — or -1
// when hi is unbounded, an f(out) is negative, or the bound reaches
// denseCap. The state side's mask comes from table statistics
// (denseBound) or a fused chain buffer's own key range
// (bindChainInput).
func gateDenseBound(hi int64, prog *kernelProg, gOut []int64) int64 {
	if hi < 0 {
		return -1
	}
	if gOut == nil {
		gOut = []int64{0}
	}
	for _, out := range gOut {
		v := prog.gOutFn(0, out)
		if v < 0 {
			return -1
		}
		hi |= v
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
// recycled across runs (a fused chain's stages):
// reset clears only what the previous run touched and keeps every
// array's capacity.
type kAcc struct {
	dense bool
	// dpos maps key to group index + 1 (dense mode); hpos maps probe
	// slot to group index + 1 (hashed mode). Both are all-zero between
	// runs. hi is the dense run's key bound (every key ≤ hi).
	dpos, hpos []int32
	hi         int64
	mask       uint64
	keys       []int64
	r, i       []float64
}

// maxAccPresize caps the group vectors' up-front capacity (a loose
// group bound can waste at most this many groups).
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
	a.dense, a.hi = dense, denseHi
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

// footprint is the accumulator's size once bk's run has reset
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

// hashedSlot returns the group index for a key in hashed mode,
// appending a fresh zeroed group on first sight. Accumulation always
// starts from 0.0: sumAgg seeds its float accumulator with float64(0)
// before the first add.
func (a *kAcc) hashedSlot(key int64) int {
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
	prog, in, dense, buckets := bk.prog, bk.prog.in, acc.dense, *bk.buckets
	for row := lo; row < hi; row++ {
		s := bk.sKey[row]
		var probe int64
		if in != nil {
			probe = in.eval(s)
		} else {
			probe = prog.inFn(s, 0)
		}
		bucket := buckets.get(probe)
		if len(bucket) == 0 {
			continue
		}
		a0, b0, a1, b1 := bk.s0a[row], bk.s0b[row], bk.s1a[row], bk.s1b[row]
		for bi := range bucket {
			g := &bucket[bi]
			// The group's slot: the dense lookup inline, else hashed.
			key := prog.groupKey(s, g)
			var idx int
			switch {
			case !dense:
				idx = acc.hashedSlot(key)
			case acc.dpos[key] != 0:
				idx = int(acc.dpos[key]) - 1
			default:
				idx = acc.newGroup(key)
				acc.dpos[key] = int32(idx + 1)
			}
			acc.r[idx] = madd(acc.r[idx], a0, g.g0a, b0, g.g0b, prog.sub0)
			acc.i[idx] = madd(acc.i[idx], a1, g.g1a, b1, g.g1b, prog.sub1)
		}
	}
}

// madd returns sum + (a·b − c·d) when sub, else sum + (a·b + c·d), with
// one rounding per product, the pair, and the accumulate.
func madd(sum, a, b, c, d float64, sub bool) float64 {
	p0, p1 := float64(a*b), float64(c*d)
	if sub {
		return sum + (p0 - p1)
	}
	return sum + (p0 + p1)
}

// emitStore materializes a kernel run's output store (the exact rows
// the interpreted core would have produced): fill sends the rows to an
// emitter over a fresh store pre-sized for hint rows, with statistics
// when collect is set. keyOrder makes a dense bucketed run emit in
// ascending key order instead of first-seen (see kEmitter).
func emitStore(ctx *execCtx, prog *kernelProg, hint int64, collect, keyOrder bool, fill func(*kEmitter) error) (*ColStore, error) {
	out := ctx.env.newStore()
	if collect {
		out.stats = &tableStats{}
	}
	if hint > 0 {
		out.hintRows(hint)
	}
	em := &kEmitter{out: out, having: prog.having, eps2: prog.eps2, keyOrder: keyOrder}
	if c := int(min(hint, batchSize)); c > 0 {
		em.keys, em.r, em.i = make([]int64, 0, c), make([]float64, 0, c), make([]float64, 0, c)
	}
	err := fill(em)
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

// kSink receives a kernel run's accumulated groups. Two
// implementations exist: kEmitter materializes rows into a store
// (applying the pruning HAVING), and chainBuf (kernel_chain.go) keeps
// them in memory as the next fused stage's input.
type kSink interface {
	emit(a *kAcc) error
}

// cancelPollRows is the fused loop's cancellation-poll stride: run
// checks the statement context once per this many state rows.
const cancelPollRows = 8 * batchSize

// run executes the bound kernel into em, accumulating into acc: every
// state row in order, into one accumulator — the order the engine's
// streaming aggregation adds the same rows — then emits its groups.
func (bk *boundGate) run(ctx *execCtx, em kSink, acc *kAcc) error {
	if bk.empty {
		return nil
	}
	acc.reset(bk.dense(), bk.denseHi, bk.groupHint)
	for lo := 0; lo < bk.rows; lo += cancelPollRows {
		if err := ctx.cancelled(); err != nil {
			return err
		}
		bk.scanRange(lo, min(lo+cancelPollRows, bk.rows), acc)
	}
	return em.emit(acc)
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
//
// Groups go out first-seen, except with keyOrder on a dense
// accumulator: the emitter then walks the key positions 0..hi and
// emits in ascending key order, which the output store's append-time
// order bit records and a sort on the key then skips (sort.go).
type kEmitter struct {
	out      *ColStore
	having   bool
	eps2     float64
	keyOrder bool
	keys     []int64
	r, i     []float64
}

func (e *kEmitter) emit(a *kAcc) error {
	if !e.keyOrder || !a.dense {
		for idx, key := range a.keys {
			if err := e.add(key, a.r[idx], a.i[idx]); err != nil {
				return err
			}
		}
		return nil
	}
	for key, p := range a.dpos[:a.hi+1] {
		if p == 0 {
			continue
		}
		if err := e.add(int64(key), a.r[p-1], a.i[p-1]); err != nil {
			return err
		}
	}
	return nil
}

// add emits one group unless the pruning HAVING drops it.
func (e *kEmitter) add(key int64, r, i float64) error {
	if e.having && pruned(e.eps2, r, i) {
		return nil
	}
	e.keys = append(e.keys, key)
	e.r = append(e.r, r)
	e.i = append(e.i, i)
	if len(e.keys) >= batchSize {
		return e.flush()
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
