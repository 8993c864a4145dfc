package sqlengine

import (
	"iter"
	"math"
	"math/bits"
	"slices"
)

// Cube execution: a chain's last stages over a key-indexed state vector.
//
// A dense gate stage is a mat-vec on each coset of its gate qubits Q
// (the states that differ only on Q). The bucketed loop (kernel_gate.go)
// computes it as a join plus group-by: a bucket lookup, a group lookup
// and first-seen bookkeeping per row, then a copy of every surviving
// row into the next stage's chainBuf. When the state's keys are exactly
// the subsets of a mask m, the chain instead holds it as a cube: re/im
// vectors indexed by key. A cube stage's output slots are exactly the
// subsets of mout = (m & keep) | OR(outBits); it computes each slot
// from the state rows of its coset that feed it, stores it once, and
// applies the pruning HAVING on the way (step).
//
// Exactness (the determinism contract of kernel.go still holds bit for
// bit). The bucketed loop adds into each slot in the order its input
// rows arrive; the cube adds in its own order. Order matters only when a
// slot receives three or more adds: for two finite addends, (0+a)+b and
// (0+b)+a give the same bits, signed zeros included. So a stage runs in
// the cube only if no slot can receive more than two adds (cosetExact:
// the probe reads only the bits Q that keep clears, every outBits lies
// in Q, and over all 2^|Q| patterns no outBits value is reached more
// than twice) and every factor it multiplies is finite. A slot no row
// reaches holds +0 in the cube and is never emitted by the bucketed
// loop; the pruning HAVING drops +0, so the stage must have one. Within
// a suffix of such stages that ends at the top of a chain emitting in
// key order (chainPlan.keyOrder), no add and no emitted row depends on
// the order of intermediate rows: the top stage's rows are sorted by
// their unique key. That suffix is the only place the cube runs.
//
// The bottom stage reads a store, whose keys need not be unique, and
// always runs bucketed. A suffix stage enters the cube when its input
// chainBuf is a full sub-cube (len(keys) == 2^popcount(OR keys)) of
// finite amplitudes and its key range fits; a stage whose survivors are
// no longer a full sub-cube hands them on in key order to the bucketed
// loop, which by the same fan-in argument stays exact. Runs under a
// bounded budget stay bucketed: the cube's vectors are not reserved.

// maxCosetBits bounds the gate-side bits Q of a cube stage: cosetExact
// enumerates all 2^|Q| patterns. Every gate table flatBuckets indexes
// has at most this many.
const maxCosetBits = 10

// cubeFrom returns the first stage of the chain's cube suffix: the
// longest run of cosetExact stages ending at the top, above the bottom
// stage. It returns len(plan.stages) when the chain has none or may not
// use the cube (no key-ordered top, or a bounded budget).
func cubeFrom(plan *chainPlan, bounded bool) int {
	from := len(plan.stages)
	if !plan.keyOrder || bounded {
		return from
	}
	for from > 1 && plan.stages[from-1].cosetExact() {
		from--
	}
	return from
}

// cosetExact reports whether interior stage st may run in the cube (see
// the exactness argument above) and records the OR of the output bits
// its gate rows can reach in st.outMask.
func (st *chainStage) cosetExact() bool {
	prog := st.kern.prog
	if st.buckets == nil || prog.in == nil || prog.gOutFn == nil || !prog.having || !pruned(prog.eps2, 0, 0) {
		return false
	}
	q := ^prog.keep & math.MaxInt64
	if bits.OnesCount64(uint64(q)) > maxCosetBits {
		return false
	}
	for _, t := range prog.in.terms {
		// The term reads the state bits mask << shr, none of them the
		// sign.
		if t.mask < 0 || t.mask > math.MaxInt64>>t.shr || (t.mask<<t.shr)&^q != 0 {
			return false
		}
	}
	var scratch [64]int64
	outs := scratch[:0]
	var outMask int64
	for sub := range subsets(q) {
		for _, g := range st.buckets.get(prog.in.eval(sub)) {
			if g.outBits < 0 || g.outBits&^q != 0 || !finite(g.g0a) || !finite(g.g0b) || !finite(g.g1a) || !finite(g.g1b) {
				return false
			}
			outs = append(outs, g.outBits)
			outMask |= g.outBits
		}
	}
	slices.Sort(outs)
	for i := 2; i < len(outs); i++ {
		if outs[i] == outs[i-2] {
			return false
		}
	}
	st.outMask = outMask
	return true
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// cube is a chain's state as a key-indexed vector. While live, the
// state's keys are exactly the subsets of m and re[k], im[k] hold key
// k's amplitude; nre, nim receive the next stage's output.
type cube struct {
	live     bool
	m        int64
	re, im   []float64
	nre, nim []float64
	slots    []cubeSlot // step's scratch
}

// fit returns stage st's output mask over state mask m, and whether the
// key range max(m, mout) stays below denseCap and within the 8×-rows
// bound boundGate.dense puts on a dense accumulator.
func (c *cube) fit(st *chainStage, m int64) (int64, bool) {
	mout := m&st.kern.prog.keep | st.outMask
	hi := max(m, mout)
	return mout, hi < denseCap && hi < 8*max(cubeRows(m), 1024)
}

// load enters the cube from a chain buffer when its keys are a full
// sub-cube (keys are unique: a buffer holds one GROUP BY's output), its
// amplitudes are finite, and stage st fits.
func (c *cube) load(st *chainStage, in *chainBuf) {
	m := in.or
	if m < 0 || int64(len(in.keys)) != cubeRows(m) {
		return
	}
	if _, ok := c.fit(st, m); !ok {
		return
	}
	c.re, c.im = sized(c.re, m+1), sized(c.im, m+1)
	for j, k := range in.keys {
		r, i := in.re[j], in.im[j]
		if !finite(r) || !finite(i) {
			return
		}
		c.re[k], c.im[k] = r, i
	}
	c.live, c.m = true, m
}

// sized returns v resliced to n entries. When v is too small it is
// reallocated with a power-of-two capacity, so a state widening one
// qubit at a time reallocates once per new top key bit.
func sized(v []float64, n int64) []float64 {
	if int64(cap(v)) < n {
		return make([]float64, n, pow2mask(n-1)+1)
	}
	return v[:n]
}

// step runs stage st over the cube into output mask mout, swaps the
// output in as the state, and applies the stage's pruning HAVING: when
// the survivors are a full sub-cube of their OR, the cube stays live
// over it; otherwise the cube ends and the caller drains the survivors.
// It returns the survivor count.
//
// The state's keys are b | q, with b ⊆ m & keep naming the coset and
// q ⊆ m &^ keep the row within it; the output slots are b | u with
// u ⊆ outMask. The probe reads only the bits keep clears, so each
// in-coset slot u's terms — the rows q whose probe matches a gate row
// with outBits u, at most two (cosetExact) — are gathered once per
// stage. Each slot is then computed in registers from +0 with the
// bucketed loop's madd rounding and stored once; a slot with no term
// stores +0. It polls ctx once per cancelPollRows amplitudes.
func (c *cube) step(ctx *execCtx, st *chainStage, mout int64) (int64, error) {
	prog := st.kern.prog
	c.slots = c.slots[:0]
	for u := range subsets(st.outMask) {
		c.slots = append(c.slots, cubeSlot{u: u})
	}
	for q := range subsets(c.m &^ prog.keep) {
		for _, g := range st.buckets.get(prog.in.eval(q)) {
			// The slots are in increasing u: slot u sits at u's rank
			// among the subsets of outMask.
			sl := &c.slots[subsetRank(g.outBits, st.outMask)]
			sl.t[sl.n] = cubeTerm{q: q, g0a: g.g0a, g0b: g.g0b, g1a: g.g1a, g1b: g.g1b}
			sl.n++
		}
	}
	c.nre, c.nim = sized(c.nre, mout+1), sized(c.nim, mout+1)
	nre, nim := c.nre, c.nim
	pick := func(slot int) []float64 {
		if slot == 1 {
			return c.re
		}
		return c.im
	}
	s0a, s0b, s1a, s1b := pick(prog.s0a), pick(prog.s0b), pick(prog.s1a), pick(prog.s1b)
	slots, sub0, sub1, eps2 := c.slots, prog.sub0, prog.sub1, prog.eps2
	rows, poll := cubeRows(c.m&^prog.keep), int64(0)
	var or, n int64
	bm := c.m & prog.keep
	for b := int64(0); ; b = (b - bm) & bm {
		if poll <= 0 {
			if err := ctx.cancelled(); err != nil {
				return 0, err
			}
			poll = cancelPollRows
		}
		poll -= rows
		for si := range slots {
			sl := &slots[si]
			var r, i float64
			for k := 0; k < sl.n; k++ {
				t := &sl.t[k]
				s := b | t.q
				r = madd(r, s0a[s], t.g0a, s0b[s], t.g0b, sub0)
				i = madd(i, s1a[s], t.g1a, s1b[s], t.g1b, sub1)
			}
			o := b | sl.u
			nre[o], nim[o] = r, i
			if !pruned(eps2, r, i) {
				or |= o
				n++
			}
		}
		if b == bm {
			break
		}
	}
	c.re, c.nre, c.im, c.nim = c.nre, c.re, c.nim, c.im
	if n == cubeRows(or) {
		c.m = or
	} else {
		c.live = false
	}
	return n, nil
}

// cubeSlot is one in-coset output slot u of a stage with the terms that
// add into it.
type cubeSlot struct {
	u int64
	n int
	t [2]cubeTerm
}

// cubeTerm is one add into a slot: the products of in-coset row q with
// one gate row's factors.
type cubeTerm struct {
	q                  int64
	g0a, g0b, g1a, g1b float64
}

// subsetRank returns the position of u ⊆ m among the subsets of m in
// increasing order: u's bits, gathered from m's bit positions.
func subsetRank(u, m int64) int {
	r := 0
	for k := 0; m != 0; m &= m - 1 {
		if u&m&-m != 0 {
			r |= 1 << k
		}
		k++
	}
	return r
}

// subsets yields the subsets of mask m ≥ 0 in increasing order
// (s = (s − m) & m).
func subsets(m int64) iter.Seq[int64] {
	return func(yield func(int64) bool) {
		for s := int64(0); yield(s) && s != m; s = (s - m) & m {
		}
	}
}

// cubeRows is the number of subsets of mask m.
func cubeRows(m int64) int64 { return 1 << bits.OnesCount64(uint64(m)) }

// drain hands the cube's rows of keys ⊆ mask on to out in key order:
// with having, only those the pruning HAVING (eps2) keeps.
func (c *cube) drain(mask int64, having bool, eps2 float64, out *chainBuf) {
	for s := range subsets(mask) {
		if !having || !pruned(eps2, c.re[s], c.im[s]) {
			out.add(s, c.re[s], c.im[s])
		}
	}
}

// emit runs the top stage st over the cube into mout and sends its
// slots in key order through the store emitter, which applies the
// pruning HAVING.
func (c *cube) emit(ctx *execCtx, st *chainStage, mout int64, em *kEmitter) error {
	if _, err := c.step(ctx, st, mout); err != nil {
		return err
	}
	for s := range subsets(mout) {
		if err := em.add(s, c.re[s], c.im[s]); err != nil {
			return err
		}
	}
	return nil
}
