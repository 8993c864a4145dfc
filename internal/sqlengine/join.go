package sqlengine

import (
	"fmt"
	"hash/fnv"
	"math"
)

// Limits for recursive grace partitioning.
const (
	maxGraceDepth = 8
	defaultFanout = 16
	mapEntryBytes = 64 // estimated per-entry map bookkeeping overhead
)

// joinStrategy is the physical join execution choice.
type joinStrategy int

const (
	// joinAuto: try the in-memory streaming build, degrade dynamically.
	joinAuto joinStrategy = iota
	// joinGrace: the bound build side cannot fit the memory budget;
	// skip the doomed in-memory attempt and go straight to the
	// grace-partitioned out-of-core join.
	joinGrace
)

// joinNode implements INNER, LEFT, and CROSS joins. When equi-key pairs
// were extracted from the ON clause it runs a hash join that degrades to
// recursive grace partitioning under memory pressure; otherwise it runs a
// block nested-loop join. Inputs are consumed as batches with vectorized
// key evaluation; the join itself is a blocking operator that emits its
// result as a batched store scan.
type joinNode struct {
	left, right planNode
	joinType    string // "INNER", "LEFT", "CROSS"
	leftKeys    []Expr // parallel with rightKeys
	rightKeys   []Expr
	residual    Expr // may be nil
	// strategy is planner.bind's execution choice: joinAuto tries the
	// in-memory streaming build; joinGrace goes straight to the
	// grace-partitioned out-of-core join (chosen when the bound build
	// side cannot fit the memory budget).
	strategy joinStrategy
	// buildHint pre-sizes the build-side hash table (0 = no hint);
	// hintable lets planner.bind re-size it from the build side's
	// refreshed row count.
	buildHint int64
	hintable  bool
	est       *nodeEst
}

func (n *joinNode) schema() planSchema {
	ls := n.left.schema()
	rs := n.right.schema()
	out := make(planSchema, 0, len(ls)+len(rs))
	out = append(out, ls...)
	out = append(out, rs...)
	return out
}

func (n *joinNode) open(ctx *execCtx) (batchIter, error) {
	ls, rs := n.left.schema(), n.right.schema()
	var residual compiledExpr
	if n.residual != nil {
		var err error
		residual, err = ctx.compile(n.residual, n.schema())
		if err != nil {
			return nil, err
		}
	}

	leftIter, err := n.left.open(ctx)
	if err != nil {
		return nil, err
	}
	rightIter, err := n.right.open(ctx)
	if err != nil {
		leftIter.Close()
		return nil, err
	}

	exec := &joinExec{
		ctx:        ctx,
		joinType:   n.joinType,
		residual:   residual,
		leftWidth:  len(ls),
		rightWidth: len(rs),
		buildHint:  n.buildHint,
	}

	if len(n.leftKeys) > 0 {
		lk, err := ctx.compileVecAll(n.leftKeys, ls)
		if err != nil {
			leftIter.Close()
			rightIter.Close()
			return nil, err
		}
		rk, err := ctx.compileVecAll(n.rightKeys, rs)
		if err != nil {
			leftIter.Close()
			rightIter.Close()
			return nil, err
		}
		exec.nkeys = len(lk)
		if n.strategy == joinGrace && ctx.env.spillEnabled {
			return exec.openGraceJoin(leftIter, rightIter, lk, rk)
		}
		return exec.openHashJoin(leftIter, rightIter, lk, rk)
	}

	out, err := exec.nestedLoop(leftIter, rightIter)
	leftIter.Close()
	rightIter.Close()
	if err != nil {
		return nil, err
	}
	return newOwnedStoreIter(out)
}

// openHashJoin builds a hash table from the right input and, when it
// fits in memory, streams the left input through it batch by batch —
// no left-side materialization, no output store, and no per-match row
// allocation. When the build side overflows the budget it falls back to
// the blocking grace hash join over spillable keyed stores.
func (j *joinExec) openHashJoin(left, right batchIter, lk, rk []vecExpr) (batchIter, error) {
	build, reserved, rightStore, err := j.buildRight(right, rk)
	right.Close()
	if err != nil {
		left.Close()
		return nil, err
	}
	if rightStore == nil {
		return &hashProbeIter{j: j, left: left, lk: lk, build: build, reserved: reserved,
			out:      newRowBatch(j.leftWidth + j.rightWidth),
			combined: make(Row, j.leftWidth+j.rightWidth),
			keyBuf:   make(Row, j.nkeys),
		}, nil
	}
	// Overflow: grace-partition both sides out of core.
	defer rightStore.Release()
	leftStore, err := j.materializeKeyed(left, lk)
	left.Close()
	if err != nil {
		return nil, err
	}
	defer leftStore.Release()
	out := j.ctx.env.newStore()
	if err := j.joinStores(leftStore, rightStore, 0, out); err != nil {
		out.Release()
		return nil, err
	}
	if err := out.Freeze(); err != nil {
		out.Release()
		return nil, err
	}
	return newOwnedStoreIter(out)
}

// openGraceJoin is the pre-chosen out-of-core path: both sides are
// materialized as keyed stores and grace-partition joined, skipping the
// in-memory build attempt planner.bind determined could never fit.
func (j *joinExec) openGraceJoin(left, right batchIter, lk, rk []vecExpr) (batchIter, error) {
	rightStore, err := j.materializeKeyed(right, rk)
	right.Close()
	if err != nil {
		left.Close()
		return nil, err
	}
	defer rightStore.Release()
	leftStore, err := j.materializeKeyed(left, lk)
	left.Close()
	if err != nil {
		return nil, err
	}
	defer leftStore.Release()
	out := j.ctx.env.newStore()
	if err := j.joinStores(leftStore, rightStore, 0, out); err != nil {
		out.Release()
		return nil, err
	}
	if err := out.Freeze(); err != nil {
		out.Release()
		return nil, err
	}
	return newOwnedStoreIter(out)
}

// buildRight drains the right input into an in-memory build table of
// keyed rows. On success rightStore is nil and the caller owns the
// returned budget reservation. On budget overflow all reservations are
// released and every right row (the ones already tabled plus the rest of
// the stream) is returned as a keyed store for grace partitioning.
func (j *joinExec) buildRight(right batchIter, rk []vecExpr) (*buildTable, int64, *ColStore, error) {
	budget := j.ctx.env.budget
	build := newBuildTable(j.nkeys, j.buildHint)
	var reserved int64
	keyCols := make([]colVec, j.nkeys)
	overflow := false
	var pending []Row // keyed rows not yet tabled when overflow hits
	for !overflow {
		if err := j.ctx.cancelled(); err != nil {
			budget.release(reserved)
			return nil, 0, nil, err
		}
		b, err := right.NextBatch()
		if err != nil {
			budget.release(reserved)
			return nil, 0, nil, err
		}
		if b == nil {
			break
		}
		sel := b.selection()
		for i, k := range rk {
			col, err := k(b, sel)
			if err != nil {
				budget.release(reserved)
				return nil, 0, nil, err
			}
			keyCols[i] = col
		}
		width := b.width()
		for si, pos := range sel {
			keyed := make(Row, j.nkeys+width)
			for i := 0; i < j.nkeys; i++ {
				keyed[i] = keyCols[i][pos]
			}
			b.gather(pos, keyed[j.nkeys:])
			if !build.hasValidKey(keyed) {
				continue // NULL keys never match
			}
			need := rowBytes(keyed) + mapEntryBytes
			if !budget.tryReserve(need) {
				// See joinStores: blocking operators may claim a small
				// working floor before giving up.
				if reserved+need > j.ctx.env.workingFloor {
					overflow = true
					// Collect the rest of this batch, then spill.
					for _, p2 := range sel[si:] {
						keyed2 := make(Row, j.nkeys+width)
						for i := 0; i < j.nkeys; i++ {
							keyed2[i] = keyCols[i][p2]
						}
						b.gather(p2, keyed2[j.nkeys:])
						pending = append(pending, keyed2)
					}
					break
				}
				budget.reserveForce(need)
			}
			reserved += need
			build.insert(keyed, j)
		}
	}
	if !overflow {
		return build, reserved, nil, nil
	}
	budget.release(reserved)
	if !j.ctx.env.spillEnabled {
		return nil, 0, nil, ErrBudget
	}
	// Dump the tabled rows plus the remainder of the stream into a keyed
	// store; map order is irrelevant because downstream access is always
	// per-key.
	store := j.ctx.env.newStore()
	fail := func(err error) (*buildTable, int64, *ColStore, error) {
		store.Release()
		return nil, 0, nil, err
	}
	for _, rows := range build.ints {
		for _, keyed := range rows {
			if err := store.Append(keyed); err != nil {
				return fail(err)
			}
		}
	}
	for _, rows := range build.strs {
		for _, keyed := range rows {
			if err := store.Append(keyed); err != nil {
				return fail(err)
			}
		}
	}
	for _, keyed := range pending {
		if err := store.Append(keyed); err != nil {
			return fail(err)
		}
	}
	// Drain the rest of the right input.
	for {
		if err := j.ctx.cancelled(); err != nil {
			return fail(err)
		}
		b, err := right.NextBatch()
		if err != nil {
			return fail(err)
		}
		if b == nil {
			break
		}
		sel := b.selection()
		for i, k := range rk {
			col, err := k(b, sel)
			if err != nil {
				return fail(err)
			}
			keyCols[i] = col
		}
		width := b.width()
		for _, pos := range sel {
			keyed := make(Row, j.nkeys+width)
			for i := 0; i < j.nkeys; i++ {
				keyed[i] = keyCols[i][pos]
			}
			b.gather(pos, keyed[j.nkeys:])
			if err := store.Append(keyed); err != nil {
				return fail(err)
			}
		}
	}
	if err := store.Freeze(); err != nil {
		return fail(err)
	}
	return nil, 0, store, nil
}

// hashProbeIter streams left batches through the in-memory build table,
// emitting combined rows into a reusable output batch. It resumes
// mid-row across NextBatch calls so no output batch exceeds batchSize.
type hashProbeIter struct {
	j        *joinExec
	left     batchIter
	lk       []vecExpr
	build    *buildTable
	reserved int64
	out      *rowBatch
	combined Row // scratch [left values..., right values...]
	keyBuf   Row // scratch probe key

	cur      *rowBatch
	sel      []int
	selPos   int
	keyCols  []colVec
	inRow    bool
	matches  []Row
	matchPos int
	matched  bool
	closed   bool
}

func (it *hashProbeIter) NextBatch() (*rowBatch, error) {
	j := it.j
	lw := j.leftWidth
	it.out.reset()
	for {
		if it.cur == nil {
			b, err := it.left.NextBatch()
			if err != nil {
				return nil, err
			}
			if b == nil {
				break
			}
			if it.keyCols == nil {
				it.keyCols = make([]colVec, j.nkeys)
			}
			sel := b.selection()
			for i, k := range it.lk {
				col, err := k(b, sel)
				if err != nil {
					return nil, err
				}
				it.keyCols[i] = col
			}
			it.cur, it.sel, it.selPos = b, sel, 0
		}
		for it.selPos < len(it.sel) {
			pos := it.sel[it.selPos]
			if !it.inRow {
				it.cur.gather(pos, it.combined[:lw])
				for i := 0; i < j.nkeys; i++ {
					it.keyBuf[i] = it.keyCols[i][pos]
				}
				it.matches = it.build.lookup(it.keyBuf, j)
				it.matchPos, it.matched, it.inRow = 0, false, true
			}
			for it.matchPos < len(it.matches) {
				rightKeyed := it.matches[it.matchPos]
				it.matchPos++
				copy(it.combined[lw:], rightKeyed[j.nkeys:])
				pass, err := j.passesResidual(it.combined)
				if err != nil {
					return nil, err
				}
				if !pass {
					continue
				}
				it.matched = true
				it.out.appendRow(it.combined)
				if it.out.full() {
					return it.out, nil
				}
			}
			if !it.matched && j.joinType == "LEFT" {
				for i := lw; i < len(it.combined); i++ {
					it.combined[i] = Null
				}
				it.out.appendRow(it.combined)
			}
			it.inRow = false
			it.selPos++
			if it.out.full() {
				return it.out, nil
			}
		}
		it.cur = nil
	}
	if it.out.n == 0 {
		return nil, nil
	}
	return it.out, nil
}

func (it *hashProbeIter) Close() {
	if it.closed {
		return
	}
	it.closed = true
	it.j.ctx.env.budget.release(it.reserved)
	it.build = nil
	it.left.Close()
}

type joinExec struct {
	ctx        *execCtx
	joinType   string
	residual   compiledExpr
	nkeys      int
	leftWidth  int
	rightWidth int
	// buildHint pre-sizes the in-memory build table (0 = no hint).
	buildHint int64
}

// materializeKeyed stores each input row as [key values..., original
// row...]. Key expressions are evaluated batch-at-a-time.
func (j *joinExec) materializeKeyed(it batchIter, keys []vecExpr) (*ColStore, error) {
	store := j.ctx.env.newStore()
	nk := len(keys)
	keyCols := make([]colVec, nk)
	for {
		if err := j.ctx.cancelled(); err != nil {
			store.Release()
			return nil, err
		}
		b, err := it.NextBatch()
		if err != nil {
			store.Release()
			return nil, err
		}
		if b == nil {
			break
		}
		sel := b.selection()
		for i, k := range keys {
			col, err := k(b, sel)
			if err != nil {
				store.Release()
				return nil, err
			}
			keyCols[i] = col
		}
		width := b.width()
		for _, pos := range sel {
			keyed := make(Row, nk+width)
			for i := 0; i < nk; i++ {
				keyed[i] = keyCols[i][pos]
			}
			b.gather(pos, keyed[nk:])
			if err := store.Append(keyed); err != nil {
				store.Release()
				return nil, err
			}
		}
	}
	if err := store.Freeze(); err != nil {
		store.Release()
		return nil, err
	}
	return store, nil
}

// intKey normalizes a value to the int64 hash key used by the
// single-column fast paths. It mirrors encodeValueKey: INTEGER, BOOLEAN
// and integral REAL values that compare SQL-equal map to the same int64,
// and any value it rejects (NULL, TEXT, fractional REAL) can never be
// SQL-equal to one it accepts, so splitting the hash table by
// normalizability preserves grouping semantics exactly.
func intKey(v Value) (int64, bool) {
	switch v.T {
	case TypeInt, TypeBool:
		return v.I, true
	case TypeFloat:
		if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1<<62 {
			return int64(v.F), true
		}
	}
	return 0, false
}

// keyOf extracts the encoded join key of a keyed row; ok=false when any
// key component is NULL (SQL equi-joins never match on NULL).
func (j *joinExec) keyOf(keyed Row) (string, bool) {
	for _, v := range keyed[:j.nkeys] {
		if v.IsNull() {
			return "", false
		}
	}
	return encodeRowKey(keyed[:j.nkeys]), true
}

// buildTable is the hash-join build side, holding full keyed rows
// ([key values..., original row...]) so an overflowing build can be
// dumped back to a keyed store for grace partitioning. Single-column
// integer-like keys live in an int64-keyed map (no per-row key encoding
// or string allocation); everything else falls back to the encoded
// string key.
type buildTable struct {
	nkeys int
	ints  map[int64][]Row
	strs  map[string][]Row
}

// newBuildTable allocates the build hash table. hint, when positive, is
// the cost model's estimated build cardinality and pre-sizes the map so
// large builds skip the incremental rehash-and-copy growth steps.
func newBuildTable(nkeys int, hint int64) *buildTable {
	ih, sh := 0, 0
	if hint > 0 {
		if nkeys == 1 {
			ih = int(hint)
		} else {
			sh = int(hint)
		}
	}
	return &buildTable{nkeys: nkeys, ints: make(map[int64][]Row, ih), strs: make(map[string][]Row, sh)}
}

// insert files the keyed row under its join key; ok=false means a NULL
// key component (row does not participate in matches).
func (t *buildTable) insert(keyed Row, j *joinExec) bool {
	if t.nkeys == 1 {
		v := keyed[0]
		if v.IsNull() {
			return false
		}
		if ik, ok := intKey(v); ok {
			t.ints[ik] = append(t.ints[ik], keyed)
			return true
		}
	}
	key, valid := j.keyOf(keyed)
	if !valid {
		return false
	}
	t.strs[key] = append(t.strs[key], keyed)
	return true
}

// lookup returns the keyed build rows matching the probe key (the first
// nkeys values of probe are the key; extra values are ignored).
func (t *buildTable) lookup(probe Row, j *joinExec) []Row {
	if t.nkeys == 1 {
		v := probe[0]
		if v.IsNull() {
			return nil
		}
		if ik, ok := intKey(v); ok {
			return t.ints[ik]
		}
	}
	key, valid := j.keyOf(probe)
	if !valid {
		return nil
	}
	return t.strs[key]
}

// hasValidKey reports whether the keyed row has a non-NULL key.
func (t *buildTable) hasValidKey(keyed Row) bool {
	for _, v := range keyed[:t.nkeys] {
		if v.IsNull() {
			return false
		}
	}
	return true
}

// joinStores joins two keyed stores, appending combined rows to out. It
// builds a hash table on the right input; on memory pressure it
// partitions both sides and recurses.
func (j *joinExec) joinStores(leftStore, rightStore *ColStore, depth int, out *ColStore) error {
	budget := j.ctx.env.budget
	build := newBuildTable(j.nkeys, 0)
	var reserved int64
	releaseAll := func() {
		budget.release(reserved)
		reserved = 0
		build = nil
	}

	it, err := rightStore.Cursor()
	if err != nil {
		return err
	}
	overflow := false
	var seen int64
	for {
		if seen%batchSize == 0 {
			if err := j.ctx.cancelled(); err != nil {
				releaseAll()
				return err
			}
		}
		seen++
		keyed, ok, err := it.Next()
		if err != nil {
			releaseAll()
			return err
		}
		if !ok {
			break
		}
		if !build.hasValidKey(keyed) {
			continue
		}
		need := rowBytes(keyed) + mapEntryBytes
		if !budget.tryReserve(need) {
			// Operators may claim a small working floor even when
			// tables hold the whole budget; otherwise partitioning
			// could never make progress.
			if reserved+need > j.ctx.env.workingFloor {
				overflow = true
				break
			}
			budget.reserveForce(need)
		}
		reserved += need
		build.insert(keyed, j)
	}

	if overflow {
		releaseAll()
		if !j.ctx.env.spillEnabled {
			return ErrBudget
		}
		if depth >= maxGraceDepth {
			return fmt.Errorf("sqlengine: hash join exceeded maximum partitioning depth %d", maxGraceDepth)
		}
		return j.partitionAndRecurse(leftStore, rightStore, depth, out)
	}
	defer releaseAll()

	// Probe with the left input.
	lit, err := leftStore.Cursor()
	if err != nil {
		return err
	}
	seen = 0
	for {
		if seen%batchSize == 0 {
			if err := j.ctx.cancelled(); err != nil {
				return err
			}
		}
		seen++
		keyed, ok, err := lit.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		leftRow := keyed[j.nkeys:]
		matched := false
		for _, rightKeyed := range build.lookup(keyed, j) {
			rightRow := rightKeyed[j.nkeys:]
			combined := make(Row, 0, len(leftRow)+len(rightRow))
			combined = append(combined, leftRow...)
			combined = append(combined, rightRow...)
			pass, err := j.passesResidual(combined)
			if err != nil {
				return err
			}
			if !pass {
				continue
			}
			matched = true
			if err := out.Append(combined); err != nil {
				return err
			}
		}
		if !matched && j.joinType == "LEFT" {
			if err := out.Append(nullExtend(leftRow, j.rightWidth)); err != nil {
				return err
			}
		}
	}
}

func (j *joinExec) passesResidual(combined Row) (bool, error) {
	return passesResidual(j.residual, combined)
}

// passesResidual evaluates an optional residual join predicate.
func passesResidual(residual compiledExpr, combined Row) (bool, error) {
	if residual == nil {
		return true, nil
	}
	v, err := residual(combined)
	if err != nil {
		return false, err
	}
	b, known := v.Bool()
	return known && b, nil
}

func nullExtend(left Row, rightWidth int) Row {
	combined := make(Row, len(left)+rightWidth)
	copy(combined, left)
	for i := len(left); i < len(combined); i++ {
		combined[i] = Null
	}
	return combined
}

// partitionAndRecurse splits both keyed stores into fanout partitions by
// key hash (salted per depth) and joins matching pairs.
func (j *joinExec) partitionAndRecurse(leftStore, rightStore *ColStore, depth int, out *ColStore) error {
	fanout := defaultFanout
	lparts, err := j.partition(leftStore, fanout, depth, true)
	if err != nil {
		return err
	}
	defer releaseStores(lparts)
	rparts, err := j.partition(rightStore, fanout, depth, false)
	if err != nil {
		return err
	}
	defer releaseStores(rparts)
	for i := 0; i < fanout; i++ {
		if err := j.joinStores(lparts[i], rparts[i], depth+1, out); err != nil {
			return err
		}
	}
	return nil
}

// partitionIndex buckets a keyed row. Rows whose single key normalizes
// to an int64 hash through the integer mix; others hash the encoded
// string key. Both sides of a join use the same rule, so matching keys
// always land in the same partition.
func (j *joinExec) partitionIndex(keyed Row, depth, fanout int) int {
	if j.nkeys == 1 {
		if ik, ok := intKey(keyed[0]); ok {
			return hashPartitionInt(ik, depth, fanout)
		}
	}
	return hashPartition(encodeRowKey(keyed[:j.nkeys]), depth, fanout)
}

// partition distributes keyed rows by hash. keepNullKeys controls whether
// rows with NULL keys are kept (needed on the left side of LEFT joins so
// they can be null-extended) — they land in partition 0.
func (j *joinExec) partition(store *ColStore, fanout, depth int, keepNullKeys bool) ([]*ColStore, error) {
	parts := make([]*ColStore, fanout)
	for i := range parts {
		parts[i] = j.ctx.env.newStore()
	}
	it, err := store.Cursor()
	if err != nil {
		releaseStores(parts)
		return nil, err
	}
	for {
		keyed, ok, err := it.Next()
		if err != nil {
			releaseStores(parts)
			return nil, err
		}
		if !ok {
			break
		}
		valid := true
		for _, v := range keyed[:j.nkeys] {
			if v.IsNull() {
				valid = false
				break
			}
		}
		if !valid {
			if !keepNullKeys || j.joinType != "LEFT" {
				continue
			}
			if err := parts[0].Append(keyed); err != nil {
				releaseStores(parts)
				return nil, err
			}
			continue
		}
		idx := j.partitionIndex(keyed, depth, fanout)
		if err := parts[idx].Append(keyed); err != nil {
			releaseStores(parts)
			return nil, err
		}
	}
	for _, p := range parts {
		if err := p.Freeze(); err != nil {
			releaseStores(parts)
			return nil, err
		}
	}
	return parts, nil
}

func hashPartition(key string, depth, fanout int) int {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(mix64(h.Sum64(), depth) % uint64(fanout))
}

// hashPartitionInt buckets integer-normalized keys without encoding.
func hashPartitionInt(key int64, depth, fanout int) int {
	return int(mix64(uint64(key), depth) % uint64(fanout))
}

// mix64 is a splitmix64 finalizer seeded by depth. FNV-1a's low bits
// correlate for short sequential keys, which makes recursive
// partitioning degenerate (a bucket's keys all land in the same
// sub-bucket); the finalizer decorrelates the levels, and gives raw
// integer keys full avalanche behaviour.
func mix64(x uint64, depth int) uint64 {
	x += uint64(depth) * 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// nestedLoop joins without equi keys: the right side is materialized and
// rescanned per left batch row.
func (j *joinExec) nestedLoop(left, right batchIter) (*ColStore, error) {
	rightStore, err := materialize(j.ctx, right, 0)
	if err != nil {
		return nil, err
	}
	defer rightStore.Release()

	out := j.ctx.env.newStore()
	fail := func(err error) (*ColStore, error) {
		out.Release()
		return nil, err
	}
	leftBuf := make(Row, j.leftWidth)
	for {
		if err := j.ctx.cancelled(); err != nil {
			return fail(err)
		}
		b, err := left.NextBatch()
		if err != nil {
			return fail(err)
		}
		if b == nil {
			break
		}
		for _, pos := range b.selection() {
			b.gather(pos, leftBuf)
			matched := false
			rit, err := rightStore.Cursor()
			if err != nil {
				return fail(err)
			}
			for {
				rightRow, rok, err := rit.Next()
				if err != nil {
					return fail(err)
				}
				if !rok {
					break
				}
				combined := make(Row, 0, len(leftBuf)+len(rightRow))
				combined = append(combined, leftBuf...)
				combined = append(combined, rightRow...)
				pass, err := j.passesResidual(combined)
				if err != nil {
					return fail(err)
				}
				if !pass {
					continue
				}
				matched = true
				if err := out.Append(combined); err != nil {
					return fail(err)
				}
			}
			if !matched && j.joinType == "LEFT" {
				if err := out.Append(nullExtend(leftBuf, j.rightWidth)); err != nil {
					return fail(err)
				}
			}
		}
	}
	if err := out.Freeze(); err != nil {
		return fail(err)
	}
	return out, nil
}
