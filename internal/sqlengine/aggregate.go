package sqlengine

import (
	"encoding/binary"
	"fmt"
	"math"
)

// aggCall describes one aggregate computation extracted from the query.
type aggCall struct {
	Name     string // uppercase aggregate name
	Distinct bool
	Arg      Expr // nil for COUNT(*)
}

// aggNode evaluates GROUP BY aggregation. Its output schema is the group
// expressions (qualified "#grp") followed by aggregate results
// (qualified "#agg"); the planner rewrites the surrounding SELECT to
// reference those synthetic columns. DISTINCT is lowered onto this node
// with all output columns as group keys and no aggregates.
//
// Execution is streaming: input batches are aggregated directly into a
// hash table (group keys and aggregate arguments evaluated vectorized),
// with no materialization of the input. When the hash table outgrows the
// memory budget, accumulated groups are dumped as partial-aggregate
// tuples — every built-in non-DISTINCT aggregate decomposes into 1–2
// mergeable values — and the rest of the input is converted to the same
// partial form; the partial store is then merge-aggregated with
// recursive grace partitioning, so grouping works beyond the budget.
// DISTINCT aggregates are not decomposable and take the legacy path:
// materialize evaluated tuples first, then aggregate recursively.
type aggNode struct {
	child   planNode
	groupBy []Expr
	aggs    []aggCall
	// groupHint is the cost model's estimated group count, used to
	// pre-size the aggregation hash tables (0 = no hint). Pre-sizing
	// never changes results: output order is the first-seen order list,
	// which is independent of map capacity. hintable lets planner.bind
	// re-size it from the refreshed group estimate.
	groupHint int64
	hintable  bool
	est       *nodeEst
	// cols is the output schema, (#grp.g<i>..., #agg.a<i>...), fixed
	// at lowering.
	cols planSchema
}

func (n *aggNode) schema() planSchema { return n.cols }

func (n *aggNode) open(ctx *execCtx) (batchIter, error) {
	childSchema := n.child.schema()
	exec := newAggExec(ctx, len(n.groupBy), n.aggs)
	exec.groupHint = n.groupHint
	out := ctx.env.newStore()
	out.hintRows(n.groupHint)
	fail := func(err error) (batchIter, error) {
		out.Release()
		return nil, err
	}

	groupC, err := ctx.compileVecAll(n.groupBy, childSchema)
	if err != nil {
		return fail(err)
	}
	argC := make([]vecExpr, len(n.aggs))
	for i, a := range n.aggs {
		if a.Arg == nil {
			continue
		}
		if argC[i], err = ctx.compileVec(a.Arg, childSchema); err != nil {
			return fail(err)
		}
	}
	child, err := n.child.open(ctx)
	if err != nil {
		return fail(err)
	}
	var rowsSeen bool
	if exec.streamable() {
		rowsSeen, err = exec.streamAggregate(child, groupC, argC, out)
		child.Close()
		if err != nil {
			return fail(err)
		}
	} else {
		input, merr := n.materializeTuples(ctx, child, groupC, argC)
		child.Close()
		if merr != nil {
			return fail(merr)
		}
		rowsSeen = input.Len() > 0
		err = exec.aggregateStore(input, 0, out)
		input.Release()
		if err != nil {
			return fail(err)
		}
	}

	// Global aggregation over empty input yields one default row.
	if len(n.groupBy) == 0 && out.Len() == 0 && !rowsSeen {
		row := make(Row, len(n.aggs))
		for i, a := range n.aggs {
			st, err := newAggState(a.Name, a.Distinct)
			if err != nil {
				return fail(err)
			}
			row[i] = st.result()
		}
		if err := out.Append(row); err != nil {
			return fail(err)
		}
	}
	if err := out.Freeze(); err != nil {
		return fail(err)
	}
	return newOwnedStoreIter(out)
}

// materializeTuples drains the child, evaluating group keys and
// aggregate arguments vectorized, and stores one tuple per input row
// (the legacy path, required for DISTINCT aggregates).
func (n *aggNode) materializeTuples(ctx *execCtx, child batchIter, groupC []vecExpr, argC []vecExpr) (*ColStore, error) {
	input := ctx.env.newStore()
	nGroup := len(groupC)
	tupleWidth := nGroup + len(argC)
	groupCols := make([]colVec, nGroup)
	argCols := make([]colVec, len(argC))
	for {
		if err := ctx.cancelled(); err != nil {
			input.Release()
			return nil, err
		}
		b, err := child.NextBatch()
		if err != nil {
			input.Release()
			return nil, err
		}
		if b == nil {
			break
		}
		sel, err := evalGroupArgs(b, groupC, argC, groupCols, argCols)
		if err != nil {
			input.Release()
			return nil, err
		}
		for _, pos := range sel {
			tuple := make(Row, tupleWidth)
			for i := 0; i < nGroup; i++ {
				tuple[i] = groupCols[i][pos]
			}
			for i := range argC {
				if argC[i] == nil { // COUNT(*): presence marker
					tuple[nGroup+i] = NewBool(true)
					continue
				}
				tuple[nGroup+i] = argCols[i][pos]
			}
			if err := input.Append(tuple); err != nil {
				input.Release()
				return nil, err
			}
		}
	}
	if err := input.Freeze(); err != nil {
		input.Release()
		return nil, err
	}
	return input, nil
}

// evalGroupArgs evaluates group-key and aggregate-argument expressions
// over one batch, filling the provided column slices.
func evalGroupArgs(b *rowBatch, groupC, argC []vecExpr, groupCols, argCols []colVec) ([]int, error) {
	sel := b.selection()
	for i, g := range groupC {
		col, err := g(b, sel)
		if err != nil {
			return nil, err
		}
		groupCols[i] = col
	}
	for i, a := range argC {
		if a == nil {
			continue
		}
		col, err := a(b, sel)
		if err != nil {
			return nil, err
		}
		argCols[i] = col
	}
	return sel, nil
}

type aggExec struct {
	ctx    *execCtx
	nGroup int
	aggs   []aggCall
	// Partial-tuple layout for the streaming spill path: per-aggregate
	// slot offsets within the partial section of a tuple.
	partOffs  []int
	partTotal int
	// groupHint pre-sizes the hash tables (0 = no hint).
	groupHint int64
}

func newAggExec(ctx *execCtx, nGroup int, aggs []aggCall) *aggExec {
	x := &aggExec{ctx: ctx, nGroup: nGroup, aggs: aggs, partOffs: make([]int, len(aggs))}
	for i, a := range aggs {
		x.partOffs[i] = x.partTotal
		x.partTotal += partialWidth(a.Name)
	}
	return x
}

// streamable reports whether the streaming partial-spill path applies:
// DISTINCT aggregates need the full input and use the legacy path.
func (x *aggExec) streamable() bool {
	for _, a := range x.aggs {
		if a.Distinct {
			return false
		}
	}
	return true
}

// partialWidth is the number of Values an aggregate's mergeable partial
// state occupies in a spilled tuple.
func partialWidth(name string) int {
	if name == "AVG" {
		return 2 // (sum, count)
	}
	return 1
}

type aggGroup struct {
	keyVals Row
	states  []aggState
}

// aggChunkGroups is the slab size of the aggregation allocators: one
// chunk allocation amortizes over this many groups.
const aggChunkGroups = 256

// slabPut appends v to a chunked slab and returns a stable pointer to
// it. A full chunk is replaced, never regrown, so previously returned
// pointers stay valid (the old chunk remains referenced by them).
func slabPut[T any](chunk *[]T, v T) *T {
	if len(*chunk) == cap(*chunk) {
		*chunk = make([]T, 0, aggChunkGroups)
	}
	*chunk = append(*chunk, v)
	return &(*chunk)[len(*chunk)-1]
}

// slabCarve carves an n-element slice from a chunked arena,
// capacity-clipped so appends cannot cross into the next carve.
func slabCarve[T any](chunk *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	if cap(*chunk)-len(*chunk) < n {
		*chunk = make([]T, 0, max(aggChunkGroups*n, n))
	}
	i := len(*chunk)
	*chunk = (*chunk)[:i+n]
	return (*chunk)[i : i+n : i+n]
}

// aggAlloc slab-allocates the aggregation hash table's per-group state
// — group structs, key clones, states slices, and the concrete
// accumulators — cutting the half-dozen allocations per group of the
// naive path to amortized chunk allocations. One amplitude is one group
// in the translated gate query, so this is directly on the per-gate
// hot path. Not safe for concurrent use.
type aggAlloc struct {
	aggs       []aggCall
	groupChunk []aggGroup
	stateChunk []aggState
	valChunk   []Value
	countChunk []countAgg
	sumChunk   []sumAgg
	avgChunk   []avgAgg
	mmChunk    []minMaxAgg
}

func newAggAlloc(aggs []aggCall) *aggAlloc { return &aggAlloc{aggs: aggs} }

// row carves an n-Value slice from the arena.
func (a *aggAlloc) row(n int) Row { return slabCarve(&a.valChunk, n) }

func (a *aggAlloc) cloneKey(key Row) Row {
	out := a.row(len(key))
	copy(out, key)
	return out
}

func (a *aggAlloc) state(call aggCall) (aggState, error) {
	if call.Distinct {
		return newAggState(call.Name, true)
	}
	switch call.Name {
	case "COUNT":
		return slabPut(&a.countChunk, countAgg{}), nil
	case "SUM", "TOTAL":
		return slabPut(&a.sumChunk, sumAgg{total: call.Name == "TOTAL"}), nil
	case "AVG":
		return slabPut(&a.avgChunk, avgAgg{}), nil
	case "MIN", "MAX":
		return slabPut(&a.mmChunk, minMaxAgg{min: call.Name == "MIN"}), nil
	}
	return newAggState(call.Name, false)
}

// group builds a fresh group for key, slab-backed.
func (a *aggAlloc) group(key Row) (*aggGroup, error) {
	g := slabPut(&a.groupChunk, aggGroup{keyVals: a.cloneKey(key)})
	g.states = slabCarve(&a.stateChunk, len(a.aggs))
	for j, call := range a.aggs {
		st, err := a.state(call)
		if err != nil {
			return nil, err
		}
		g.states[j] = st
	}
	return g, nil
}

// groupTable is the aggregation hash table: single-column integer-like
// group keys use an int64-keyed map (no key encoding or string
// allocation per row — see intKey for why the split preserves grouping
// semantics), everything else the encoded string key. order preserves
// first-seen order for deterministic output.
type groupTable[G any] struct {
	useInt bool
	ints   map[int64]G
	strs   map[string]G
	order  []G
}

// newGroupTable allocates the aggregation hash table. hint, when
// positive, pre-sizes the map (and the first-seen order list) so large
// aggregations skip incremental rehash growth.
func newGroupTable[G any](nGroup int, hint int64) *groupTable[G] {
	t := &groupTable[G]{useInt: nGroup == 1}
	if hint > 0 {
		if t.useInt {
			t.ints = make(map[int64]G, hint)
			t.strs = make(map[string]G)
		} else {
			t.ints = make(map[int64]G)
			t.strs = make(map[string]G, hint)
		}
		t.order = make([]G, 0, hint)
		return t
	}
	t.ints = make(map[int64]G)
	t.strs = make(map[string]G)
	return t
}

// get looks up the group for a key (the first nGroup values of key).
func (t *groupTable[G]) get(key Row) (G, bool) {
	if t.useInt {
		if ik, ok := intKey(key[0]); ok {
			g, found := t.ints[ik]
			return g, found
		}
	}
	g, found := t.strs[encodeRowKey(key)]
	return g, found
}

// put files g under key and appends it to the first-seen order.
func (t *groupTable[G]) put(key Row, g G) {
	if t.useInt {
		if ik, ok := intKey(key[0]); ok {
			t.ints[ik] = g
			t.order = append(t.order, g)
			return
		}
	}
	t.strs[encodeRowKey(key)] = g
	t.order = append(t.order, g)
}

// streamAggregate drains child batches into the hash table; on budget
// overflow it switches to the partial-spill path. rowsSeen reports
// whether any input row was consumed.
func (x *aggExec) streamAggregate(child batchIter, groupC, argC []vecExpr, out *ColStore) (bool, error) {
	budget := x.ctx.env.budget
	table := newGroupTable[*aggGroup](x.nGroup, x.groupHint)
	var reserved int64
	releaseAll := func() {
		budget.release(reserved)
		reserved = 0
		table = nil
	}

	groupCols := make([]colVec, len(groupC))
	argCols := make([]colVec, len(argC))
	keyBuf := make(Row, x.nGroup)
	alloc := newAggAlloc(x.aggs)
	rowsSeen := false

	for {
		if err := x.ctx.cancelled(); err != nil {
			releaseAll()
			return rowsSeen, err
		}
		b, err := child.NextBatch()
		if err != nil {
			releaseAll()
			return rowsSeen, err
		}
		if b == nil {
			break
		}
		sel, err := evalGroupArgs(b, groupC, argC, groupCols, argCols)
		if err != nil {
			releaseAll()
			return rowsSeen, err
		}
		rowsSeen = rowsSeen || len(sel) > 0
		for si, pos := range sel {
			for i := 0; i < x.nGroup; i++ {
				keyBuf[i] = groupCols[i][pos]
			}
			var g *aggGroup
			ik, isInt := int64(0), false
			if table.useInt {
				ik, isInt = intKey(keyBuf[0])
			}
			if isInt {
				g = table.ints[ik]
			} else {
				g = table.strs[encodeRowKey(keyBuf)]
			}
			if g == nil {
				need := rowBytes(keyBuf) + mapEntryBytes + int64(len(x.aggs))*48
				if !budget.tryReserve(need) {
					// See joinStores: blocking operators may claim a
					// small working floor before giving up.
					if reserved+need > x.ctx.env.workingFloor {
						// Overflow: dump groups and the rest of the
						// stream as mergeable partial tuples.
						order := table.order
						releaseAll()
						if !x.ctx.env.spillEnabled {
							return rowsSeen, ErrBudget
						}
						return true, x.spillAndMerge(child, groupC, argC, order, sel[si:], groupCols, argCols, out)
					}
					budget.reserveForce(need)
				}
				reserved += need
				var aerr error
				if g, aerr = alloc.group(keyBuf); aerr != nil {
					releaseAll()
					return rowsSeen, aerr
				}
				if isInt {
					table.ints[ik] = g
				} else {
					table.strs[encodeRowKey(keyBuf)] = g
				}
				table.order = append(table.order, g)
			}
			for i := range x.aggs {
				var v Value
				if argC[i] == nil {
					v = NewBool(true) // COUNT(*): presence marker
				} else {
					v = argCols[i][pos]
				}
				if err := g.states[i].add(v, true); err != nil {
					releaseAll()
					return rowsSeen, err
				}
			}
		}
	}

	defer releaseAll()
	app := newBatchAppender(out, x.nGroup+len(x.aggs))
	rowBuf := make(Row, x.nGroup+len(x.aggs))
	for _, g := range table.order {
		copy(rowBuf, g.keyVals)
		for i, st := range g.states {
			rowBuf[x.nGroup+i] = st.result()
		}
		if err := app.appendRow(rowBuf); err != nil {
			return true, err
		}
	}
	return rowsSeen, app.flush()
}

// spillAndMerge handles streaming overflow: accumulated groups are
// dumped as partial tuples (in first-seen order, keeping output
// deterministic), the rest of the input is converted row-by-row to the
// same partial form, and the combined store is merge-aggregated.
func (x *aggExec) spillAndMerge(child batchIter, groupC, argC []vecExpr, dumped []*aggGroup, curSel []int, groupCols, argCols []colVec, out *ColStore) error {
	partials := x.ctx.env.newStore()
	fail := func(err error) error {
		partials.Release()
		return err
	}
	for _, g := range dumped {
		row := make(Row, x.nGroup+x.partTotal)
		copy(row, g.keyVals)
		dst := row[x.nGroup:x.nGroup]
		for _, st := range g.states {
			dst = st.(partialDumper).partial(dst)
		}
		if err := partials.Append(row); err != nil {
			return fail(err)
		}
	}
	appendRaw := func(sel []int, groupCols, argCols []colVec) error {
		for _, pos := range sel {
			row := make(Row, x.nGroup+x.partTotal)
			for i := 0; i < x.nGroup; i++ {
				row[i] = groupCols[i][pos]
			}
			for i, a := range x.aggs {
				var v Value
				if argC[i] != nil {
					v = argCols[i][pos]
				}
				if err := rawPartial(a.Name, argC[i] == nil, v, row[x.nGroup+x.partOffs[i]:]); err != nil {
					return err
				}
			}
			if err := partials.Append(row); err != nil {
				return err
			}
		}
		return nil
	}
	// The unconsumed tail of the current batch, then the rest of the
	// stream.
	if err := appendRaw(curSel, groupCols, argCols); err != nil {
		return fail(err)
	}
	for {
		if err := x.ctx.cancelled(); err != nil {
			return fail(err)
		}
		b, err := child.NextBatch()
		if err != nil {
			return fail(err)
		}
		if b == nil {
			break
		}
		sel, err := evalGroupArgs(b, groupC, argC, groupCols, argCols)
		if err != nil {
			return fail(err)
		}
		if err := appendRaw(sel, groupCols, argCols); err != nil {
			return fail(err)
		}
	}
	if err := partials.Freeze(); err != nil {
		return fail(err)
	}
	defer partials.Release()
	return x.mergeStore(partials, 0, out)
}

// rawPartial writes the single-row partial representation of an
// aggregate input value into dst.
func rawPartial(name string, star bool, v Value, dst Row) error {
	switch name {
	case "COUNT":
		if star || !v.IsNull() {
			dst[0] = NewInt(1)
		} else {
			dst[0] = NewInt(0)
		}
	case "SUM", "TOTAL", "MIN", "MAX":
		dst[0] = v
	case "AVG":
		if v.IsNull() {
			dst[0], dst[1] = NewFloat(0), NewInt(0)
			return nil
		}
		f, err := v.AsFloat()
		if err != nil {
			return err
		}
		dst[0], dst[1] = NewFloat(f), NewInt(1)
	default:
		return fmt.Errorf("sqlengine: aggregate %s cannot be spilled as a partial", name)
	}
	return nil
}

// mergeAcc accumulates mergeable partial states for one aggregate.
// (Merge levels re-read their input store on overflow, so unlike the
// streaming level they never need to dump partials again.)
type mergeAcc interface {
	merge(slots []Value) error
	result() Value
}

// scalarMergeAcc merges single-slot partials through an underlying
// aggState whose add() is associative over partials (SUM/TOTAL merge via
// summation, MIN/MAX via comparison, COUNT via summation of counts).
type scalarMergeAcc struct {
	st aggState
}

func (m *scalarMergeAcc) merge(slots []Value) error { return m.st.add(slots[0], true) }
func (m *scalarMergeAcc) result() Value             { return m.st.result() }

// avgMergeAcc merges (sum, count) pairs.
type avgMergeAcc struct {
	f float64
	n int64
}

func (m *avgMergeAcc) merge(slots []Value) error {
	n, err := slots[1].AsInt()
	if err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	f, err := slots[0].AsFloat()
	if err != nil {
		return err
	}
	m.f += f
	m.n += n
	return nil
}

func (m *avgMergeAcc) result() Value {
	if m.n == 0 {
		return Null
	}
	return NewFloat(m.f / float64(m.n))
}

func newMergeAcc(name string) (mergeAcc, error) {
	switch name {
	case "COUNT", "SUM":
		return &scalarMergeAcc{st: &sumAgg{}}, nil
	case "TOTAL":
		return &scalarMergeAcc{st: &sumAgg{total: true}}, nil
	case "AVG":
		return &avgMergeAcc{}, nil
	case "MIN":
		return &scalarMergeAcc{st: &minMaxAgg{min: true}}, nil
	case "MAX":
		return &scalarMergeAcc{st: &minMaxAgg{}}, nil
	}
	return nil, fmt.Errorf("sqlengine: aggregate %s cannot be merged", name)
}

type mergeGroup struct {
	keyVals Row
	accs    []mergeAcc
}

// mergeAlloc slab-allocates merge-phase state — mergeGroup structs, acc
// slices, and the concrete accumulators — mirroring aggAlloc for the
// spill merge. Not safe for concurrent use.
type mergeAlloc struct {
	aggs        []aggCall
	groupChunk  []mergeGroup
	accChunk    []mergeAcc
	scalarChunk []scalarMergeAcc
	avgChunk    []avgMergeAcc
	sumChunk    []sumAgg
	mmChunk     []minMaxAgg
	valChunk    []Value
}

func newMergeAlloc(aggs []aggCall) *mergeAlloc { return &mergeAlloc{aggs: aggs} }

// row carves an n-Value slice from the arena.
func (a *mergeAlloc) row(n int) Row { return slabCarve(&a.valChunk, n) }

func (a *mergeAlloc) acc(name string) (mergeAcc, error) {
	scalar := func(st aggState) mergeAcc { return slabPut(&a.scalarChunk, scalarMergeAcc{st: st}) }
	switch name {
	case "COUNT", "SUM":
		return scalar(slabPut(&a.sumChunk, sumAgg{})), nil
	case "TOTAL":
		return scalar(slabPut(&a.sumChunk, sumAgg{total: true})), nil
	case "AVG":
		return slabPut(&a.avgChunk, avgMergeAcc{}), nil
	case "MIN", "MAX":
		return scalar(slabPut(&a.mmChunk, minMaxAgg{min: name == "MIN"})), nil
	}
	return newMergeAcc(name)
}

// group builds a fresh merge group. keyVals is referenced, not cloned:
// callers pass keys that outlive the table (phase-1 group keys or
// arena-cloned tuples).
func (a *mergeAlloc) group(keyVals Row) (*mergeGroup, error) {
	g := slabPut(&a.groupChunk, mergeGroup{keyVals: keyVals})
	g.accs = slabCarve(&a.accChunk, len(a.aggs))
	for j, call := range a.aggs {
		acc, err := a.acc(call.Name)
		if err != nil {
			return nil, err
		}
		g.accs[j] = acc
	}
	return g, nil
}

// mergeStore merge-aggregates a store of partial tuples; under memory
// pressure it partitions the store by group-key hash and recurses.
func (x *aggExec) mergeStore(input *ColStore, depth int, out *ColStore) error {
	budget := x.ctx.env.budget
	table := newGroupTable[*mergeGroup](x.nGroup, x.groupHint)
	var reserved int64
	releaseAll := func() {
		budget.release(reserved)
		reserved = 0
		table = nil
	}

	it, err := input.Cursor()
	if err != nil {
		return err
	}
	alloc := newMergeAlloc(x.aggs)
	overflow := false
	var seen int64
	for {
		if seen%batchSize == 0 {
			if err := x.ctx.cancelled(); err != nil {
				releaseAll()
				return err
			}
		}
		seen++
		tuple, ok, err := it.Next()
		if err != nil {
			releaseAll()
			return err
		}
		if !ok {
			break
		}
		var g *mergeGroup
		ik, isInt := int64(0), false
		if table.useInt {
			ik, isInt = intKey(tuple[0])
		}
		if isInt {
			g = table.ints[ik]
		} else {
			g = table.strs[encodeRowKey(tuple[:x.nGroup])]
		}
		if g == nil {
			need := rowBytes(tuple) + mapEntryBytes + int64(len(x.aggs))*48
			if !budget.tryReserve(need) {
				if reserved+need > x.ctx.env.workingFloor {
					overflow = true
					break
				}
				budget.reserveForce(need)
			}
			reserved += need
			key := alloc.row(x.nGroup)
			copy(key, tuple[:x.nGroup])
			if g, err = alloc.group(key); err != nil {
				releaseAll()
				return err
			}
			if isInt {
				table.ints[ik] = g
			} else {
				table.strs[encodeRowKey(tuple[:x.nGroup])] = g
			}
			table.order = append(table.order, g)
		}
		for i := range x.aggs {
			off := x.nGroup + x.partOffs[i]
			if err := g.accs[i].merge(tuple[off : off+partialWidth(x.aggs[i].Name)]); err != nil {
				releaseAll()
				return err
			}
		}
	}

	if overflow {
		releaseAll()
		if !x.ctx.env.spillEnabled {
			return ErrBudget
		}
		if depth >= maxGraceDepth {
			return fmt.Errorf("sqlengine: aggregation exceeded maximum partitioning depth %d", maxGraceDepth)
		}
		return x.partitionStore(input, depth, out, x.mergeStore)
	}
	defer releaseAll()

	app := newBatchAppender(out, x.nGroup+len(x.aggs))
	rowBuf := make(Row, x.nGroup+len(x.aggs))
	for _, g := range table.order {
		copy(rowBuf, g.keyVals)
		for i, acc := range g.accs {
			rowBuf[x.nGroup+i] = acc.result()
		}
		if err := app.appendRow(rowBuf); err != nil {
			return err
		}
	}
	return app.flush()
}

// aggregateStore hash-aggregates one store of raw tuples (the legacy
// DISTINCT-capable path); under memory pressure it splits the store into
// partitions by group-key hash and recurses.
func (x *aggExec) aggregateStore(input *ColStore, depth int, out *ColStore) error {
	budget := x.ctx.env.budget
	table := newGroupTable[*aggGroup](x.nGroup, x.groupHint)
	var reserved int64
	releaseAll := func() {
		budget.release(reserved)
		reserved = 0
		table = nil
	}

	it, err := input.Cursor()
	if err != nil {
		return err
	}
	alloc := newAggAlloc(x.aggs)
	overflow := false
	var seen int64
	for {
		if seen%batchSize == 0 {
			if err := x.ctx.cancelled(); err != nil {
				releaseAll()
				return err
			}
		}
		seen++
		tuple, ok, err := it.Next()
		if err != nil {
			releaseAll()
			return err
		}
		if !ok {
			break
		}
		var g *aggGroup
		ik, isInt := int64(0), false
		if table.useInt {
			ik, isInt = intKey(tuple[0])
		}
		if isInt {
			g = table.ints[ik]
		} else {
			g = table.strs[encodeRowKey(tuple[:x.nGroup])]
		}
		if g == nil {
			need := rowBytes(tuple) + mapEntryBytes + int64(len(x.aggs))*48
			if !budget.tryReserve(need) {
				// See joinStores: allow a working floor so recursive
				// partitioning always shrinks the per-level state.
				if reserved+need > x.ctx.env.workingFloor {
					overflow = true
					break
				}
				budget.reserveForce(need)
			}
			reserved += need
			if g, err = alloc.group(tuple[:x.nGroup]); err != nil {
				releaseAll()
				return err
			}
			if isInt {
				table.ints[ik] = g
			} else {
				table.strs[encodeRowKey(tuple[:x.nGroup])] = g
			}
			table.order = append(table.order, g)
		}
		for i := range x.aggs {
			v := tuple[x.nGroup+i]
			if err := g.states[i].add(v, true); err != nil {
				releaseAll()
				return err
			}
		}
	}

	if overflow {
		releaseAll()
		if !x.ctx.env.spillEnabled {
			return ErrBudget
		}
		if depth >= maxGraceDepth {
			return fmt.Errorf("sqlengine: aggregation exceeded maximum partitioning depth %d", maxGraceDepth)
		}
		return x.partitionStore(input, depth, out, x.aggregateStore)
	}
	defer releaseAll()

	app := newBatchAppender(out, x.nGroup+len(x.aggs))
	rowBuf := make(Row, x.nGroup+len(x.aggs))
	for _, g := range table.order {
		copy(rowBuf, g.keyVals)
		for i, st := range g.states {
			rowBuf[x.nGroup+i] = st.result()
		}
		if err := app.appendRow(rowBuf); err != nil {
			return err
		}
	}
	return app.flush()
}

// partitionIndex buckets a tuple by its group key, using the integer
// mix for normalizable single-column keys (consistent across recursion
// levels because normalization is deterministic).
func (x *aggExec) partitionIndex(tuple Row, depth, fanout int) int {
	if x.nGroup == 1 {
		if ik, ok := intKey(tuple[0]); ok {
			return hashPartitionInt(ik, depth, fanout)
		}
	}
	return hashPartition(encodeRowKey(tuple[:x.nGroup]), depth, fanout)
}

// partitionStore splits a tuple store into fanout hash partitions and
// applies recurse to each non-empty one at depth+1. Each partition
// holds ~1/fanout of the groups, so the pre-sizing hint is scaled down
// accordingly for the recursive levels (memory has already overflowed
// here; full-size budget-unaccounted maps per partition would make the
// pressure worse).
func (x *aggExec) partitionStore(input *ColStore, depth int, out *ColStore, recurse func(*ColStore, int, *ColStore) error) error {
	savedHint := x.groupHint
	x.groupHint = savedHint / defaultFanout
	defer func() { x.groupHint = savedHint }()
	fanout := defaultFanout
	parts := make([]*ColStore, fanout)
	for i := range parts {
		parts[i] = x.ctx.env.newStore()
	}
	it, err := input.Cursor()
	if err != nil {
		releaseStores(parts)
		return err
	}
	var seen int64
	for {
		if seen%batchSize == 0 {
			if err := x.ctx.cancelled(); err != nil {
				releaseStores(parts)
				return err
			}
		}
		seen++
		tuple, ok, err := it.Next()
		if err != nil {
			releaseStores(parts)
			return err
		}
		if !ok {
			break
		}
		idx := x.partitionIndex(tuple, depth, fanout)
		if err := parts[idx].Append(tuple); err != nil {
			releaseStores(parts)
			return err
		}
	}
	for _, p := range parts {
		if err := p.Freeze(); err != nil {
			releaseStores(parts)
			return err
		}
	}
	defer releaseStores(parts)
	for _, p := range parts {
		if p.Len() == 0 {
			continue
		}
		if err := recurse(p, depth+1, out); err != nil {
			return err
		}
	}
	return nil
}

// encodeValueKey produces a canonical byte-string key for grouping and
// DISTINCT. Numerically equal INTEGER/REAL/BOOLEAN values map to the same
// key (SQL equality), while remaining distinct from texts.
func encodeValueKey(v Value) string {
	switch v.T {
	case TypeNull:
		return "\x00"
	case TypeInt, TypeBool:
		var buf [1 + binary.MaxVarintLen64]byte
		buf[0] = 1
		n := binary.PutVarint(buf[1:], v.I)
		return string(buf[:1+n])
	case TypeFloat:
		// Integral floats share keys with equal ints.
		if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1<<62 {
			var buf [1 + binary.MaxVarintLen64]byte
			buf[0] = 1
			n := binary.PutVarint(buf[1:], int64(v.F))
			return string(buf[:1+n])
		}
		var buf [9]byte
		buf[0] = 2
		binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(v.F))
		return string(buf[:])
	case TypeText:
		return "\x03" + v.S
	}
	return "\x7f"
}

// encodeRowKey concatenates value keys with length prefixes so composite
// keys cannot collide.
func encodeRowKey(vals []Value) string {
	total := 0
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = encodeValueKey(v)
		total += len(parts[i]) + binary.MaxVarintLen64
	}
	buf := make([]byte, 0, total)
	var scratch [binary.MaxVarintLen64]byte
	for _, p := range parts {
		n := binary.PutUvarint(scratch[:], uint64(len(p)))
		buf = append(buf, scratch[:n]...)
		buf = append(buf, p...)
	}
	return string(buf)
}
