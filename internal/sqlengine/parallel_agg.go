package sqlengine

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Parallel hash aggregation. Phase 1: workers claim morsels from the
// child pipeline and aggregate each morsel into its own partial hash
// table, partitioned by group-key hash so phase 2 can parallelize.
// Phase 2: workers claim hash partitions and, for each, merge the
// per-morsel partials in morsel-index order through the mergeAcc
// machinery that also backs the streaming spill path; the merged
// partitions are emitted in partition order.
//
// Because partials are kept per morsel (not per worker) and merged in
// a fixed order, the result — including the rounding of floating-point
// SUM/AVG and the output row order — depends only on the data and the
// morsel size, never on the worker count or the morsel→worker
// schedule. That is what makes simulated amplitudes bit-identical
// across Parallelism settings.

// aggPartitions is the number of group-key hash partitions used by the
// parallel aggregation. Fixed (independent of the worker count) so the
// partition assignment of a group is deterministic.
const aggPartitions = 32

// morselPartials is one morsel's partitioned partial aggregation.
type morselPartials struct {
	idx   int
	parts [aggPartitions]*groupTable[*aggGroup]
	rows  bool // morsel contributed at least one input row
}

// morselAggregate runs the two-phase parallel aggregation over the
// child morsel streams, appending result rows to out. It returns
// errParallelFallback (with all reservations released and all streams
// closed) when the budget does not fit the partial tables; the caller
// then re-runs the serial streaming path, which knows how to spill.
func (x *aggExec) morselAggregate(n *aggNode, streams []morselStream, out *ColStore) (bool, error) {
	ctx := x.ctx
	childSchema := n.child.schema()
	budget := ctx.env.budget
	floor := ctx.env.workingFloor

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		all      []*morselPartials
		firstErr error
		abort    atomic.Bool
		reserved atomic.Int64
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		abort.Store(true)
	}
	// A budget overflow aborts with no firstErr; the caller sees
	// errParallelFallback and re-runs the serial spilling path.
	overflow := func() { abort.Store(true) }
	// reserve claims need bytes for the current phase, sharing one
	// working-floor allowance across all workers. The cumulative total a
	// phase reserves is a function of the data alone, so whether the
	// floor check trips — and therefore whether the engine falls back to
	// the serial path — is identical for every worker count, keeping
	// results bitwise independent of Parallelism even at the budget
	// boundary. phaseReserved is the phase's live total.
	reserve := func(phaseReserved *atomic.Int64, need int64) bool {
		if budget.tryReserve(need) {
			phaseReserved.Add(need)
			reserved.Add(need)
			return true
		}
		if phaseReserved.Add(need) > floor {
			phaseReserved.Add(-need)
			overflow()
			return false
		}
		budget.reserveForce(need)
		reserved.Add(need)
		return true
	}
	var phase1Reserved, phase2Reserved atomic.Int64

	// Phase 1: per-morsel partial tables.
	for _, s := range streams {
		wg.Add(1)
		go func(s morselStream) {
			defer wg.Done()
			defer s.Close()
			cctx := &compileCtx{resolver: childSchema, params: ctx.params}
			groupC, err := compileVecAll(n.groupBy, cctx)
			if err != nil {
				fail(err)
				return
			}
			argC := make([]vecExpr, len(n.aggs))
			for i, a := range n.aggs {
				if a.Arg == nil {
					continue
				}
				if argC[i], err = compileVec(a.Arg, cctx); err != nil {
					fail(err)
					return
				}
			}
			groupCols := make([]colVec, len(groupC))
			argCols := make([]colVec, len(argC))
			keyBuf := make(Row, x.nGroup)
			alloc := newAggAlloc(x.aggs) // worker-private slabs
			for !abort.Load() {
				if err := ctx.cancelled(); err != nil {
					fail(err)
					return
				}
				idx, ok, err := s.NextMorsel()
				if err != nil {
					fail(err)
					return
				}
				if !ok {
					return
				}
				mp := &morselPartials{idx: idx}
				for {
					b, err := s.NextBatch()
					if err != nil {
						fail(err)
						return
					}
					if b == nil {
						break
					}
					sel, err := evalGroupArgs(b, groupC, argC, groupCols, argCols)
					if err != nil {
						fail(err)
						return
					}
					mp.rows = mp.rows || len(sel) > 0
					for _, pos := range sel {
						for i := 0; i < x.nGroup; i++ {
							keyBuf[i] = groupCols[i][pos]
						}
						p := x.partitionIndex(keyBuf, 0, aggPartitions)
						t := mp.parts[p]
						if t == nil {
							t = newGroupTable[*aggGroup](x.nGroup, min(x.groupHint, morselRows)/aggPartitions)
							mp.parts[p] = t
						}
						g, found := t.get(keyBuf)
						if !found {
							need := rowBytes(keyBuf) + mapEntryBytes + int64(len(x.aggs))*48
							if !reserve(&phase1Reserved, need) {
								return
							}
							g, err = alloc.group(keyBuf)
							if err != nil {
								fail(err)
								return
							}
							t.put(g.keyVals, g)
						}
						for i := range x.aggs {
							var v Value
							if argC[i] == nil {
								v = NewBool(true) // COUNT(*): presence marker
							} else {
								v = argCols[i][pos]
							}
							if err := g.states[i].add(v, true); err != nil {
								fail(err)
								return
							}
						}
					}
				}
				mu.Lock()
				all = append(all, mp)
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()

	releaseAll := func() { budget.release(reserved.Load()) }
	if firstErr != nil {
		releaseAll()
		return false, firstErr
	}
	if abort.Load() {
		releaseAll()
		return false, errParallelFallback
	}

	// Phase 2: merge partials per partition, morsels in index order.
	sort.Slice(all, func(i, j int) bool { return all[i].idx < all[j].idx })
	rowsSeen := false
	for _, mp := range all {
		rowsSeen = rowsSeen || mp.rows
	}
	var outParts [aggPartitions][]Row
	var pnext atomic.Int64
	for w := 0; w < len(streams); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := make(Row, 0, x.partTotal)
			alloc := newMergeAlloc(x.aggs) // worker-private slabs
			for !abort.Load() {
				if err := ctx.cancelled(); err != nil {
					fail(err)
					return
				}
				p := int(pnext.Add(1)) - 1
				if p >= aggPartitions {
					return
				}
				table := newGroupTable[*mergeGroup](x.nGroup, x.groupHint/aggPartitions)
				for _, mp := range all {
					t := mp.parts[p]
					if t == nil {
						continue
					}
					for _, g := range t.order {
						mg, found := table.get(g.keyVals)
						if !found {
							need := rowBytes(g.keyVals) + mapEntryBytes + int64(len(x.aggs))*48
							if !reserve(&phase2Reserved, need) {
								return
							}
							var aerr error
							if mg, aerr = alloc.group(g.keyVals); aerr != nil {
								fail(aerr)
								return
							}
							table.put(mg.keyVals, mg)
						}
						scratch = scratch[:0]
						for _, st := range g.states {
							scratch = st.(partialDumper).partial(scratch)
						}
						for i := range x.aggs {
							off := x.partOffs[i]
							if err := mg.accs[i].merge(scratch[off : off+partialWidth(x.aggs[i].Name)]); err != nil {
								fail(err)
								return
							}
						}
					}
				}
				rows := make([]Row, 0, len(table.order))
				for _, mg := range table.order {
					row := alloc.row(x.nGroup + len(x.aggs))
					copy(row, mg.keyVals)
					for i, acc := range mg.accs {
						row[x.nGroup+i] = acc.result()
					}
					rows = append(rows, row)
				}
				outParts[p] = rows
			}
		}()
	}
	wg.Wait()

	if firstErr != nil {
		releaseAll()
		return false, firstErr
	}
	if abort.Load() {
		releaseAll()
		return false, errParallelFallback
	}
	defer releaseAll()
	app := newBatchAppender(out, x.nGroup+len(x.aggs))
	for p := range outParts {
		for _, row := range outParts[p] {
			if err := app.appendRow(row); err != nil {
				return rowsSeen, err
			}
		}
	}
	return rowsSeen, app.flush()
}
