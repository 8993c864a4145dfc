package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"qymera"
	"qymera/internal/quantum"
	"qymera/internal/sim"
)

// env is one workload, set up and warm: its job lists with oracle
// states, and the program under test — a backend in this process or a
// running qymerad.
type env struct {
	w       *workload
	lists   [][]job
	backend *sim.SQL
	srv     *server
}

// setUp does everything a pass needs before its first timed job:
// generate the inputs, compute the oracle states, build and start
// qymerad (service workload), and run the untimed warm-up. Its wall
// time is setup_s.
func setUp(ctx context.Context, w *workload, seed int64) (*env, error) {
	lists, err := generate(w, seed)
	if err != nil {
		return nil, err
	}
	e := &env{w: w, lists: lists}
	if w.service {
		bin, err := buildServer(ctx)
		if err != nil {
			return nil, err
		}
		if e.srv, err = startServer(ctx, bin); err != nil {
			return nil, err
		}
	} else {
		e.backend = w.newBackend()
	}
	warm := e.pass(ctx, 0, w.warmJobs(), 0)
	if warm.failed > 0 {
		e.close()
		return nil, fmt.Errorf("%s: %d of %d warm-up jobs failed: %v", w.name, warm.failed, warm.attempted, warm.firstErr)
	}
	return e, nil
}

func (e *env) close() {
	if e.srv != nil {
		e.srv.stop()
	}
}

// runFn submits one circuit and waits for its amplitudes. engine is
// the wall time the program itself reports for the simulation.
type runFn func(ctx context.Context, c *quantum.Circuit) (st *quantum.State, peak int64, engine time.Duration, err error)

// passResult is what one pass over the job lists measured.
type passResult struct {
	latMs      []float64 // call issued → amplitudes in hand, verified jobs only
	overheadMs []float64 // latency − the program's own engine wall time
	attempted  int
	failed     int
	firstErr   error
	busy       time.Duration // pass wall time minus the harness's verification
	peak       int64
	// In-process passes: heap allocation of the whole pass, and the
	// plan cache's counters over it.
	mallocs, allocBytes uint64
	cache               sim.PlanCacheStats
	// Service passes: wire bytes and /metrics deltas.
	reqBytes, respBytes int64
	logRecords          int64
}

// pass runs every client's closed loop over its job list, starting at
// job index from and cycling, until dur has passed (dur > 0) or count
// jobs per client have run (dur == 0). Each job is verified against
// its oracle state right after it returns; the time that takes is kept
// out of latency and out of busy.
func (e *env) pass(ctx context.Context, from, count int, dur time.Duration) passResult {
	clients := len(e.lists)
	runs := make([]runFn, clients)
	var transports []*countingTransport
	var before qymera.RemoteMetrics
	var cacheBefore sim.PlanCacheStats
	if e.srv != nil {
		for c := range runs {
			cl, ct := newClient(e.srv.base)
			transports = append(transports, ct)
			runs[c] = func(ctx context.Context, circ *quantum.Circuit) (*quantum.State, int64, time.Duration, error) {
				res, err := cl.Simulate(ctx, circ, "sql")
				if err != nil {
					return nil, 0, 0, err
				}
				return res.State, res.Stats.PeakBytes, time.Duration(res.Stats.WallSeconds * float64(time.Second)), nil
			}
		}
		before, _ = qymera.NewClient(e.srv.base).Metrics(ctx) // a failed scrape shows as failed jobs below
	} else {
		runs[0] = func(ctx context.Context, circ *quantum.Circuit) (*quantum.State, int64, time.Duration, error) {
			res, err := e.backend.RunContext(ctx, circ)
			if err != nil {
				return nil, 0, 0, err
			}
			return res.State, res.Stats.PeakBytes, res.Stats.WallTime, nil
		}
		if e.backend.Cache != nil {
			cacheBefore = e.backend.Cache.Stats()
		}
	}

	parts := make([]passResult, clients)
	verifyTime := make([]time.Duration, clients)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, list := &parts[c], e.lists[c]
			// Room for any pass at the seed commit's speed, so the
			// timed loop does not stop to grow its own bookkeeping.
			p.latMs, p.overheadMs = make([]float64, 0, 1<<14), make([]float64, 0, 1<<14)
			for i := 0; ctx.Err() == nil; i++ {
				if dur > 0 && time.Since(start) >= dur || dur == 0 && i >= count {
					break
				}
				j := list[(from+i)%len(list)]
				t0 := time.Now()
				st, peak, engine, err := runs[c](ctx, j.circuit)
				lat := time.Since(t0)
				p.attempted++
				ok := err == nil && verify(st, j.oracle)
				verifyTime[c] += time.Since(t0) - lat
				if !ok {
					p.failed++
					if p.firstErr == nil {
						if err == nil {
							err = fmt.Errorf("job %d (%s): amplitudes differ from the state-vector oracle", from+i, j.circuit.Name())
						}
						p.firstErr = err
					}
					continue
				}
				p.latMs = append(p.latMs, float64(lat)/1e6)
				p.overheadMs = append(p.overheadMs, float64(lat-engine)/1e6)
				p.peak = max(p.peak, peak)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)

	var out passResult
	var verifyAll time.Duration
	for c, p := range parts {
		out.latMs = append(out.latMs, p.latMs...)
		out.overheadMs = append(out.overheadMs, p.overheadMs...)
		out.attempted += p.attempted
		out.failed += p.failed
		if out.firstErr == nil {
			out.firstErr = p.firstErr
		}
		out.peak = max(out.peak, p.peak)
		verifyAll += verifyTime[c]
	}
	out.busy = wall - verifyAll/time.Duration(clients)
	if e.srv != nil {
		after, err := qymera.NewClient(e.srv.base).Metrics(ctx)
		if err != nil && out.firstErr == nil {
			out.firstErr = fmt.Errorf("scrape /metrics: %w", err)
		}
		out.cache = cacheDelta(before.PlanCache, after.PlanCache)
		out.logRecords = after.JobLog.AppendedRecords - before.JobLog.AppendedRecords
		for _, ct := range transports {
			out.reqBytes += ct.sent.Load()
			out.respBytes += ct.got.Load()
			ct.next.CloseIdleConnections()
		}
	} else {
		out.mallocs = ms1.Mallocs - ms0.Mallocs
		out.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		if e.backend.Cache != nil {
			out.cache = cacheDelta(cacheBefore, e.backend.Cache.Stats())
		}
	}
	return out
}

func cacheDelta(a, b sim.PlanCacheStats) sim.PlanCacheStats {
	return sim.PlanCacheStats{
		Hits:           b.Hits - a.Hits,
		StructuralHits: b.StructuralHits - a.StructuralHits,
		Misses:         b.Misses - a.Misses,
		Entries:        b.Entries,
	}
}

// verified is the number of jobs that returned the oracle's state.
func (p *passResult) verified() int { return p.attempted - p.failed }
