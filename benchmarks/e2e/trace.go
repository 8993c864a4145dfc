package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"qymera/internal/circuitio"
	"qymera/internal/core"
	"qymera/internal/quantum"
	"qymera/internal/sim"
	"qymera/internal/sqlengine"
)

// pruneEps is sim.SQL's default amplitude-pruning threshold, which the
// package does not export. If the two drift apart the replay's state
// digest stops matching sim.SQL.Run and the traced pass fails.
const pruneEps = 1e-12

// jobCounts are the exact per-job counts read at the layer boundaries.
type jobCounts struct {
	sqlBytes, statements int
	kernel, storage      map[string]int64
	stats                sqlengine.Stats
}

// engineConfig is the sqlengine.Config sim.SQL.RunContext builds.
func engineConfig(b *sim.SQL) sqlengine.Config {
	cfg := sqlengine.Config{
		MemoryBudget: b.MemoryBudget,
		SpillDir:     b.SpillDir,
		DisableSpill: b.DisableSpill,
		Parallelism:  b.Parallelism,
		Layout:       b.Layout,
		Budget:       b.Budget,
		Optimizer:    b.Optimizer,
		Kernels:      b.Kernels,
		Fusion:       b.ChainFusion,
		Encodings:    b.Encodings,
		Tracing:      b.Tracing,
	}
	if b.Cache != nil {
		cfg.KernelCache = b.Cache.Kernels()
	}
	return cfg
}

func translate(b *sim.SQL, c *quantum.Circuit) (*core.Translation, string, error) {
	opts := core.Options{Mode: b.Mode, Fusion: b.Fusion, Encoding: b.Encoding, PruneEps: pruneEps}
	if b.Cache != nil {
		return b.Cache.TranslationTier(c, b.Initial, opts)
	}
	tr, err := core.Translate(c, b.Initial, opts)
	return tr, sim.PlanTierMiss, err
}

func statements(b *sim.SQL, tr *core.Translation) []string {
	if b.ChainFusion == "off" {
		return tr.Statements()
	}
	return tr.FusedStatements()
}

// translateSpan names the translate step by what the plan cache did.
var translateSpan = map[string]string{
	sim.PlanTierMiss:             "core.translate",
	sim.PlanTierStructuralRebind: "core.rebind",
	sim.PlanTierExactHit:         "plancache.lookup",
}

// replay is the body of sim.SQL.RunContext written out as calls into
// each layer's public functions, with a harness span around each. It
// must return the state sim.SQL.Run returns, bit for bit.
func (t *tracer) replay(ctx context.Context, b *sim.SQL, c *quantum.Circuit, jobID int) (*quantum.State, *core.Translation, jobCounts, error) {
	var counts jobCounts
	root := t.begin("job", -1, jobID)
	defer t.end(root)

	sp := t.begin("core.translate", root, jobID)
	tr, tier, err := translate(b, c)
	t.end(sp)
	if err != nil {
		return nil, nil, counts, err
	}
	t.spans[sp].Name = translateSpan[tier]
	stmts := statements(b, tr)
	counts.statements = len(stmts) + 1
	counts.sqlBytes = len(tr.Query)
	for _, s := range stmts {
		counts.sqlBytes += len(s)
	}

	sp = t.begin("sqlengine.open", root, jobID)
	db, err := sqlengine.Open(engineConfig(b))
	t.end(sp)
	if err != nil {
		return nil, nil, counts, err
	}
	defer db.Close() // for the error paths; closing twice is harmless

	sp = t.begin("sqlengine.setup_exec", root, jobID)
	for _, stmt := range stmts {
		if _, err := db.ExecContext(ctx, stmt); err != nil {
			return nil, nil, counts, fmt.Errorf("replay: %w", err)
		}
	}
	t.end(sp)

	sp = t.begin("sqlengine.query", root, jobID)
	rs, err := db.QueryContext(ctx, tr.Query)
	t.end(sp)
	if err != nil {
		return nil, nil, counts, fmt.Errorf("replay: %w", err)
	}
	defer rs.Close()

	sp = t.begin("sqlengine.emit", root, jobID)
	state := quantum.NewState(c.NumQubits())
	for {
		row, ok, err := rs.Next()
		if err != nil {
			return nil, nil, counts, err
		}
		if !ok {
			break
		}
		s, errS := row[0].AsInt()
		r, errR := row[1].AsFloat()
		im, errI := row[2].AsFloat()
		if errS != nil || errR != nil || errI != nil {
			return nil, nil, counts, fmt.Errorf("replay: bad amplitude row %v", row)
		}
		state.Set(uint64(s), complex(r, im))
	}
	t.end(sp)

	sp = t.begin("sqlengine.close", root, jobID)
	counts.kernel, counts.storage, counts.stats = db.KernelCounters(), db.StorageCounters(), db.Stats()
	rs.Close()
	db.Close()
	t.end(sp)
	return state, tr, counts, nil
}

// probe times the engine's front end alone on one job's SQL, on a
// second engine instance so the replayed job's counters and caches see
// nothing of it: ParseScript over the whole program, ParseStatement
// over the query, and DB.Explain (parse + plan, no execution) of the
// query against the job's gate tables. The spans are roots of their
// own; they are not part of the job's time.
func (t *tracer) probe(ctx context.Context, b *sim.SQL, tr *core.Translation, jobID int) error {
	db, err := sqlengine.Open(engineConfig(b))
	if err != nil {
		return err
	}
	defer db.Close()
	for _, stmt := range statements(b, tr) {
		if _, err := db.ExecContext(ctx, stmt); err != nil {
			return fmt.Errorf("probe: %w", err)
		}
	}
	sp := t.begin("probe.parse_script", -1, jobID)
	_, err = sqlengine.ParseScript(tr.Script())
	t.end(sp)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	sp = t.begin("probe.parse_query", -1, jobID)
	_, _, err = sqlengine.ParseStatement(tr.Query)
	t.end(sp)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	sp = t.begin("probe.explain", -1, jobID)
	_, err = db.Explain(tr.Query)
	t.end(sp)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	return nil
}

// codec times circuitio on one circuit: WriteJSON, then ReadJSON on
// the same bytes.
func (t *tracer) codec(c *quantum.Circuit, jobID int) error {
	var buf bytes.Buffer
	sp := t.begin("circuitio.encode", -1, jobID)
	err := circuitio.WriteJSON(&buf, c)
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin("circuitio.decode", -1, jobID)
	_, err = circuitio.ReadJSON(&buf)
	t.end(sp)
	return err
}

// stateDigest fingerprints a state exactly: basis indices in order with
// the raw IEEE-754 bits of each amplitude.
func stateDigest(st *quantum.State) uint64 {
	h := fnv.New64a()
	var buf [24]byte
	for _, s := range st.Indices() {
		a := st.Amplitude(s)
		for i, v := range [3]uint64{s, math.Float64bits(real(a)), math.Float64bits(imag(a))} {
			for k := 0; k < 8; k++ {
				buf[8*i+k] = byte(v >> (8 * k))
			}
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// minRuns is the least number of jobs the traced replay gets, and the
// least number of runs each yardstick backend gets, however long a job
// takes.
const minRuns = 50

// tracedResult is what the traced pass measured, beyond its spans.
type tracedResult struct {
	attempted, failed int
	firstErr          error
	replayMs, refMs   []float64 // per job: replayed body, and sim.SQL.Run on the same job
	counts            []jobCounts
	// Yardsticks: the same circuits on the SQL, state-vector and sparse
	// backends, interleaved.
	sqlMs, statevecMs, sparseMs []float64
}

func (r *tracedResult) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// tracedPass replays jobs from index from on, for at least dur and at
// least minRuns jobs. Each job also runs on an untraced sim.SQL with a
// plan cache of its own; the two state digests must agree, and the
// pair of times gives the tracing overhead. The two run in alternating
// order: where the garbage collector's cycle falls within an iteration
// would otherwise favour one of them.
func tracedPass(ctx context.Context, t *tracer, w *workload, list []job, from int, dur time.Duration) tracedResult {
	var out tracedResult
	replayOn, ref := w.newBackend(), w.newBackend()
	// Warm both backends' caches the way set-up warms the timed pass,
	// then drop the warm-up's spans.
	for i := 0; i < w.warmJobs(); i++ {
		c := list[i%len(list)].circuit
		_, _, _, err := t.replay(ctx, replayOn, c, -1)
		if err == nil {
			_, err = ref.RunContext(ctx, c)
		}
		if err != nil {
			out.fail(err)
			return out
		}
	}
	t.spans = t.spans[:0]

	start := time.Now()
	for i := 0; ctx.Err() == nil && (time.Since(start) < dur || i < minRuns); i++ {
		j := list[(from+i)%len(list)]
		out.attempted++
		var (
			st              *quantum.State
			tr              *core.Translation
			counts          jobCounts
			res             *sim.Result
			replay, refTime time.Duration
			err, refErr     error
		)
		runReplay := func() {
			t0 := time.Now()
			st, tr, counts, err = t.replay(ctx, replayOn, j.circuit, i)
			replay = time.Since(t0)
		}
		runRef := func() {
			t0 := time.Now()
			res, refErr = ref.RunContext(ctx, j.circuit)
			refTime = time.Since(t0)
		}
		if i%2 == 0 {
			runReplay()
			runRef()
		} else {
			runRef()
			runReplay()
		}
		if err == nil {
			err = refErr
		}
		switch {
		case err != nil:
		case stateDigest(st) != stateDigest(res.State):
			err = fmt.Errorf("job %d (%s): replayed state digest differs from sim.SQL.Run's", from+i, j.circuit.Name())
		case !verify(st, j.oracle):
			err = fmt.Errorf("job %d (%s): amplitudes differ from the state-vector oracle", from+i, j.circuit.Name())
		}
		if err == nil {
			err = t.probe(ctx, replayOn, tr, i)
		}
		if err == nil {
			err = t.codec(j.circuit, i)
		}
		if err != nil {
			out.fail(err)
			continue
		}
		out.replayMs = append(out.replayMs, float64(replay)/1e6)
		out.refMs = append(out.refMs, float64(refTime)/1e6)
		out.counts = append(out.counts, counts)
	}
	return out
}

// yardsticks runs the same circuits on the SQL backend and on the
// native state-vector and sparse simulators, interleaved so all three
// see the same machine, for at least dur and at least minRuns rounds.
// This is the paper's comparison; it is reported, never gated.
func yardsticks(ctx context.Context, w *workload, list []job, from int, dur time.Duration, out *tracedResult) {
	sql := w.newBackend()
	for i := 0; i < w.warmJobs(); i++ {
		if _, err := sql.RunContext(ctx, list[i%len(list)].circuit); err != nil {
			out.fail(err)
			return
		}
	}
	backends := []struct {
		b  sim.Backend
		ms *[]float64
	}{{sql, &out.sqlMs}, {&sim.StateVector{}, &out.statevecMs}, {&sim.Sparse{}, &out.sparseMs}}
	start := time.Now()
	for i := 0; ctx.Err() == nil && (time.Since(start) < dur || i < minRuns); i++ {
		j := list[(from+i)%len(list)]
		for _, y := range backends {
			out.attempted++
			t0 := time.Now()
			res, err := y.b.RunContext(ctx, j.circuit)
			d := time.Since(t0)
			if err == nil && !verify(res.State, j.oracle) {
				err = fmt.Errorf("amplitudes differ from the state-vector oracle")
			}
			if err != nil {
				out.fail(fmt.Errorf("job %d (%s) on %s: %w", from+i, j.circuit.Name(), y.b.Name(), err))
				continue
			}
			*y.ms = append(*y.ms, float64(d)/1e6)
		}
	}
}
