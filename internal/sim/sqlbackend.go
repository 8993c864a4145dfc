package sim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"qymera/internal/core"
	"qymera/internal/obs"
	"qymera/internal/quantum"
	"qymera/internal/sqlengine"
)

// SQL is the RDBMS backend — the paper's contribution. It translates the
// circuit to SQL (internal/core) and executes it on the embedded
// relational engine (internal/sqlengine): every gate is a join +
// group-by over the nonzero-amplitude table, the engine's optimizer and
// operators do the rest, and the buffer manager spills to disk for
// out-of-core simulation (§3.3). The engine executes vectorized (batches
// of ~1024 rows with selection vectors, streaming hash join/aggregate,
// compiled gate-stage kernels) on the calling goroutine, adding each
// stage's rows in one order, so amplitudes are bit-identical on every
// machine. Concurrent simulations run on separate goroutines, one
// engine each.
type SQL struct {
	// Mode selects one WITH-chained query or per-gate materialized
	// tables (inspectable intermediate states).
	Mode core.Mode
	// Fusion is the gate-fusion query optimization level (§3.2).
	Fusion core.FusionLevel
	// Encoding picks bitwise (paper) or arithmetic (ablation) index
	// math.
	Encoding core.Encoding
	// PruneEps adds HAVING-based amplitude pruning; zero uses the
	// shared default, negative disables pruning entirely.
	PruneEps float64
	// MemoryBudget caps the engine's in-memory bytes. With spilling on
	// (default) the run proceeds out-of-core; with DisableSpill it
	// fails with ErrMemoryBudget like the in-memory backends.
	MemoryBudget int64
	SpillDir     string
	DisableSpill bool
	// Deprecated: Parallelism named the removed morsel-parallel worker
	// count. It stays only because the benchmark harness copies it,
	// goes with the harness replay, and any non-zero value fails the
	// run (sqlengine.Open rejects it).
	Parallelism int
	// Deprecated: Layout named the removed row-major storage switch.
	// It stays only because the benchmark harness copies it, goes with
	// the harness replay, and any non-empty value fails the run
	// (sqlengine.Open rejects it).
	Layout string
	// Deprecated: Optimizer named the removed switch to the unoptimized
	// planner. It stays only because the benchmark harness copies it,
	// goes with the harness replay, and any non-empty value fails the
	// run (sqlengine.Open rejects it).
	Optimizer string
	// Deprecated: Kernels named the removed switch to the interpreted
	// executor. It stays only because the benchmark harness copies it,
	// goes with the harness replay, and any non-empty value fails the
	// run (sqlengine.Open rejects it).
	Kernels string
	// Deprecated: ChainFusion named the removed switch to
	// stage-at-a-time statements; runs of consecutive gate stages always
	// execute as one fused CTAS (core.Translation.FusedStatements). It
	// stays only because the benchmark harness copies it, goes with the
	// harness replay, and any non-empty value fails the run
	// (sqlengine.Open rejects it).
	ChainFusion string
	// Deprecated: Encodings named the removed switch to plain-only
	// storage. It stays only because the benchmark harness copies it,
	// goes with the harness replay, and any non-empty value fails the
	// run (sqlengine.Open rejects it).
	Encodings string
	// Budget, when non-nil, is a pre-built engine memory accountant
	// that overrides MemoryBudget. Sharing one budget across backends
	// makes concurrent simulations compete for a single global pool —
	// the simulation service's admission-control mechanism. With a
	// shared budget, Stats.PeakBytes reports the POOL's high-water
	// mark (across all jobs that ever used it), not this run's own
	// peak — per-run attribution is not possible when reservations
	// interleave.
	Budget *sqlengine.MemBudget
	// Cache, when non-nil, caches circuit→SQL translations across Run
	// calls: exact repeats reuse the whole plan, parameter-sweep
	// variants reuse the SQL text and rebind only the numeric gate
	// data. Safe for concurrent use and shareable across backends. The
	// engine below caches parsed statements and compiled kernels per
	// process, with or without a Cache.
	Cache *PlanCache
	// Deprecated: Tracing named the removed switch to ignore obs spans;
	// a context carrying a span is always traced. It stays only because
	// the benchmark harness copies it, goes with the harness replay, and
	// any non-empty value fails the run (sqlengine.Open rejects it).
	Tracing string
	// Initial overrides the |0...0⟩ initial state.
	Initial *quantum.State
}

// Name implements Backend.
func (b *SQL) Name() string {
	if b.Mode == core.MaterializedChain {
		return "sql-chain"
	}
	return "sql"
}

// Run implements Backend.
func (b *SQL) Run(c *quantum.Circuit) (*Result, error) {
	return b.RunContext(context.Background(), c)
}

// translate produces the circuit's SQL program, consulting the plan
// cache when one is configured. The tier reports how the program was
// produced ("translated" without a cache, else the cache tier).
func (b *SQL) translate(c *quantum.Circuit, opts core.Options) (*core.Translation, string, error) {
	if b.Cache != nil {
		return b.Cache.TranslationTier(c, b.Initial, opts)
	}
	tr, err := core.Translate(c, b.Initial, opts)
	return tr, "translated", err
}

// RunContext implements Backend. Cancellation reaches into the engine:
// an in-flight gate-stage query aborts at the next batch/morsel
// boundary, releasing all budget reservations and worker goroutines.
func (b *SQL) RunContext(ctx context.Context, c *quantum.Circuit) (*Result, error) {
	start := time.Now()
	eps := b.PruneEps
	if eps == 0 {
		eps = pruneEpsDefault
	}
	if eps < 0 {
		eps = 0
	}
	// sp is nil for untraced runs; every span call below no-ops then.
	sp := obs.SpanFromContext(ctx)
	tsp := sp.Child("translate")
	tr, tier, err := b.translate(c, core.Options{
		Mode:     b.Mode,
		Fusion:   b.Fusion,
		Encoding: b.Encoding,
		PruneEps: eps,
	})
	if err != nil {
		return nil, err
	}
	tsp.Add("plan_"+tier, 1)
	tsp.Add("stages", int64(tr.StageCount))
	tsp.End()

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
	db, err := sqlengine.Open(cfg)
	if err != nil {
		return nil, err
	}
	defer db.Close()

	var maxRows int64
	stmts := tr.FusedStatements()
	ssp := sp.Child("stages")
	ssp.Add("statements", int64(len(stmts)))
	stageCtx := obs.WithSpan(ctx, ssp)
	for _, stmt := range stmts {
		n, err := db.ExecContext(stageCtx, stmt)
		if err != nil {
			return nil, wrapBudget(fmt.Errorf("sql backend: %w", err))
		}
		if n > maxRows {
			maxRows = n
		}
	}
	ssp.End()
	qsp := sp.Child("query")
	rs, err := db.QueryContext(obs.WithSpan(ctx, qsp), tr.Query)
	qsp.End()
	if err != nil {
		return nil, wrapBudget(fmt.Errorf("sql backend: %w", err))
	}
	defer rs.Close()

	esp := sp.Child("emit")
	state := quantum.NewState(c.NumQubits())
	for {
		row, ok, err := rs.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		s, err := row[0].AsInt()
		if err != nil {
			return nil, fmt.Errorf("sql backend: bad state index %v: %w", row[0], err)
		}
		r, err := row[1].AsFloat()
		if err != nil {
			return nil, fmt.Errorf("sql backend: bad real part %v: %w", row[1], err)
		}
		im, err := row[2].AsFloat()
		if err != nil {
			return nil, fmt.Errorf("sql backend: bad imaginary part %v: %w", row[2], err)
		}
		state.Set(uint64(s), complex(r, im))
	}
	esp.Add("amplitudes", int64(state.Len()))
	esp.End()
	if rows := rs.Len(); rows > maxRows {
		maxRows = rows
	}

	st := db.Stats()
	return &Result{
		State: state,
		Stats: Stats{
			Backend:             b.Name(),
			WallTime:            time.Since(start),
			GateCount:           c.Len(),
			PeakBytes:           st.PeakBytes,
			FinalNonzeros:       state.Len(),
			MaxIntermediateSize: maxRows,
			SpilledRows:         st.SpilledRows,
			Extra:               fmt.Sprintf("stages=%d fusion=%s encoding=%s", tr.StageCount, b.Fusion, b.Encoding),
		},
	}, nil
}

// wrapBudget maps the engine's budget error onto the shared sentinel so
// the harness treats all backends uniformly.
func wrapBudget(err error) error {
	if errors.Is(err, sqlengine.ErrBudget) {
		return fmt.Errorf("%w: %w", err, ErrMemoryBudget)
	}
	return err
}
