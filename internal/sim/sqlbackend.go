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
// of ~1024 rows with selection vectors, streaming hash join/aggregate)
// and morsel-parallel: gate-stage joins and aggregations split the
// nonzero-amplitude table into fixed morsels processed by Parallelism
// worker goroutines. Morsel boundaries and merge order depend only on
// the data, so amplitudes are bit-identical across worker counts.
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
	// Parallelism is the engine's morsel-parallel worker count; zero
	// derives it from GOMAXPROCS, 1 pins execution to a single worker.
	// The simulated amplitudes are bitwise independent of the setting.
	Parallelism int
	// Layout selects the engine's table storage format: "" or
	// "columnar" for the typed column-vector store, "row" for the
	// legacy row-major store. Amplitudes are bitwise independent of the
	// layout (asserted by the differential tests).
	Layout string
	// Optimizer controls the engine's query optimizer: "" or "on"
	// (default) folds constants, inlines single-use CTEs and estimates
	// costs, "off" uses the legacy direct planner. Amplitudes are
	// bitwise independent of the setting: the optimizer inlines only
	// where no float accumulation consumes the CTE (see
	// internal/sqlengine/optimize.go).
	Optimizer string
	// Kernels controls the engine's compiled gate-stage kernel tier: ""
	// or "on" (default) lowers matching gate-stage plans to a fused
	// typed loop, "off" always runs the interpreted batch executor.
	// Amplitudes are bitwise independent of the setting — the kernel
	// replays the interpreted engine's accumulation order exactly (see
	// internal/sqlengine/kernel.go).
	Kernels string
	// ChainFusion controls whole-circuit fusion: "" or "on" (default)
	// collapses every run of two or more consecutive gate-stage CTAS
	// statements into one WITH-chained CTAS
	// (core.Translation.FusedStatements) and enables the engine's
	// multi-stage fused kernel execution, which double-buffers the
	// interior stage amplitudes in memory instead of materializing
	// them; "off" keeps stage-at-a-time statements and execution.
	// Amplitudes are bitwise independent of the setting (see
	// internal/sqlengine/kernel_chain.go). Distinct from Fusion, which
	// is the translation-level gate-matrix fusion of §3.2.
	ChainFusion string
	// Encodings controls the engine's sparsity-first storage tier: ""
	// or "on" (default) stores mostly-zero REAL columns in a sparse
	// form, "off" keeps plain typed vectors. Amplitudes are bitwise
	// independent of the setting — the encoding is exact (see
	// internal/sqlengine/encoding.go).
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
	// Tracing controls the engine's per-operator span instrumentation
	// ("" or "on" enables it for contexts carrying an obs span, "off"
	// disables it; see sqlengine.Config.Tracing). Amplitudes are
	// bitwise independent of the setting.
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
	stmts := tr.Statements()
	if b.ChainFusion != "off" {
		stmts = tr.FusedStatements()
	}
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
			Extra:               fmt.Sprintf("stages=%d fusion=%s chainfusion=%s encoding=%s", tr.StageCount, b.Fusion, chainFusionName(b.ChainFusion), b.Encoding),
		},
	}, nil
}

func chainFusionName(v string) string {
	if v == "off" {
		return "off"
	}
	return "on"
}

// wrapBudget maps the engine's budget error onto the shared sentinel so
// the harness treats all backends uniformly.
func wrapBudget(err error) error {
	if errors.Is(err, sqlengine.ErrBudget) {
		return fmt.Errorf("%w: %w", err, ErrMemoryBudget)
	}
	return err
}
