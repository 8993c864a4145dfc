package sqlengine

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"

	"qymera/internal/obs"
)

// Config controls an engine instance.
type Config struct {
	// MemoryBudget caps the estimated bytes of row data the engine holds
	// in memory at once (tables, hash tables, sort buffers). Zero or
	// negative means unlimited.
	MemoryBudget int64
	// SpillDir is where temporary spill files are created. Empty uses
	// the OS temp directory.
	SpillDir string
	// DisableSpill turns off out-of-core execution; statements that
	// exceed the budget fail with a budget error instead of spilling.
	DisableSpill bool
	// Deprecated: Parallelism named the removed morsel-parallel worker
	// count; every statement runs on the calling goroutine in one
	// accumulation order. It stays only because the benchmark harness
	// copies it field by field, and goes with the harness replay. Open
	// rejects any non-zero value.
	Parallelism int
	// Deprecated: Layout named the removed row-major storage switch;
	// every table is columnar (colstore.go). It stays only because the
	// benchmark harness copies it field by field, and goes with the
	// harness replay. Open rejects any non-empty value.
	Layout string
	// Budget, when non-nil, is a pre-built (possibly shared) memory
	// accountant that overrides MemoryBudget. A simulation service hands
	// every per-request engine instance the same *MemBudget so that
	// concurrent queries compete for one global pool; Close does not
	// reset a shared budget (each store releases its own reservations).
	Budget *MemBudget
	// Deprecated: Optimizer named the removed switch to the unoptimized
	// planner; the optimizer (optimize.go) always runs. It stays only
	// because the benchmark harness copies it field by field, and goes
	// with the harness replay. Open rejects any non-empty value.
	Optimizer string
	// Deprecated: Kernels named the removed switch to the interpreted
	// executor; plans matching the translated gate-stage shape always
	// run as compiled kernels (kernel.go), and the interpreter runs only
	// what they decline. It stays only because the benchmark harness
	// copies it field by field, and goes with the harness replay. Open
	// rejects any non-empty value.
	Kernels string
	// KernelCache, when non-nil, is the compiled-program cache of the
	// kernel tier. Nil uses ProcessKernelCache, which every such engine
	// in the process shares, so each stage shape compiles once per
	// process. Set it only to isolate an engine's programs.
	KernelCache *KernelCache
	// Deprecated: Fusion named the removed switch to stage-at-a-time
	// execution; runs of translated gate-stage CTEs always execute as
	// one fused chain unless the budget refuses it (kernel_chain.go).
	// It stays only because the benchmark harness copies it field by
	// field, and goes with the harness replay. Open rejects any
	// non-empty value.
	Fusion string
	// Deprecated: Encodings named the removed switch to plain-only
	// storage; every column is stored plain (colstore.go). It stays only
	// because the benchmark harness copies it field by field, and goes
	// with the harness replay. Open rejects any non-empty value.
	Encodings string
	// Deprecated: Tracing named the removed switch to ignore obs spans;
	// a statement whose context carries a span is always instrumented,
	// and an untraced context turns instrumentation off
	// (trace_exec.go). It stays only because the benchmark harness
	// copies it field by field, and goes with the harness replay. Open
	// rejects any non-empty value.
	Tracing string
}

// TableMeta describes one base table.
type TableMeta struct {
	Name  string
	Cols  []ColumnDef
	store *ColStore
}

// Stats is a snapshot of engine counters, used by the benchmarking
// harness to report memory and spill behaviour.
type Stats struct {
	LiveBytes    int64 // current estimated bytes under budget
	PeakBytes    int64 // high-water mark of budgeted bytes
	SpilledRows  int64 // rows written to spill files
	SpilledBytes int64 // bytes written to spill files
	SpillFiles   int64 // spill files created
}

// DB is an embedded database instance. It is safe for concurrent use;
// writes take an exclusive lock.
type DB struct {
	mu     sync.RWMutex
	env    *storageEnv
	tables map[string]*TableMeta
	closed bool
}

// Open creates a new empty database.
func Open(cfg Config) (*DB, error) {
	if cfg.SpillDir != "" {
		if err := os.MkdirAll(cfg.SpillDir, 0o755); err != nil {
			return nil, fmt.Errorf("sqlengine: creating spill dir: %w", err)
		}
	}
	budget := cfg.Budget
	if budget == nil {
		budget = NewMemBudget(cfg.MemoryBudget)
	}
	var floor int64
	if budget.limit > 0 {
		floor = budget.limit / 4
		if floor < 8*1024 {
			floor = 8 * 1024
		}
	}
	if cfg.Parallelism != 0 {
		return nil, fmt.Errorf("sqlengine: Config.Parallelism was removed (got %d); leave it zero", cfg.Parallelism)
	}
	for _, removed := range [...]struct{ name, value string }{
		{"Layout", cfg.Layout}, {"Optimizer", cfg.Optimizer}, {"Encodings", cfg.Encodings},
		{"Kernels", cfg.Kernels}, {"Fusion", cfg.Fusion}, {"Tracing", cfg.Tracing},
	} {
		if removed.value != "" {
			return nil, fmt.Errorf("sqlengine: Config.%s was removed (got %q); leave it empty", removed.name, removed.value)
		}
	}
	kernelCache := cfg.KernelCache
	if kernelCache == nil {
		kernelCache = processKernelCache
	}
	env := &storageEnv{
		budget:       budget,
		spillDir:     cfg.SpillDir,
		spillEnabled: !cfg.DisableSpill,
		workingFloor: floor,
		kernels:      true,
		kernelCache:  kernelCache,
		kernelCtrs:   &kernelCounterSet{},
	}
	return &DB{env: env, tables: map[string]*TableMeta{}}, nil
}

// KernelCounters snapshots this engine instance's own kernel-tier
// counters — the same keys as the package-level KernelCounters(), but
// scoped to this DB so concurrent engines (interleaved benchmark
// samples, parallel tests) cannot contaminate the reading.
func (db *DB) KernelCounters() map[string]int64 {
	return db.env.kernelCtrs.snapshot()
}

// StorageCounters returns an empty map.
//
// Deprecated: StorageCounters reported the removed sparse float
// encoding; every REAL column is one plain vector, so there is nothing
// to count. It stays only because the benchmark harness calls it, and
// goes with the harness replay.
func (db *DB) StorageCounters() map[string]int64 { return map[string]int64{} }

// Close releases all tables and spill files.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	for _, t := range db.tables {
		t.store.Release()
	}
	db.tables = nil
	return nil
}

// Stats returns a snapshot of engine counters.
func (db *DB) Stats() Stats {
	return Stats{
		LiveBytes:    db.env.budget.used.Load(),
		PeakBytes:    db.env.budget.peak.Load(),
		SpilledRows:  db.env.spilledRows.Load(),
		SpilledBytes: db.env.spilledBytes.Load(),
		SpillFiles:   db.env.spillFiles.Load(),
	}
}

// ResetPeak zeroes the peak-memory high-water mark (between benchmark
// phases).
func (db *DB) ResetPeak() { db.env.budget.peak.Store(db.env.budget.used.Load()) }

func (db *DB) lookupTable(name string) *TableMeta {
	return db.tables[strings.ToLower(name)]
}

// Tables lists the table names in the catalog.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t.Name)
	}
	return out
}

// ResultSet holds a fully materialized query result. Always Close it:
// large results may be backed by spill files. Row access goes through
// the store's cursor — the thin gather adapter at the engine's
// row-oriented edge.
type ResultSet struct {
	Columns []string
	store   *ColStore
	it      *colCursor
}

// Next returns the next row, or ok=false at the end.
func (rs *ResultSet) Next() (Row, bool, error) {
	if rs.it == nil {
		var err error
		rs.it, err = rs.store.Cursor()
		if err != nil {
			return nil, false, err
		}
	}
	return rs.it.Next()
}

// Len returns the number of rows in the result.
func (rs *ResultSet) Len() int64 { return rs.store.Len() }

// All drains the result into a slice (convenience for tests and small
// results).
func (rs *ResultSet) All() ([]Row, error) {
	var out []Row
	for {
		row, ok, err := rs.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, row)
	}
}

// Close releases the backing store.
func (rs *ResultSet) Close() {
	if rs.store != nil {
		rs.store.Release()
		rs.store = nil
	}
}

// Query parses and executes a SELECT, returning a materialized result.
func (db *DB) Query(sqlText string, params ...Value) (*ResultSet, error) {
	return db.QueryContext(context.Background(), sqlText, params...)
}

// QueryContext is Query with cancellation: when ctx is cancelled the
// statement aborts at the next batch boundary, releases every
// budget reservation and spill file, and returns an error wrapping
// ctx.Err().
func (db *DB) QueryContext(ctx context.Context, sqlText string, params ...Value) (*ResultSet, error) {
	stmt, nparams, err := parseCached(stmtCache, sqlText)
	if err != nil {
		return nil, err
	}
	if nparams > len(params) {
		return nil, fmt.Errorf("sqlengine: statement needs %d parameters, got %d", nparams, len(params))
	}
	if ex, isExplain := stmt.(*ExplainStmt); isExplain {
		return db.runExplainStmt(ctx, ex, params)
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sqlengine: Query requires a SELECT statement")
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, fmt.Errorf("sqlengine: database is closed")
	}
	return db.runSelect(ctx, sel, params)
}

// newExecCtx builds the per-statement execution context. A tracing
// span riding the context (obs.WithSpan) turns on per-operator
// instrumentation for the statement; an untraced context costs one
// nil check here and nothing downstream.
func (db *DB) newExecCtx(ctx context.Context, params []Value) *execCtx {
	ec := &execCtx{env: db.env, params: params, ctx: ctx}
	if sp := obs.SpanFromContext(ctx); sp != nil {
		ec.span = sp
		ec.sampleEvery = sp.SampleEvery()
	}
	return ec
}

func (db *DB) runSelect(stmtCtx context.Context, sel *SelectStmt, params []Value) (*ResultSet, error) {
	return db.runSelectCollect(stmtCtx, sel, params, false)
}

// runSelectCollect is runSelect with optional statistics collection on
// the result store: CTAS materialization passes collect=true so the
// created table starts with exact incremental statistics (see
// stats.go) — no per-stage ANALYZE rescan needed. Only the final
// result store collects; intermediate stores (CTE materialization,
// join internals) do not.
func (db *DB) runSelectCollect(stmtCtx context.Context, sel *SelectStmt, params []Value, collect bool) (*ResultSet, error) {
	ctx := db.newExecCtx(stmtCtx, params)
	// All span calls below are nil no-ops when the statement is
	// untraced (ctx.span == nil). Planning executes nothing, so the
	// "plan" span holds no kernel or CTE work: all of that runs, and
	// traces, under "execute".
	stmt := ctx.span.Child("select")
	defer stmt.End()
	plan := stmt.Child("plan")
	node, names, p, err := db.buildPlan(ctx, sel)
	plan.End()
	if err != nil {
		return nil, err
	}
	defer p.release()
	exec := stmt.Child("execute")
	defer exec.End()
	ctx.span = exec
	if exec != nil {
		node = instrumentPlan(node, ctx.sampleEvery)
		p.sampleEvery = ctx.sampleEvery
	}
	base := ctx.markSpill()
	store, err := p.execute(node, collect)
	if err != nil {
		return nil, err
	}
	ctx.finishStatementSpan(node, store.Len(), base)
	return &ResultSet{Columns: names, store: store}, nil
}

// Exec parses and executes any statement. For DML it returns the number
// of affected rows; for SELECT it returns the row count.
func (db *DB) Exec(sqlText string, params ...Value) (int64, error) {
	return db.ExecContext(context.Background(), sqlText, params...)
}

// ExecContext is Exec with cancellation (see QueryContext).
func (db *DB) ExecContext(ctx context.Context, sqlText string, params ...Value) (int64, error) {
	stmt, nparams, err := parseCached(stmtCache, sqlText)
	if err != nil {
		return 0, err
	}
	if nparams > len(params) {
		return 0, fmt.Errorf("sqlengine: statement needs %d parameters, got %d", nparams, len(params))
	}
	return db.execStmt(ctx, stmt, params)
}

// ExecScript runs a semicolon-separated script, stopping at the first
// error.
func (db *DB) ExecScript(script string) error {
	return db.ExecScriptContext(context.Background(), script)
}

// ExecScriptContext is ExecScript with cancellation: the script stops
// before the next statement (and mid-statement at the next batch
// boundary) once ctx is cancelled.
func (db *DB) ExecScriptContext(ctx context.Context, script string) error {
	stmts, err := ParseScript(script)
	if err != nil {
		return err
	}
	for _, stmt := range stmts {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("sqlengine: script cancelled: %w", err)
		}
		if _, err := db.execStmt(ctx, stmt, nil); err != nil {
			return err
		}
	}
	return nil
}

func (db *DB) execStmt(ctx context.Context, stmt Statement, params []Value) (int64, error) {
	switch s := stmt.(type) {
	case *SelectStmt:
		rs, err := func() (*ResultSet, error) {
			db.mu.RLock()
			defer db.mu.RUnlock()
			if db.closed {
				return nil, fmt.Errorf("sqlengine: database is closed")
			}
			return db.runSelect(ctx, s, params)
		}()
		if err != nil {
			return 0, err
		}
		n := rs.Len()
		rs.Close()
		return n, nil
	case *CreateTableStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		return db.execCreate(ctx, s, params)
	case *DropTableStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		return db.execDrop(s)
	case *InsertStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		return db.execInsert(ctx, s, params)
	case *DeleteStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		return db.execDelete(ctx, s, params)
	case *UpdateStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		return db.execUpdate(ctx, s, params)
	case *AnalyzeStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		return db.execAnalyze(s)
	case *ExplainStmt:
		rs, err := db.runExplainStmt(ctx, s, params)
		if err != nil {
			return 0, err
		}
		n := rs.Len()
		rs.Close()
		return n, nil
	}
	return 0, fmt.Errorf("sqlengine: unsupported statement %T", stmt)
}

func (db *DB) execCreate(ctx context.Context, s *CreateTableStmt, params []Value) (int64, error) {
	if db.closed {
		return 0, fmt.Errorf("sqlengine: database is closed")
	}
	key := strings.ToLower(s.Name)
	if _, exists := db.tables[key]; exists {
		if s.IfNotExists {
			return 0, nil
		}
		return 0, fmt.Errorf("sqlengine: table %s already exists", s.Name)
	}
	if s.AsSelect != nil {
		// The materialization collects statistics incrementally into the
		// result store, so the created table's statistics are exact from
		// the start and the translator's ANALYZE hits the fast no-rescan
		// path (chained stage tables get stats without a round-trip).
		rs, err := db.runSelectCollect(ctx, s.AsSelect, params, true)
		if err != nil {
			return 0, err
		}
		cols := make([]ColumnDef, len(rs.Columns))
		for i, c := range rs.Columns {
			cols[i] = ColumnDef{Name: c, Type: TypeNull} // dynamic typing
		}
		db.tables[key] = &TableMeta{Name: s.Name, Cols: cols, store: rs.store}
		rs.store.Thaw()
		return rs.store.Len(), nil
	}
	seen := map[string]bool{}
	for _, c := range s.Cols {
		lc := strings.ToLower(c.Name)
		if seen[lc] {
			return 0, fmt.Errorf("sqlengine: duplicate column %s", c.Name)
		}
		seen[lc] = true
	}
	store := db.env.newStore()
	// Base tables collect statistics incrementally from the first append
	// (see stats.go); CTAS results arrive with statistics already
	// collected during materialization (above).
	store.stats = &tableStats{}
	db.tables[key] = &TableMeta{Name: s.Name, Cols: s.Cols, store: store}
	return 0, nil
}

func (db *DB) execDrop(s *DropTableStmt) (int64, error) {
	key := strings.ToLower(s.Name)
	t, ok := db.tables[key]
	if !ok {
		if s.IfExists {
			return 0, nil
		}
		return 0, fmt.Errorf("sqlengine: no such table: %s", s.Name)
	}
	t.store.Release()
	delete(db.tables, key)
	return 0, nil
}

// resolveInsertColumns maps the INSERT column list to table slots.
func resolveInsertColumns(meta *TableMeta, cols []string) ([]int, error) {
	if len(cols) == 0 {
		idx := make([]int, len(meta.Cols))
		for i := range idx {
			idx[i] = i
		}
		return idx, nil
	}
	idx := make([]int, len(cols))
	for i, c := range cols {
		found := -1
		for j, mc := range meta.Cols {
			if strings.EqualFold(mc.Name, c) {
				found = j
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("sqlengine: table %s has no column %s", meta.Name, c)
		}
		idx[i] = found
	}
	return idx, nil
}

func (db *DB) execInsert(ctx context.Context, s *InsertStmt, params []Value) (int64, error) {
	meta := db.lookupTable(s.Table)
	if meta == nil {
		return 0, fmt.Errorf("sqlengine: no such table: %s", s.Table)
	}
	slots, err := resolveInsertColumns(meta, s.Cols)
	if err != nil {
		return 0, err
	}

	buildRow := func(vals []Value) (Row, error) {
		if len(vals) != len(slots) {
			return nil, fmt.Errorf("sqlengine: INSERT has %d values for %d columns", len(vals), len(slots))
		}
		row := make(Row, len(meta.Cols))
		for i := range row {
			row[i] = Null
		}
		for i, v := range vals {
			slot := slots[i]
			row[slot] = applyAffinity(v, meta.Cols[slot].Type)
		}
		return row, nil
	}

	var count int64
	if s.Select != nil {
		return db.insertSelect(ctx, meta, s.Select, slots, params)
	}

	cctx := &compileCtx{resolver: planSchema(nil), params: params}
	meta.store.Thaw()
	meta.store.sizeExact(len(s.Rows))
	for _, exprRow := range s.Rows {
		vals := make([]Value, len(exprRow))
		for i, e := range exprRow {
			c, err := compileExpr(e, cctx)
			if err != nil {
				return count, err
			}
			v, err := c(nil)
			if err != nil {
				return count, err
			}
			vals[i] = v
		}
		out, err := buildRow(vals)
		if err != nil {
			return count, err
		}
		if err := meta.store.Append(out); err != nil {
			return count, err
		}
		count++
	}
	return count, nil
}

// insertSelect appends a materialized SELECT result batch-at-a-time:
// source columns are permuted into table slots (with column affinity
// applied vectorized) and handed to the store as whole column vectors —
// no per-row materialization.
func (db *DB) insertSelect(ctx context.Context, meta *TableMeta, sel *SelectStmt, slots []int, params []Value) (int64, error) {
	rs, err := db.runSelect(ctx, sel, params)
	if err != nil {
		return 0, err
	}
	defer rs.Close()
	if len(rs.Columns) != len(slots) {
		return 0, fmt.Errorf("sqlengine: INSERT has %d values for %d columns", len(rs.Columns), len(slots))
	}
	scan, err := rs.store.batchScan()
	if err != nil {
		return 0, err
	}
	meta.store.Thaw()
	out := &rowBatch{cols: make([]colVec, len(meta.Cols))}
	affBuf := make([]colVec, len(slots))
	var nullCol colVec
	var count int64
	for {
		if err := ctx.Err(); err != nil {
			return count, fmt.Errorf("sqlengine: statement cancelled: %w", err)
		}
		b, err := scan.NextBatch()
		if err != nil {
			return count, err
		}
		if b == nil {
			return count, nil
		}
		n := b.n // store scans are dense (no selection vector)
		nullCol = growCol(nullCol, n)
		for k := range nullCol[:n] {
			nullCol[k] = Null
		}
		for j := range out.cols {
			out.cols[j] = nullCol[:n]
		}
		for i, slot := range slots {
			src := b.cols[i][:n]
			if t := meta.Cols[slot].Type; t != TypeNull {
				buf := growCol(affBuf[i], n)
				for k, v := range src {
					buf[k] = applyAffinity(v, t)
				}
				affBuf[i], src = buf, buf
			}
			out.cols[slot] = src
		}
		out.n, out.sel = n, nil
		if err := meta.store.AppendBatch(out); err != nil {
			return count, err
		}
		count += int64(n)
	}
}

// rewriteTable filters/transforms every row of a table into a fresh
// store, swapping on success. Used by DELETE and UPDATE. Cancellation
// is checked once per batchSize rows.
func (db *DB) rewriteTable(ctx context.Context, meta *TableMeta, transform func(Row) (Row, bool, error)) (int64, error) {
	newStore := db.env.newStore()
	// The rewrite re-feeds every surviving row through a fresh
	// collector, so statistics stay exact across DELETE/UPDATE.
	newStore.stats = &tableStats{}
	it, err := meta.store.Cursor()
	if err != nil {
		newStore.Release()
		return 0, err
	}
	var changed, seen int64
	for {
		if seen%batchSize == 0 {
			if err := ctx.Err(); err != nil {
				newStore.Release()
				return 0, fmt.Errorf("sqlengine: statement cancelled: %w", err)
			}
		}
		seen++
		row, ok, err := it.Next()
		if err != nil {
			newStore.Release()
			return 0, err
		}
		if !ok {
			break
		}
		out, didChange, err := transform(row)
		if err != nil {
			newStore.Release()
			return 0, err
		}
		if didChange {
			changed++
		}
		if out != nil {
			if err := newStore.Append(out); err != nil {
				newStore.Release()
				return 0, err
			}
		}
	}
	meta.store.Release()
	meta.store = newStore
	return changed, nil
}

func (db *DB) execDelete(ctx context.Context, s *DeleteStmt, params []Value) (int64, error) {
	meta := db.lookupTable(s.Table)
	if meta == nil {
		return 0, fmt.Errorf("sqlengine: no such table: %s", s.Table)
	}
	schema := make(planSchema, len(meta.Cols))
	for i, c := range meta.Cols {
		schema[i] = planCol{table: strings.ToLower(meta.Name), name: strings.ToLower(c.Name)}
	}
	var pred compiledExpr
	if s.Where != nil {
		var err error
		pred, err = compileExpr(s.Where, &compileCtx{resolver: schema, params: params})
		if err != nil {
			return 0, err
		}
	}
	return db.rewriteTable(ctx, meta, func(row Row) (Row, bool, error) {
		if pred == nil {
			return nil, true, nil // delete all
		}
		v, err := pred(row)
		if err != nil {
			return nil, false, err
		}
		if b, known := v.Bool(); known && b {
			return nil, true, nil
		}
		return row, false, nil
	})
}

func (db *DB) execUpdate(ctx context.Context, s *UpdateStmt, params []Value) (int64, error) {
	meta := db.lookupTable(s.Table)
	if meta == nil {
		return 0, fmt.Errorf("sqlengine: no such table: %s", s.Table)
	}
	schema := make(planSchema, len(meta.Cols))
	for i, c := range meta.Cols {
		schema[i] = planCol{table: strings.ToLower(meta.Name), name: strings.ToLower(c.Name)}
	}
	cctx := &compileCtx{resolver: schema, params: params}
	slots := make([]int, len(s.Cols))
	exprs := make([]compiledExpr, len(s.Cols))
	for i, c := range s.Cols {
		idx, err := schema.resolveColumn("", c)
		if err != nil {
			return 0, err
		}
		slots[i] = idx
		ce, err := compileExpr(s.Exprs[i], cctx)
		if err != nil {
			return 0, err
		}
		exprs[i] = ce
	}
	var pred compiledExpr
	if s.Where != nil {
		var err error
		pred, err = compileExpr(s.Where, cctx)
		if err != nil {
			return 0, err
		}
	}
	return db.rewriteTable(ctx, meta, func(row Row) (Row, bool, error) {
		if pred != nil {
			v, err := pred(row)
			if err != nil {
				return nil, false, err
			}
			if b, known := v.Bool(); !known || !b {
				return row, false, nil
			}
		}
		out := cloneRow(row)
		for i, slot := range slots {
			v, err := exprs[i](row)
			if err != nil {
				return nil, false, err
			}
			out[slot] = applyAffinity(v, meta.Cols[slot].Type)
		}
		return out, true, nil
	})
}
