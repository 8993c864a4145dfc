package sqlengine

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"fmt"
	"io"
	"net/url"
	"strconv"
	"strings"
	"sync"
)

// This file adapts the engine to database/sql under the driver name
// "qymera". DSNs name shared in-process databases:
//
//	db, err := sql.Open("qymera", "mem://sim?budget=2000000")
//
// Every sql.Conn opened from the same DSN shares one engine instance, so
// the pooled connections database/sql hands out all see the same tables.
// Supported DSN parameters: budget (bytes), spilldir (path), nospill
// (1/true disables out-of-core execution), parallelism (morsel-parallel
// worker count; 0 derives it from GOMAXPROCS), layout ("columnar" —
// the default typed column-vector store — or "row" for the legacy
// row-major store kept for differential testing), optimizer ("on"/"off"
// for constant folding, CTE inlining and cost estimates, see
// optimize.go), kernels ("on"/"off" for the compiled
// gate-stage kernel tier, see kernel.go), fusion ("on"/"off" for
// whole-circuit chain fusion on top of the kernel tier, see
// kernel_chain.go), and encodings ("on"/"off" for the sparsity-first
// storage tier: the sparse form of mostly-zero REAL columns, see
// encoding.go).

func init() {
	sql.Register("qymera", &Driver{})
}

// Driver implements driver.Driver for the embedded engine.
type Driver struct {
	mu  sync.Mutex
	dbs map[string]*DB
}

// Open returns a connection to the (possibly shared) database named by
// the DSN.
func (d *Driver) Open(dsn string) (driver.Conn, error) {
	db, err := d.dbForDSN(dsn)
	if err != nil {
		return nil, err
	}
	return &conn{db: db}, nil
}

// DBForDSN exposes the underlying engine instance behind a DSN so that
// callers can read Stats() while using database/sql for queries.
func (d *Driver) DBForDSN(dsn string) (*DB, error) { return d.dbForDSN(dsn) }

func (d *Driver) dbForDSN(dsn string) (*DB, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dbs == nil {
		d.dbs = map[string]*DB{}
	}
	if db, ok := d.dbs[dsn]; ok {
		return db, nil
	}
	cfg, err := parseDSN(dsn)
	if err != nil {
		return nil, err
	}
	db, err := Open(cfg)
	if err != nil {
		return nil, err
	}
	d.dbs[dsn] = db
	return db, nil
}

func parseDSN(dsn string) (Config, error) {
	var cfg Config
	if dsn == "" || dsn == "mem" {
		return cfg, nil
	}
	u, err := url.Parse(dsn)
	if err != nil {
		return cfg, fmt.Errorf("sqlengine: invalid DSN %q: %w", dsn, err)
	}
	q := u.Query()
	if b := q.Get("budget"); b != "" {
		n, err := strconv.ParseInt(b, 10, 64)
		if err != nil {
			return cfg, fmt.Errorf("sqlengine: invalid budget %q", b)
		}
		cfg.MemoryBudget = n
	}
	cfg.SpillDir = q.Get("spilldir")
	if v := q.Get("nospill"); v == "1" || strings.EqualFold(v, "true") {
		cfg.DisableSpill = true
	}
	if p := q.Get("parallelism"); p != "" {
		n, err := strconv.Atoi(p)
		if err != nil {
			return cfg, fmt.Errorf("sqlengine: invalid parallelism %q", p)
		}
		cfg.Parallelism = n
	}
	cfg.Layout = q.Get("layout")
	cfg.Optimizer = q.Get("optimizer")
	cfg.Kernels = q.Get("kernels")
	cfg.Fusion = q.Get("fusion")
	cfg.Encodings = q.Get("encodings")
	return cfg, nil
}

// conn is a database/sql connection. The engine has its own internal
// locking, so conns are thin.
type conn struct {
	db *DB
}

func (c *conn) Prepare(query string) (driver.Stmt, error) {
	_, nparams, err := ParseStatement(query)
	if err != nil {
		return nil, err
	}
	return &stmt{db: c.db, query: query, numInput: nparams}, nil
}

func (c *conn) Close() error { return nil } // engine is shared across conns

// Begin is accepted for compatibility; statements are individually
// atomic and there is no rollback.
func (c *conn) Begin() (driver.Tx, error) { return noopTx{}, nil }

type noopTx struct{}

func (noopTx) Commit() error   { return nil }
func (noopTx) Rollback() error { return nil }

// ExecContext lets the sql package skip Prepare for one-shot statements.
// The context cancels the engine statement at batch boundaries.
func (c *conn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	params, err := namedToValues(args)
	if err != nil {
		return nil, err
	}
	n, err := c.db.ExecContext(ctx, query, params...)
	if err != nil {
		return nil, err
	}
	return result{rowsAffected: n}, nil
}

// QueryContext implements direct querying. The context cancels the
// engine statement at batch boundaries.
func (c *conn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	params, err := namedToValues(args)
	if err != nil {
		return nil, err
	}
	rs, err := c.db.QueryContext(ctx, query, params...)
	if err != nil {
		return nil, err
	}
	return &rows{rs: rs}, nil
}

type stmt struct {
	db       *DB
	query    string
	numInput int
}

func (s *stmt) Close() error  { return nil }
func (s *stmt) NumInput() int { return s.numInput }

func (s *stmt) Exec(args []driver.Value) (driver.Result, error) {
	params, err := driverToValues(args)
	if err != nil {
		return nil, err
	}
	n, err := s.db.Exec(s.query, params...)
	if err != nil {
		return nil, err
	}
	return result{rowsAffected: n}, nil
}

func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	params, err := driverToValues(args)
	if err != nil {
		return nil, err
	}
	rs, err := s.db.Query(s.query, params...)
	if err != nil {
		return nil, err
	}
	return &rows{rs: rs}, nil
}

type result struct{ rowsAffected int64 }

func (r result) LastInsertId() (int64, error) {
	return 0, fmt.Errorf("sqlengine: LastInsertId is not supported")
}
func (r result) RowsAffected() (int64, error) { return r.rowsAffected, nil }

type rows struct {
	rs *ResultSet
}

func (r *rows) Columns() []string { return r.rs.Columns }

func (r *rows) Close() error {
	r.rs.Close()
	return nil
}

func (r *rows) Next(dest []driver.Value) error {
	row, ok, err := r.rs.Next()
	if err != nil {
		return err
	}
	if !ok {
		return io.EOF
	}
	for i, v := range row {
		switch v.T {
		case TypeNull:
			dest[i] = nil
		case TypeInt:
			dest[i] = v.I
		case TypeFloat:
			dest[i] = v.F
		case TypeText:
			dest[i] = v.S
		case TypeBool:
			dest[i] = v.I != 0
		}
	}
	return nil
}

func namedToValues(args []driver.NamedValue) ([]Value, error) {
	out := make([]Value, len(args))
	for _, a := range args {
		if a.Name != "" {
			return nil, fmt.Errorf("sqlengine: named parameters are not supported")
		}
		v, err := goToValue(a.Value)
		if err != nil {
			return nil, err
		}
		out[a.Ordinal-1] = v
	}
	return out, nil
}

func driverToValues(args []driver.Value) ([]Value, error) {
	out := make([]Value, len(args))
	for i, a := range args {
		v, err := goToValue(a)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func goToValue(v any) (Value, error) {
	switch x := v.(type) {
	case nil:
		return Null, nil
	case int64:
		return NewInt(x), nil
	case float64:
		return NewFloat(x), nil
	case bool:
		return NewBool(x), nil
	case string:
		return NewText(x), nil
	case []byte:
		return NewText(string(x)), nil
	}
	return Null, fmt.Errorf("sqlengine: unsupported parameter type %T", v)
}
