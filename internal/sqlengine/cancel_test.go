package sqlengine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"qymera/internal/circuits"
)

// cancelTestDB builds a nonzero-amplitude table of the given size plus a
// Hadamard-style gate table — the shape of one translated gate stage.
func cancelTestDB(t *testing.T, rows int, budget *MemBudget) *DB {
	t.Helper()
	db, err := Open(Config{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE t (s INTEGER, r REAL, i REAL)"); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for k := 0; k < rows; k++ {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "(%d, %g, 0.0)", k, 1.0/float64(rows))
		if b.Len() > 1<<15 || k == rows-1 {
			if _, err := db.Exec("INSERT INTO t VALUES " + b.String()); err != nil {
				t.Fatal(err)
			}
			b.Reset()
		}
	}
	if _, err := db.Exec("CREATE TABLE h (in_s INTEGER, out_s INTEGER, r REAL, i REAL)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO h VALUES (0,0,0.70710678,0),(0,1,0.70710678,0),(1,0,0.70710678,0),(1,1,-0.70710678,0)"); err != nil {
		t.Fatal(err)
	}
	return db
}

const cancelGateSQL = `SELECT ((t.s & ~1) | h.out_s) AS s,
       SUM((t.r * h.r) - (t.i * h.i)) AS r,
       SUM((t.r * h.i) + (t.i * h.r)) AS i
FROM t JOIN h ON h.in_s = (t.s & 1)
GROUP BY ((t.s & ~1) | h.out_s)`

// TestQueryContextPreCancelled asserts that an already-cancelled context
// aborts the statement before (or during) its first batch and leaves no
// budget reservation behind — for one caller and for four callers
// querying the same database at once, the shape of a multi-worker
// service sharing one budget.
func TestQueryContextPreCancelled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			budget := NewMemBudget(0)
			db := cancelTestDB(t, 4096, budget)
			defer db.Close()
			freezeTables(t, db, "t", "h")
			base := budget.Used() // table storage stays reserved

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			for w, err := range queryConcurrently(db, ctx, cancelGateSQL, workers) {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("caller %d: want context.Canceled, got %v", w, err)
				}
			}
			if got := budget.Used(); got != base {
				t.Fatalf("budget leaked after cancel: used %d, want %d", got, base)
			}
		})
	}
}

// cancelAtFirstPoll is a context that turns cancelled the first time
// anything asks for its error: the engine's first cancellation poll,
// once the statement runs, so cancellation lands mid-query on every run
// instead of racing a timer.
type cancelAtFirstPoll struct {
	context.Context
	cancel context.CancelFunc
}

func (c cancelAtFirstPoll) Err() error {
	c.cancel()
	return c.Context.Err()
}

// cancelInCube is a context that turns cancelled at the first
// cancellation poll made from the cube loop ((*cube).step), so the
// cancellation lands while a chain stage runs over the cube.
type cancelInCube struct {
	context.Context
	cancel context.CancelFunc
}

func (c cancelInCube) Err() error {
	pc := make([]uintptr, 32)
	frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
	for more := true; more; {
		var f runtime.Frame
		f, more = frames.Next()
		if strings.Contains(f.Function, ".(*cube).step") {
			c.cancel()
			break
		}
	}
	return c.Context.Err()
}

// TestQueryContextCancelMidQuery cancels long gate-stage queries while
// they run, from one caller and from four callers sharing the database:
// each statement must return an error wrapping context.Canceled,
// release every reservation, and leave no goroutine behind. The cube
// cases cancel QFT-14 under ORDER BY s from inside the cube loop, which
// runs all of its stages above the first few.
func TestQueryContextCancelMidQuery(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			budget := NewMemBudget(0)
			db := cancelTestDB(t, 1<<17, budget)
			defer db.Close()
			freezeTables(t, db, "t", "h")
			cancelMidQuery(t, db, budget, cancelGateSQL, workers, func(ctx context.Context, cancel context.CancelFunc) context.Context {
				return cancelAtFirstPoll{Context: ctx, cancel: cancel}
			})
		})
	}
	qft := cubeProgram(t, circuits.QFT(14), 1e-12)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("cube/workers=%d", workers), func(t *testing.T) {
			budget := NewMemBudget(0)
			db, err := Open(Config{Budget: budget})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			for _, s := range qft.stmts {
				mustExec(t, db, s)
			}
			// A first run freezes every table: the budget's base then
			// holds table storage only.
			queryAll(t, db, qft.query)
			cancelMidQuery(t, db, budget, qft.query, workers, func(ctx context.Context, cancel context.CancelFunc) context.Context {
				return cancelInCube{Context: ctx, cancel: cancel}
			})
		})
	}
}

// cancelMidQuery runs q from workers callers at once under the context
// wrap makes, which must cancel every statement mid-run, and checks the
// aftermath: every caller sees context.Canceled, the budget is back at
// its base, and no goroutine is left behind.
func cancelMidQuery(t *testing.T, db *DB, budget *MemBudget, q string, workers int, wrap func(context.Context, context.CancelFunc) context.Context) {
	t.Helper()
	base := budget.Used()
	before := runtime.NumGoroutine()
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := wrap(parent, cancel)
	done := make(chan []error, 1)
	go func() { done <- queryConcurrently(db, ctx, q, workers) }()
	var errs []error
	select {
	case errs = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled queries did not return within 10s")
	}
	for w, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("caller %d: want context.Canceled, got %v", w, err)
		}
	}
	if got := budget.Used(); got != base {
		t.Fatalf("budget leaked after cancel: used %d, want %d", got, base)
	}
	waitForGoroutines(t, before)
}

// queryConcurrently runs q on db from the given number of goroutines
// at once and returns each caller's error.
func queryConcurrently(db *DB, ctx context.Context, q string, workers int) []error {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs, err := db.QueryContext(ctx, q)
			if err == nil {
				rs.Close()
			}
			errs[w] = err
		}()
	}
	wg.Wait()
	return errs
}

// TestExecScriptContextCancel asserts scripts stop between statements.
func TestExecScriptContextCancel(t *testing.T) {
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = db.ExecScriptContext(ctx, "CREATE TABLE a (x INTEGER); CREATE TABLE b (x INTEGER)")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(db.Tables()) != 0 {
		t.Fatalf("cancelled script created tables: %v", db.Tables())
	}
}

// waitForGoroutines retries until the goroutine count returns to (or
// below) the baseline, tolerating runtime background goroutines.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
