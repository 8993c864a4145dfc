package sqlengine

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"qymera/internal/circuits"
	"qymera/internal/core"
	"qymera/internal/quantum"
)

// cachedProgram is one translated circuit as the engine runs it: the
// set-up and stage statements, then the final query.
type cachedProgram struct {
	name  string
	stmts []string
	query string
}

func translateProgram(t *testing.T, c *quantum.Circuit, mode core.Mode, chainFusion bool) cachedProgram {
	t.Helper()
	tr, err := core.Translate(c, nil, core.Options{Mode: mode, PruneEps: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	stmts := tr.Statements()
	if chainFusion {
		stmts = tr.FusedStatements()
	}
	return cachedProgram{name: c.Name(), stmts: stmts, query: tr.Query}
}

// run executes the program on a fresh engine, with its kernel hook set
// to kernels, and digests the amplitudes.
func (p cachedProgram) run(cfg Config, kernels bool) (string, Stats, error) {
	db, err := Open(cfg)
	if err != nil {
		return "", Stats{}, err
	}
	defer db.Close()
	withKernels(db, kernels)
	for _, s := range p.stmts {
		if _, err := db.ExecContext(context.Background(), s); err != nil {
			return "", Stats{}, fmt.Errorf("%s: %w", p.name, err)
		}
	}
	rs, err := db.QueryContext(context.Background(), p.query)
	if err != nil {
		return "", Stats{}, fmt.Errorf("%s: %w", p.name, err)
	}
	defer rs.Close()
	rows, err := rs.All()
	if err != nil {
		return "", Stats{}, err
	}
	return rowsBits(rows), db.Stats(), nil
}

// TestStmtCacheASTsStayUnchanged is the guard on the statement cache's
// contract: executing a statement never writes to its parsed AST. Every
// translated program runs in both translation modes, as the fused and
// the unfused statement list, with the kernel hook on and off, and once
// under a spilling budget;
// after each run, the cached AST of every statement it executed must
// deep-equal a fresh parse of the same text.
func TestStmtCacheASTsStayUnchanged(t *testing.T) {
	theta := make([]float64, 4*2*2)
	for i := range theta {
		theta[i] = 0.3 + 0.17*float64(i)
	}
	type variant struct {
		cfg            Config
		kernels, fused bool
	}
	var switches []variant
	for _, kernels := range []bool{true, false} {
		for _, fused := range []bool{true, false} {
			switches = append(switches, variant{Config{}, kernels, fused})
		}
	}
	// The spilling run: 2^10 amplitudes against a 16 KiB budget.
	spill := []variant{{Config{MemoryBudget: 16 << 10, SpillDir: t.TempDir()}, true, true}}
	runs := []struct {
		c        *quantum.Circuit
		variants []variant
	}{
		{circuits.GHZ(6), switches},
		{circuits.QFT(5), switches},
		{circuits.WState(5), switches},
		{circuits.ParitySuperposition(5), switches},
		{circuits.HardwareEfficientAnsatz(4, 2, theta), switches},
		{circuits.ParitySuperposition(10), spill},
	}

	fresh := map[string]Statement{} // ParseStatement of each text, made once
	for _, r := range runs {
		for _, mode := range []core.Mode{core.SingleQuery, core.MaterializedChain} {
			for _, v := range r.variants {
				p := translateProgram(t, r.c, mode, v.fused)
				_, st, err := p.run(v.cfg, v.kernels)
				if err != nil {
					t.Fatalf("mode=%v %+v: %v", mode, v, err)
				}
				if v.cfg.MemoryBudget > 0 && st.SpilledRows == 0 {
					t.Fatalf("%s mode=%v: the budgeted run did not spill", p.name, mode)
				}
				for _, src := range append(p.stmts, p.query) {
					cached, ok := stmtCache.get(src)
					if !ok {
						t.Fatalf("%s mode=%v %+v: statement not cached:\n%s", p.name, mode, v, src)
					}
					want, ok := fresh[src]
					if !ok {
						var err error
						if want, _, err = ParseStatement(src); err != nil {
							t.Fatal(err)
						}
						fresh[src] = want
					}
					if !reflect.DeepEqual(cached.stmt, want) {
						t.Fatalf("%s mode=%v %+v: executing wrote into the cached AST of:\n%s", p.name, mode, v, src)
					}
				}
			}
		}
	}
}

// TestStmtCacheConcurrentPrograms: engines on four goroutines run one
// program, so they plan the same cached ASTs at once (run with -race).
// Their amplitudes must be bit-identical.
func TestStmtCacheConcurrentPrograms(t *testing.T) {
	p := translateProgram(t, circuits.QFT(6), core.MaterializedChain, true)
	const workers = 4
	got := make([]string, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3 && errs[w] == nil; rep++ {
				got[w], _, errs[w] = p.run(Config{}, true)
			}
		}()
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("engine %d: %v", w, errs[w])
		}
		if got[w] != got[0] {
			t.Fatalf("engine %d returned different amplitudes than engine 0", w)
		}
	}
}

// TestStmtCacheBounds: least-recently-used eviction keeps a statement
// used between a stream of one-off INSERTs, however long the stream;
// an oversized text and a parse error are not cached.
func TestStmtCacheBounds(t *testing.T) {
	const limit = 4096
	c := newLRU[parsedStmt](limit)
	hot := "SELECT s, r, i FROM t WHERE s > 1"
	first, _, err := parseCached(c, hot)
	if err != nil {
		t.Fatal(err)
	}
	insert := func(k int) string {
		return fmt.Sprintf("INSERT INTO g%d VALUES (0, 0, 0.7071067811865476, 0.0), (1, 1, -0.7071067811865476, %d.5)", k, k)
	}
	streamed := 0
	for k := 0; streamed <= 2*limit; k++ {
		if _, _, err := parseCached(c, insert(k)); err != nil {
			t.Fatal(err)
		}
		streamed += len(insert(k))
		again, _, err := parseCached(c, hot)
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("the hot statement was evicted after %d streamed bytes", streamed)
		}
	}
	if _, ok := c.get(insert(0)); ok {
		t.Fatal("the first INSERT survived a stream twice the bound")
	}
	if c.used > limit {
		t.Fatalf("cache holds %d source bytes, bound %d", c.used, limit)
	}

	oversized := "SELECT " + strings.Repeat("1 + ", limit/8/4) + "1"
	a, _, err := parseCached(c, oversized)
	if err != nil {
		t.Fatal(err)
	}
	b, _, _ := parseCached(c, oversized)
	if _, ok := c.get(oversized); ok || a == b {
		t.Fatal("an oversized text was cached")
	}

	n := c.len()
	if _, _, err := parseCached(c, "SELECT FROM WHERE"); err == nil {
		t.Fatal("expected a parse error")
	}
	if _, ok := c.get("SELECT FROM WHERE"); ok || c.len() != n {
		t.Fatal("a parse error was cached")
	}
}
