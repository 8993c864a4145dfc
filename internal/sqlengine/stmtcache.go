package sqlengine

// Statement cache: every DB in the process parses each distinct
// statement text once. A translated circuit is the same SQL text from
// one run to the next, and a parameter sweep repeats all of it but the
// gate-data INSERTs, so the engine keeps its statements prepared the
// way a database serving repeated traffic does.
//
// Contract: nothing downstream of the parser writes to a Statement.
// The plan builder only reads the AST and makes every node and
// expression it changes, and constants fold inside the compiled
// closures, so one cached AST is planned by any number of engines,
// concurrently. The public ParseStatement and
// ParseScript stay uncached: their callers own the AST they get and
// may change it.

// stmtCacheBytes bounds the cache by the source bytes of the texts it
// holds. A parsed AST takes about nine times its source, so the bound
// keeps roughly 18 MB of ASTs: the whole programs of a few dozen
// QFT-12-sized circuits.
const stmtCacheBytes = 2 << 20

// parsedStmt is a cache entry: the statement and its ? count.
type parsedStmt struct {
	stmt    Statement
	nparams int
}

// stmtCache is the process-wide statement cache, least recently used
// first out, so the one-off gate-data INSERTs of a sweep cannot push
// out the stage statements every job runs.
var stmtCache = newLRU[parsedStmt](stmtCacheBytes)

// parseCached is ParseStatement through a cache keyed by the exact
// text. The returned Statement is shared: callers must not modify it.
// Parse errors are not cached, and neither is a text longer than an
// eighth of the cache's bound: that is one-off data (an initial state
// written as one INSERT) and would evict many hot statements at once.
func parseCached(c *lruCache[parsedStmt], src string) (Statement, int, error) {
	if p, ok := c.get(src); ok {
		return p.stmt, p.nparams, nil
	}
	stmt, n, err := ParseStatement(src)
	if err != nil {
		return nil, 0, err
	}
	if len(src) <= c.limit/8 {
		c.put(src, parsedStmt{stmt: stmt, nparams: n}, len(src))
	}
	return stmt, n, nil
}
