package sqlengine

import (
	"database/sql"
	"fmt"
	"strings"
	"testing"
)

func TestDriverBasics(t *testing.T) {
	db, err := sql.Open("qymera", fmt.Sprintf("mem://driver-basics-%s", t.Name()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if _, err := db.Exec("CREATE TABLE t (s INTEGER, r REAL, name TEXT)"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("INSERT INTO t VALUES (?, ?, ?), (?, ?, ?)",
		int64(1), 0.5, "one", int64(2), 0.25, "two")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.RowsAffected(); n != 2 {
		t.Fatalf("affected = %d", n)
	}

	rows, err := db.Query("SELECT s, r, name FROM t WHERE s >= ? ORDER BY s", int64(1))
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var got []string
	for rows.Next() {
		var s int64
		var r float64
		var name string
		if err := rows.Scan(&s, &r, &name); err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("%d|%g|%s", s, r, name))
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "1|0.5|one" || got[1] != "2|0.25|two" {
		t.Fatalf("rows = %v", got)
	}
}

func TestDriverSharedDSN(t *testing.T) {
	dsn := fmt.Sprintf("mem://driver-shared-%s", t.Name())
	a, err := sql.Open("qymera", dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := sql.Open("qymera", dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if _, err := a.Exec("CREATE TABLE shared (x INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Exec("INSERT INTO shared VALUES (42)"); err != nil {
		t.Fatal(err)
	}
	var x int64
	if err := b.QueryRow("SELECT x FROM shared").Scan(&x); err != nil {
		t.Fatal(err)
	}
	if x != 42 {
		t.Fatalf("x = %d", x)
	}
}

func TestDriverNullScan(t *testing.T) {
	db, err := sql.Open("qymera", fmt.Sprintf("mem://driver-null-%s", t.Name()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (x INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t VALUES (NULL)"); err != nil {
		t.Fatal(err)
	}
	var x sql.NullInt64
	if err := db.QueryRow("SELECT x FROM t").Scan(&x); err != nil {
		t.Fatal(err)
	}
	if x.Valid {
		t.Fatalf("x = %+v, want NULL", x)
	}
}

func TestDriverPrepared(t *testing.T) {
	db, err := sql.Open("qymera", fmt.Sprintf("mem://driver-prep-%s", t.Name()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (x INTEGER)"); err != nil {
		t.Fatal(err)
	}
	stmt, err := db.Prepare("INSERT INTO t VALUES (?)")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	for i := 0; i < 10; i++ {
		if _, err := stmt.Exec(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var sum int64
	if err := db.QueryRow("SELECT SUM(x) FROM t").Scan(&sum); err != nil {
		t.Fatal(err)
	}
	if sum != 45 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestDriverDSNOptions(t *testing.T) {
	cfg, err := parseDSN("mem://x?budget=12345&nospill=1")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MemoryBudget != 12345 || !cfg.DisableSpill {
		t.Fatalf("cfg = %+v", cfg)
	}
	if _, err := parseDSN("mem://x?budget=abc"); err == nil {
		t.Fatal("expected error for bad budget")
	}
	for v, off := range map[string]bool{"1": true, "true": true, "0": false, "false": false} {
		cfg, err := parseDSN("mem://x?nospill=" + v)
		if err != nil {
			t.Fatalf("nospill=%s: %v", v, err)
		}
		if cfg.DisableSpill != off {
			t.Fatalf("nospill=%s: DisableSpill = %v, want %v", v, cfg.DisableSpill, off)
		}
	}
	if _, err := parseDSN("mem://x?nospill=yes"); err == nil || !strings.Contains(err.Error(), `"yes"`) {
		t.Fatalf("nospill=yes: err = %v, want an error naming the value", err)
	}
}

func TestDriverDSNRejectsUnknownKeys(t *testing.T) {
	for _, tc := range []struct{ dsn, key string }{
		{"mem://x?paralellism=4", "paralellism"},
		{"mem://x?budget=100&layout=row", "layout"},
		{"mem://x?optimizer=off", "optimizer"},
		{"mem://x?encodings=off", "encodings"},
		{"mem://x?kernels=off", "kernels"},
		{"mem://x?budget=2&fusion=off", "fusion"},
	} {
		_, err := parseDSN(tc.dsn)
		if err == nil {
			t.Errorf("parseDSN(%q) accepted an unknown parameter", tc.dsn)
			continue
		}
		if !strings.Contains(err.Error(), `"`+tc.key+`"`) {
			t.Errorf("parseDSN(%q) error %q does not name %q", tc.dsn, err, tc.key)
		}
	}
	cfg, err := parseDSN("mem://x?budget=1&spilldir=d&nospill=true")
	if err != nil {
		t.Fatalf("every accepted key: %v", err)
	}
	if cfg.MemoryBudget != 1 || cfg.SpillDir != "d" || !cfg.DisableSpill {
		t.Fatalf("cfg = %+v", cfg)
	}
}

// TestParallelismDSN: a query runs on one goroutine, so the DSN has no
// parallelism key any more — any value is rejected as unknown rather
// than silently ignored, and the deprecated Config.Parallelism is
// refused by Open unless it is zero.
func TestParallelismDSN(t *testing.T) {
	for _, v := range []string{"1", "3", "abc"} {
		dsn := "mem://pardsn?parallelism=" + v
		_, err := parseDSN(dsn)
		if err == nil || !strings.Contains(err.Error(), `"parallelism"`) {
			t.Errorf("parseDSN(%q) = %v, want an error naming \"parallelism\"", dsn, err)
		}
	}
	db, err := Open(Config{Parallelism: 0})
	if err != nil {
		t.Fatalf("Open with zero Parallelism: %v", err)
	}
	db.Close()
	if db, err := Open(Config{Parallelism: 3}); err == nil {
		db.Close()
		t.Fatal("Open accepted Parallelism = 3")
	}
}
