package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"predator/internal/storage"
)

func countRows(t *testing.T, e *Engine, table string) int {
	t.Helper()
	res, err := e.Exec("SELECT * FROM " + table)
	if err != nil {
		t.Fatalf("SELECT %s: %v", table, err)
	}
	return len(res.Rows)
}

// TestCloseThenReopenNoRecovery: a graceful Close checkpoints, so the
// next open must find all data without running crash recovery.
func TestCloseThenReopenNoRecovery(t *testing.T) {
	for _, mode := range []string{"none", "commit", "always"} {
		t.Run(mode, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "close.db")
			e, err := Open(path, Options{Durability: mode})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if _, err := e.Exec("CREATE TABLE t (id INT, s STRING)"); err != nil {
				t.Fatalf("CREATE: %v", err)
			}
			for i := 0; i < 20; i++ {
				if _, err := e.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'row-%d')", i, i)); err != nil {
					t.Fatalf("INSERT: %v", err)
				}
			}
			if err := e.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if mode != "none" {
				if info, err := os.Stat(storage.WALPath(path)); err != nil || info.Size() != 0 {
					t.Fatalf("WAL not truncated by graceful Close: %v %v", info, err)
				}
			}
			e2, err := Open(path, Options{Durability: mode})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer e2.Close()
			if rec := e2.Recovered(); rec.Ran {
				t.Fatalf("graceful shutdown required recovery: %+v", rec)
			}
			if n := countRows(t, e2, "t"); n != 20 {
				t.Fatalf("rows after reopen = %d, want 20", n)
			}
		})
	}
}

func TestCheckpointStatement(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckptstmt.db")
	e, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer e.Close()
	if _, err := e.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatalf("CREATE: %v", err)
	}
	if _, err := e.Exec("INSERT INTO t VALUES (1), (2), (3)"); err != nil {
		t.Fatalf("INSERT: %v", err)
	}
	if e.disk.WALSize() == 0 {
		t.Fatalf("WAL empty before checkpoint (durability default should be commit)")
	}
	res, err := e.Exec("CHECKPOINT")
	if err != nil {
		t.Fatalf("CHECKPOINT: %v", err)
	}
	if res.Message == "" {
		t.Fatalf("CHECKPOINT returned no confirmation")
	}
	if got := e.disk.WALSize(); got != 0 {
		t.Fatalf("WAL size after CHECKPOINT = %d, want 0", got)
	}
	if n := countRows(t, e, "t"); n != 3 {
		t.Fatalf("rows after CHECKPOINT = %d, want 3", n)
	}
}

// TestAutoCheckpointBoundsWAL: with a tiny threshold the WAL must be
// truncated automatically, never growing far past the bound.
func TestAutoCheckpointBoundsWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "autockpt.db")
	const bound = 64 << 10
	e, err := Open(path, Options{CheckpointBytes: bound})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer e.Close()
	if _, err := e.Exec("CREATE TABLE t (id INT, s STRING)"); err != nil {
		t.Fatalf("CREATE: %v", err)
	}
	for i := 0; i < 60; i++ {
		if _, err := e.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'x')", i)); err != nil {
			t.Fatalf("INSERT %d: %v", i, err)
		}
		// One statement can append several page images past the bound,
		// but the next boundary must checkpoint; allow that slack.
		if got := e.disk.WALSize(); got > bound+int64(8*storage.PageSize) {
			t.Fatalf("WAL grew to %d, far past the %d bound", got, bound)
		}
	}
	ws := e.WALStats()
	if ws.Appends == 0 || ws.Fsyncs == 0 {
		t.Fatalf("expected WAL activity, got %+v", ws)
	}
}

// TestDurabilityNoneNoWALFile: the bench configuration must not pay
// for logging at all.
func TestDurabilityNoneNoWALFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plain.db")
	e, err := Open(path, Options{Durability: "none"})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer e.Close()
	if _, err := e.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatalf("CREATE: %v", err)
	}
	if _, err := e.Exec("INSERT INTO t VALUES (1)"); err != nil {
		t.Fatalf("INSERT: %v", err)
	}
	if _, err := os.Stat(storage.WALPath(path)); !os.IsNotExist(err) {
		t.Fatalf("WAL file exists under durability=none: %v", err)
	}
	if ws := e.WALStats(); ws.Appends != 0 {
		t.Fatalf("WAL appends under durability=none: %+v", ws)
	}
	// CHECKPOINT stays valid (it just flushes + fsyncs).
	if _, err := e.Exec("CHECKPOINT"); err != nil {
		t.Fatalf("CHECKPOINT under durability=none: %v", err)
	}
}

func TestOpenRejectsBadDurability(t *testing.T) {
	_, err := Open(filepath.Join(t.TempDir(), "bad.db"), Options{Durability: "paranoid"})
	if err == nil {
		t.Fatalf("Open accepted an unknown durability mode")
	}
}

// TestTwoSessionsInsertIntoOneTable: sessions inserting into the same
// table at durability commit used to race inside the heap file (lost
// slots, "storage: page full"). Every acknowledged row must be there,
// before and after a reopen.
func TestTwoSessionsInsertIntoOneTable(t *testing.T) {
	const sessions, each = 2, 400
	path := filepath.Join(t.TempDir(), "shared.db")
	e, err := Open(path, Options{Durability: "commit"})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := e.Exec("CREATE TABLE ev (id INT, who STRING)"); err != nil {
		t.Fatalf("CREATE: %v", err)
	}
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sess := e.NewSession()
			for i := 0; i < each; i++ {
				if _, err := sess.Exec(fmt.Sprintf("INSERT INTO ev VALUES (%d, 'session-%d')", s*each+i, s)); err != nil {
					t.Errorf("session %d insert %d: %v", s, i, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if n := countRows(t, e, "ev"); n != sessions*each {
		t.Fatalf("rows = %d, want %d", n, sessions*each)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	e2, err := Open(path, Options{Durability: "commit"})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer e2.Close()
	res, err := e2.Exec("SELECT id FROM ev")
	if err != nil {
		t.Fatalf("SELECT after reopen: %v", err)
	}
	seen := make(map[int64]bool, len(res.Rows))
	for _, row := range res.Rows {
		seen[row[0].Int] = true
	}
	if len(res.Rows) != sessions*each || len(seen) != sessions*each {
		t.Fatalf("after reopen: %d rows, %d distinct ids, want %d", len(res.Rows), len(seen), sessions*each)
	}
}
