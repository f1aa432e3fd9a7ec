package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"predator/internal/core"
	"predator/internal/storage"
	"predator/internal/types"
)

// TestFailedStatementsReleaseScanPins: a scan holds its page pinned
// from the page's first record to its last, so every way a statement
// can stop mid-scan must release the pin. The pool has four frames and
// the table at least eight pages; more failing statements than the
// pool has frames, each stopping on a different page, would exhaust
// it ("buffer pool exhausted ... all pinned") if any path leaked.
func TestFailedStatementsReleaseScanPins(t *testing.T) {
	e := openEngineOpts(t, Options{BufferPoolPages: 4})
	mustExec(t, e, `CREATE TABLE t (id INT, pad STRING)`)
	pad := strings.Repeat("p", 900)
	const rows = 96
	for lo := 0; lo < rows; lo += 8 {
		vals := make([]string, 8)
		for i := range vals {
			vals[i] = fmt.Sprintf("(%d, '%s')", lo+i, pad)
		}
		mustExec(t, e, "INSERT INTO t VALUES "+strings.Join(vals, ", "))
	}
	err := e.RegisterNative("slow", []types.Kind{types.KindInt}, types.KindInt,
		func(ctx *core.Ctx, args []types.Value) (types.Value, error) {
			time.Sleep(5 * time.Millisecond)
			return args[0], nil
		})
	if err != nil {
		t.Fatal(err)
	}

	// One id from the middle of each page: a statement that fails there
	// stops with that page pinned.
	tbl, _ := e.Catalog().Table("t")
	var pages []storage.PageID
	ids := map[storage.PageID][]int64{}
	sc := tbl.Heap().Scan()
	defer sc.Close()
	for sc.Next() {
		row, err := types.DecodeRow(sc.Record(), tbl.Schema)
		if err != nil {
			t.Fatal(err)
		}
		p := sc.RID().Page
		if len(ids[p]) == 0 {
			pages = append(pages, p)
		}
		ids[p] = append(ids[p], row[0].Int)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	var mid []int64
	for _, p := range pages {
		mid = append(mid, ids[p][len(ids[p])/2])
	}
	if len(mid) < 8 {
		t.Fatalf("table spans %d pages, want at least 8", len(mid))
	}

	s := e.NewSession()
	for _, k := range mid {
		for _, q := range []string{
			fmt.Sprintf(`SELECT id FROM t WHERE 1/(id-%d) > 1000`, k),
			fmt.Sprintf(`DELETE FROM t WHERE 1/(id-%d) > 1000`, k),
			fmt.Sprintf(`UPDATE t SET pad = 'x' WHERE 1/(id-%d) > 1000`, k),
		} {
			_, err := s.Exec(q)
			if err == nil || !strings.Contains(err.Error(), "division by zero") {
				t.Fatalf("%s: got %v, want division by zero", q, err)
			}
		}
		if _, err := s.Exec(`SET STATEMENT_TIMEOUT = 20`); err != nil {
			t.Fatal(err)
		}
		q := fmt.Sprintf(`SELECT slow(id) FROM t WHERE id >= %d`, k)
		if _, err := s.Exec(q); !core.IsTimeout(err) {
			t.Fatalf("%s: got %v, want a timeout", q, err)
		}
		if _, err := s.Exec(`SET STATEMENT_TIMEOUT = 0`); err != nil {
			t.Fatal(err)
		}
	}

	res, err := s.Exec(`SELECT id FROM t`)
	if err != nil {
		t.Fatalf("full scan after the failed statements: %v", err)
	}
	if len(res.Rows) != rows {
		t.Fatalf("full scan returned %d rows, want %d", len(res.Rows), rows)
	}
	for i, r := range res.Rows {
		if r[0].Int != int64(i) {
			t.Fatalf("row %d has id %d", i, r[0].Int)
		}
	}
}
