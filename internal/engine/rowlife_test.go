package engine

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"predator/internal/core"
	"predator/internal/types"
)

// lifeRow is one row of the table the row-lifetime tests share.
type lifeRow struct {
	id  int64
	grp []byte
	ba  []byte
}

// lifeBytes is row i's ba: its first byte is a permutation of i, so
// ORDER BY ba is not insertion order, and its length varies, so a row
// read through another row's storage differs. Rows 17 and 41 are
// larger than a page and live in overflow chains.
func lifeBytes(i int) []byte {
	n := 300 + (i*53)%400
	if i == 17 || i == 41 {
		n = 9000 + 2000*(i%2)
	}
	b := make([]byte, n)
	b[0] = byte((i * 37) % 251)
	for j := 1; j < n; j++ {
		b[j] = byte(i + j*7)
	}
	return b
}

// createLifeTable fills t (id INT, grp BYTES, ba BYTES) with rows rows
// and returns them in insertion order, which is scan order.
func createLifeTable(t *testing.T, e *Engine, rows int) []lifeRow {
	t.Helper()
	mustExec(t, e, `CREATE TABLE t (id INT, grp BYTES, ba BYTES)`)
	var want []lifeRow
	for lo := 0; lo < rows; lo += 10 {
		var vals []string
		for i := lo; i < rows && i < lo+10; i++ {
			r := lifeRow{id: int64(i), grp: bytes.Repeat([]byte{byte('a' + i%4)}, 3), ba: lifeBytes(i)}
			want = append(want, r)
			vals = append(vals, fmt.Sprintf("(%d, X'%x', X'%x')", r.id, r.grp, r.ba))
		}
		mustExec(t, e, "INSERT INTO t VALUES "+strings.Join(vals, ", "))
	}
	tbl, _ := e.Catalog().Table("t")
	st, err := tbl.Heap().Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Pages < 4 {
		t.Fatalf("table spans %d pages, want at least 4", st.Pages)
	}
	return want
}

// rowsEqual compares a result with the expected rows value by value.
func rowsEqual(t *testing.T, q string, got []types.Row, want [][]types.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", q, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d has %d columns, want %d", q, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if c, err := got[i][j].Compare(want[i][j]); err != nil || c != 0 {
				t.Fatalf("%s: row %d column %d differs from the reference (%d bytes vs %d)",
					q, i, j, len(got[i][j].Bytes), len(want[i][j].Bytes))
			}
		}
	}
}

// A row from Operator.Next lives only until the next Next: a scan
// decodes every record into one reused row and record buffer. Every
// operator that keeps rows longer must copy them; this drives each of
// them over a table of several pages and BYTES columns, overflow
// records included, and compares every answer with a Go reference.
func TestRowLifetimeAcrossOperators(t *testing.T) {
	e := openEngineOpts(t, Options{UDFBatchRows: 64})
	want := createLifeTable(t, e, 60)
	b := types.NewBytes
	i := func(v int64) types.Value { return types.NewInt(v) }

	t.Run("Sort", func(t *testing.T) {
		q := `SELECT id, ba FROM t ORDER BY ba DESC`
		ref := slices.Clone(want)
		slices.SortStableFunc(ref, func(x, y lifeRow) int { return bytes.Compare(y.ba, x.ba) })
		var exp [][]types.Value
		for _, r := range ref {
			exp = append(exp, []types.Value{i(r.id), b(r.ba)})
		}
		rowsEqual(t, q, mustExec(t, e, q).Rows, exp)
	})

	t.Run("SelfJoin", func(t *testing.T) {
		q := `SELECT a.id, a.ba, c.ba FROM t a JOIN t c ON a.id + 1 = c.id`
		var exp [][]types.Value
		for k := 0; k+1 < len(want); k++ {
			exp = append(exp, []types.Value{i(want[k].id), b(want[k].ba), b(want[k+1].ba)})
		}
		rowsEqual(t, q, mustExec(t, e, q).Rows, exp)
	})

	t.Run("MinMaxGroupBy", func(t *testing.T) {
		q := `SELECT grp, MIN(ba), MAX(ba), COUNT(*) FROM t GROUP BY grp`
		type agg struct {
			grp, lo, hi []byte
			n           int64
		}
		var order []string
		groups := map[string]*agg{}
		for _, r := range want {
			g, ok := groups[string(r.grp)]
			if !ok {
				g = &agg{grp: r.grp, lo: r.ba, hi: r.ba}
				groups[string(r.grp)] = g
				order = append(order, string(r.grp))
			}
			if bytes.Compare(r.ba, g.lo) < 0 {
				g.lo = r.ba
			}
			if bytes.Compare(r.ba, g.hi) > 0 {
				g.hi = r.ba
			}
			g.n++
		}
		var exp [][]types.Value
		for _, k := range order {
			g := groups[k]
			exp = append(exp, []types.Value{b(g.grp), b(g.lo), b(g.hi), i(g.n)})
		}
		rowsEqual(t, q, mustExec(t, e, q).Rows, exp)
	})

	t.Run("Limit", func(t *testing.T) {
		q := `SELECT id, ba FROM t LIMIT 25`
		var exp [][]types.Value
		for _, r := range want[:25] {
			exp = append(exp, []types.Value{i(r.id), b(r.ba)})
		}
		rowsEqual(t, q, mustExec(t, e, q).Rows, exp)
	})

	t.Run("ExplainAnalyze", func(t *testing.T) {
		res := mustExec(t, e, `EXPLAIN ANALYZE SELECT id, ba FROM t ORDER BY ba`)
		if !strings.Contains(res.Plan, fmt.Sprintf("Rows returned: %d\n", len(want))) {
			t.Fatalf("EXPLAIN ANALYZE:\n%s", res.Plan)
		}
	})

	// Windows of 8, 16, 32 and 64 rows each span pages, and the next
	// window is gathered while the last one crosses to the executor.
	for name, ret := range map[string]types.Kind{"iso_len": types.KindInt, "iso_long": types.KindBool} {
		if err := e.RegisterNativeIsolated(name, []types.Kind{types.KindBytes}, ret); err != nil {
			t.Fatal(err)
		}
	}
	batched := func(t *testing.T, q string) []types.Row {
		t.Helper()
		if plan := mustExec(t, e, "EXPLAIN ANALYZE "+q).Plan; !strings.Contains(plan, "(batched:") {
			t.Fatalf("%s did not run batched:\n%s", q, plan)
		}
		return mustExec(t, e, q).Rows
	}
	t.Run("BatchedProject", func(t *testing.T) {
		q := `SELECT id, ba, iso_len(ba) FROM t`
		var exp [][]types.Value
		for _, r := range want {
			exp = append(exp, []types.Value{i(r.id), b(r.ba), i(int64(len(r.ba)))})
		}
		rowsEqual(t, q, batched(t, q), exp)
	})

	t.Run("BatchedFilter", func(t *testing.T) {
		q := `SELECT id, ba FROM t WHERE iso_long(ba)`
		var exp [][]types.Value
		for _, r := range want {
			if len(r.ba) > 500 {
				exp = append(exp, []types.Value{i(r.id), b(r.ba)})
			}
		}
		rowsEqual(t, q, batched(t, q), exp)
	})
}

// An untrusted Jaguar UDF may write into its BYTES argument. What it
// writes lands in the scan's own copy of the record, never in the
// buffer pool: the stored bytes read back unchanged, and each call saw
// its own row. poke loops, so it runs on the VM; poke2 is loop-free, and
// the planner translates it inline.
func TestUDFWriteToBytesArgLeavesTableUnchanged(t *testing.T) {
	e := openEngine(t)
	want := createLifeTable(t, e, 60)
	mustExec(t, e, `CREATE FUNCTION poke(bytes) RETURNS int LANGUAGE jaguar AS $$
		func poke(data bytes) int {
			data[0] = 7;
			var s int = 0;
			for (var j int = 0; j < len(data); j = j + 1) { s = s + data[j]; }
			return s;
		}
	$$`)
	mustExec(t, e, `CREATE FUNCTION poke2(bytes) RETURNS int LANGUAGE jaguar AS $$
		func poke2(data bytes) int { data[0] = 7; data[1] = 9; return data[0] + data[1] * 256 + data[2] * 65536; }
	$$`)
	pokeRef := func(ba []byte) int64 {
		s := int64(7)
		for _, c := range ba[1:] {
			s += int64(c)
		}
		return s
	}
	poke2Ref := func(ba []byte) int64 { return 7 + 9*256 + int64(ba[2])*65536 }

	for _, q := range []string{`SELECT id, poke(ba) FROM t`, `SELECT id, poke2(ba) FROM t`} {
		var exp [][]types.Value
		for _, r := range want {
			v := pokeRef(r.ba)
			if strings.Contains(q, "poke2") {
				v = poke2Ref(r.ba)
			}
			exp = append(exp, []types.Value{types.NewInt(r.id), types.NewInt(v)})
		}
		rowsEqual(t, q, mustExec(t, e, q).Rows, exp)

		var stored [][]types.Value
		for _, r := range want {
			stored = append(stored, []types.Value{types.NewBytes(r.ba)})
		}
		rowsEqual(t, "SELECT ba FROM t after "+q, mustExec(t, e, `SELECT ba FROM t`).Rows, stored)
	}
	if vm, in := showUDFRow(t, e, "poke")[7].Str, showUDFRow(t, e, "poke2")[7].Str; vm == "inline" || in != "inline" {
		t.Errorf("exec designs: poke %s, poke2 %s; want the VM and inline", vm, in)
	}
}

// scanCost runs q reps times with the collector off and returns the
// allocations and bytes allocated per statement, the least over three
// rounds (a background goroutine can only add to a round).
func scanCost(t *testing.T, e *Engine, q string, rows int) (allocs, bytes float64) {
	t.Helper()
	const reps = 5
	mustExec(t, e, q) // warm: pool frames, UDF state
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs, bytes = -1, -1
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range reps {
			if res := mustExec(t, e, q); len(res.Rows) != rows {
				t.Fatalf("%s: %d rows, want %d", q, len(res.Rows), rows)
			}
		}
		runtime.ReadMemStats(&after)
		a := float64(after.Mallocs-before.Mallocs) / reps
		b := float64(after.TotalAlloc-before.TotalAlloc) / reps
		if allocs < 0 || a < allocs {
			allocs = a
		}
		if bytes < 0 || b < bytes {
			bytes = b
		}
	}
	return allocs, bytes
}

// A scan allocates nothing per record. SELECT triv(ba) over N and 2N
// records of 1 000 bytes (8 to a page): the extra N rows may add fewer
// than 0.1 allocations and 64 bytes a row. The plain query also returns
// a row for each, which the result keeps in slabs: a 72-byte value per
// row, and a 24-byte row header in a slice that grows by doubling.
//
// Measured (N = 1 000, amd64, Go 1.24), per statement over N / 2N rows:
//
//	SELECT triv(ba)                      102 / 104 allocs, 122 / 258 KiB
//	SELECT triv(ba) WHERE triv(ba) = 0   128 / 129 allocs,  10 /  10 KiB
//
// that is 0.002 and 0.001 allocations, and 19 and 0 bytes beyond the
// result, per extra row. Before scans reused their storage the same
// two queries cost 4.3 and 2.3 allocations and 1 256 and 1 118 bytes
// per extra row.
func TestScanAllocatesNothingPerRow(t *testing.T) {
	const n = 1000
	e := openEngine(t)
	err := e.RegisterNative("triv", []types.Kind{types.KindBytes}, types.KindInt,
		func(ctx *core.Ctx, args []types.Value) (types.Value, error) { return types.NewInt(1), nil })
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("ab", 1000) // 1 000 bytes
	for _, tb := range []struct {
		name string
		rows int
	}{{"tn", n}, {"t2n", 2 * n}} {
		mustExec(t, e, fmt.Sprintf(`CREATE TABLE %s (ba BYTES)`, tb.name))
		for lo := 0; lo < tb.rows; lo += 50 {
			mustExec(t, e, fmt.Sprintf("INSERT INTO %s VALUES ", tb.name)+
				strings.TrimSuffix(strings.Repeat(fmt.Sprintf("(X'%s'), ", pad), 50), ", "))
		}
	}
	for _, c := range []struct {
		where     string
		rows      int
		resultRow float64 // bytes the result itself holds per row
	}{
		{"", n, 72 + 2*24},
		{" WHERE triv(ba) = 0", 0, 0},
	} {
		a1, b1 := scanCost(t, e, "SELECT triv(ba) FROM tn"+c.where, c.rows)
		a2, b2 := scanCost(t, e, "SELECT triv(ba) FROM t2n"+c.where, 2*c.rows)
		allocs, bytes := (a2-a1)/n, (b2-b1)/n-c.resultRow
		t.Logf("SELECT triv(ba)%s: %.1f / %.1f allocs, %.0f / %.0f KiB; per extra row %.3f allocs, %.1f bytes beyond the result",
			c.where, a1, a2, b1/1024, b2/1024, allocs, bytes)
		if allocs >= 0.1 {
			t.Errorf("SELECT triv(ba)%s: each extra row costs %.3f allocations, want < 0.1", c.where, allocs)
		}
		if bytes >= 64 {
			t.Errorf("SELECT triv(ba)%s: each extra row costs %.1f bytes beyond the result, want < 64", c.where, bytes)
		}
	}
}
