package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"predator/internal/core"
	"predator/internal/isolate"
	"predator/internal/jvm"
	"predator/internal/types"
)

var testNatives = isolate.NativeTable{
	"iso_double": func(ctx *core.Ctx, args []types.Value) (types.Value, error) {
		return types.NewInt(args[0].Int * 2), nil
	},
	"iso_len": func(ctx *core.Ctx, args []types.Value) (types.Value, error) {
		return types.NewInt(int64(len(args[0].Bytes))), nil
	},
	"iso_long": func(ctx *core.Ctx, args []types.Value) (types.Value, error) {
		return types.NewBool(len(args[0].Bytes) > 500), nil
	},
	// iso_hang loops forever: only executor supervision can stop it.
	"iso_hang": func(ctx *core.Ctx, args []types.Value) (types.Value, error) {
		for {
			time.Sleep(time.Hour)
		}
	},
	// iso_slow takes a fixed per-row time: used to drive a statement
	// deadline into the gaps between batched invocations.
	"iso_slow": func(ctx *core.Ctx, args []types.Value) (types.Value, error) {
		time.Sleep(10 * time.Millisecond)
		return args[0], nil
	},
}

func TestMain(m *testing.M) {
	isolate.MaybeRunExecutor(testNatives)
	os.Exit(m.Run())
}

func openEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := Open(filepath.Join(t.TempDir(), "test.db"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func mustExec(t *testing.T, e *Engine, q string) *Result {
	t.Helper()
	res, err := e.Exec(q)
	if err != nil {
		t.Fatalf("exec %q: %v", q, err)
	}
	return res
}

func seedStocks(t *testing.T, e *Engine) {
	t.Helper()
	mustExec(t, e, `CREATE TABLE stocks (id INT, sym STRING, type STRING, price FLOAT, history BYTES)`)
	mustExec(t, e, `INSERT INTO stocks VALUES
		(1, 'ACME', 'tech', 10.5, X'010203'),
		(2, 'GLOB', 'tech', 20.0, X'0405'),
		(3, 'OILCO', 'energy', 55.25, X'06'),
		(4, 'BANKX', 'finance', 7.75, X''),
		(5, 'NULLY', NULL, NULL, NULL)`)
}

func TestDDLAndInsertSelect(t *testing.T) {
	e := openEngine(t)
	seedStocks(t, e)
	res := mustExec(t, e, `SELECT sym, price FROM stocks WHERE type = 'tech' ORDER BY price DESC`)
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	if res.Rows[0][0].Str != "GLOB" || res.Rows[1][0].Str != "ACME" {
		t.Errorf("order wrong: %v", res.Rows)
	}
	if res.Schema.Columns[0].Name != "sym" || res.Schema.Columns[1].Kind != types.KindFloat {
		t.Errorf("schema wrong: %s", res.Schema)
	}
}

func TestSelectStar(t *testing.T) {
	e := openEngine(t)
	seedStocks(t, e)
	res := mustExec(t, e, `SELECT * FROM stocks WHERE id = 3`)
	if len(res.Rows) != 1 || res.Schema.Arity() != 5 {
		t.Fatalf("rows=%d arity=%d", len(res.Rows), res.Schema.Arity())
	}
	if res.Rows[0][1].Str != "OILCO" {
		t.Errorf("row = %s", res.Rows[0])
	}
}

func TestArithmeticAndAliases(t *testing.T) {
	e := openEngine(t)
	seedStocks(t, e)
	res := mustExec(t, e, `SELECT sym, price * 2 AS dbl, LENGTH(history) hl FROM stocks WHERE id = 1`)
	row := res.Rows[0]
	if row[1].Float != 21.0 || row[2].Int != 3 {
		t.Errorf("row = %s", row)
	}
	if res.Schema.Columns[1].Name != "dbl" || res.Schema.Columns[2].Name != "hl" {
		t.Errorf("aliases wrong: %s", res.Schema)
	}
}

func TestNullSemantics(t *testing.T) {
	e := openEngine(t)
	seedStocks(t, e)
	// NULL never matches comparisons.
	res := mustExec(t, e, `SELECT id FROM stocks WHERE price > 0`)
	if len(res.Rows) != 4 {
		t.Errorf("price > 0 matched %d rows, want 4", len(res.Rows))
	}
	res = mustExec(t, e, `SELECT id FROM stocks WHERE price IS NULL`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 5 {
		t.Errorf("IS NULL wrong: %v", res.Rows)
	}
	res = mustExec(t, e, `SELECT id FROM stocks WHERE type IS NOT NULL AND price < 100`)
	if len(res.Rows) != 4 {
		t.Errorf("IS NOT NULL wrong: %d rows", len(res.Rows))
	}
	// NOT(NULL) is NULL -> row rejected.
	res = mustExec(t, e, `SELECT id FROM stocks WHERE NOT (price > 0)`)
	if len(res.Rows) != 0 {
		t.Errorf("NOT over NULL leaked %d rows", len(res.Rows))
	}
}

func TestLimitAndOrderAsc(t *testing.T) {
	e := openEngine(t)
	seedStocks(t, e)
	res := mustExec(t, e, `SELECT id FROM stocks WHERE id IS NOT NULL ORDER BY id LIMIT 3`)
	if len(res.Rows) != 3 || res.Rows[0][0].Int != 1 || res.Rows[2][0].Int != 3 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestJoin(t *testing.T) {
	e := openEngine(t)
	seedStocks(t, e)
	mustExec(t, e, `CREATE TABLE sectors (name STRING, weight FLOAT)`)
	mustExec(t, e, `INSERT INTO sectors VALUES ('tech', 1.5), ('energy', 0.5)`)
	res := mustExec(t, e, `
		SELECT s.sym, c.weight FROM stocks s JOIN sectors c ON s.type = c.name
		ORDER BY s.sym`)
	if len(res.Rows) != 3 {
		t.Fatalf("join produced %d rows, want 3", len(res.Rows))
	}
	if res.Rows[0][0].Str != "ACME" || res.Rows[0][1].Float != 1.5 {
		t.Errorf("rows = %v", res.Rows)
	}
	// Comma-style cross join with WHERE acting as join predicate.
	res = mustExec(t, e, `
		SELECT s.sym FROM stocks s, sectors c WHERE s.type = c.name AND c.weight < 1.0`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "OILCO" {
		t.Errorf("cross join rows = %v", res.Rows)
	}
}

func TestAggregates(t *testing.T) {
	e := openEngine(t)
	seedStocks(t, e)
	res := mustExec(t, e, `SELECT COUNT(*), COUNT(price), SUM(price), MIN(price), MAX(price), AVG(price) FROM stocks`)
	row := res.Rows[0]
	if row[0].Int != 5 || row[1].Int != 4 {
		t.Errorf("counts = %s", row)
	}
	if row[2].Float != 93.5 || row[3].Float != 7.75 || row[4].Float != 55.25 {
		t.Errorf("sum/min/max = %s", row)
	}
	if row[5].Float != 93.5/4 {
		t.Errorf("avg = %s", row[5])
	}
}

func TestGroupByHaving(t *testing.T) {
	e := openEngine(t)
	seedStocks(t, e)
	res := mustExec(t, e, `
		SELECT type, COUNT(*) n, AVG(price) FROM stocks
		WHERE type IS NOT NULL
		GROUP BY type HAVING COUNT(*) >= 1
		ORDER BY type`)
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %v", res.Rows)
	}
	if res.Rows[2][0].Str != "tech" || res.Rows[2][1].Int != 2 || res.Rows[2][2].Float != 15.25 {
		t.Errorf("tech group = %s", res.Rows[2])
	}
	// HAVING filters groups.
	res = mustExec(t, e, `
		SELECT type, COUNT(*) FROM stocks WHERE type IS NOT NULL
		GROUP BY type HAVING COUNT(*) > 1`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "tech" {
		t.Errorf("having rows = %v", res.Rows)
	}
	// Expressions over aggregates.
	res = mustExec(t, e, `SELECT SUM(price) / COUNT(price) FROM stocks`)
	if res.Rows[0][0].Float != 93.5/4 {
		t.Errorf("expr over aggs = %s", res.Rows[0][0])
	}
}

func TestGroupByRejectsLooseColumns(t *testing.T) {
	e := openEngine(t)
	seedStocks(t, e)
	if _, err := e.Exec(`SELECT sym, COUNT(*) FROM stocks GROUP BY type`); err == nil {
		t.Error("non-grouped column accepted")
	}
}

func TestDelete(t *testing.T) {
	e := openEngine(t)
	seedStocks(t, e)
	res := mustExec(t, e, `DELETE FROM stocks WHERE type = 'tech'`)
	if res.RowsAffected != 2 {
		t.Errorf("deleted %d, want 2", res.RowsAffected)
	}
	res = mustExec(t, e, `SELECT COUNT(*) FROM stocks`)
	if res.Rows[0][0].Int != 3 {
		t.Errorf("remaining = %s", res.Rows[0][0])
	}
	res = mustExec(t, e, `DELETE FROM stocks`)
	if res.RowsAffected != 3 {
		t.Errorf("deleted %d, want 3", res.RowsAffected)
	}
}

func TestJaguarUDFViaSQL(t *testing.T) {
	e := openEngine(t)
	seedStocks(t, e)
	mustExec(t, e, `CREATE FUNCTION histsum(bytes) RETURNS int LANGUAGE jaguar AS $$
		func histsum(h bytes) int {
			var acc int = 0;
			for (var i int = 0; i < len(h); i = i + 1) { acc = acc + h[i]; }
			return acc;
		}
	$$`)
	res := mustExec(t, e, `SELECT sym, histsum(history) FROM stocks WHERE histsum(history) > 5 ORDER BY sym`)
	// ACME: 1+2+3=6; GLOB: 4+5=9; OILCO: 6; BANKX: 0; NULLY: NULL.
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].Str != "ACME" || res.Rows[0][1].Int != 6 {
		t.Errorf("rows = %v", res.Rows)
	}
	// SHOW FUNCTIONS reports the design.
	show := mustExec(t, e, `SHOW FUNCTIONS`)
	if len(show.Rows) != 1 || show.Rows[0][1].Str != "JNI" {
		t.Errorf("show functions = %v", show.Rows)
	}
	// Replacement requires OR REPLACE.
	if _, err := e.Exec(`CREATE FUNCTION histsum(bytes) RETURNS int LANGUAGE jaguar AS $$func histsum(h bytes) int { return 0; }$$`); err == nil {
		t.Error("duplicate function accepted")
	}
	mustExec(t, e, `CREATE OR REPLACE FUNCTION histsum(bytes) RETURNS int LANGUAGE jaguar AS $$func histsum(h bytes) int { return 42; }$$`)
	res = mustExec(t, e, `SELECT histsum(history) FROM stocks WHERE id = 1`)
	if res.Rows[0][0].Int != 42 {
		t.Errorf("replaced function = %s", res.Rows[0][0])
	}
	mustExec(t, e, `DROP FUNCTION histsum`)
	if _, err := e.Exec(`SELECT histsum(history) FROM stocks`); err == nil {
		t.Error("dropped function still callable")
	}
}

func TestJaguarUDFPersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.db")
	e, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, `CREATE TABLE t (x INT)`)
	mustExec(t, e, `INSERT INTO t VALUES (5)`)
	mustExec(t, e, `CREATE FUNCTION sq(int) RETURNS int LANGUAGE jaguar AS $$func sq(x int) int { return x * x; }$$`)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	res := mustExec(t, e2, `SELECT sq(x) FROM t`)
	if res.Rows[0][0].Int != 25 {
		t.Errorf("persisted UDF = %s", res.Rows[0][0])
	}
}

func TestNativeUDF(t *testing.T) {
	e := openEngine(t)
	seedStocks(t, e)
	err := e.RegisterNative("pricecat", []types.Kind{types.KindFloat}, types.KindString,
		func(ctx *core.Ctx, args []types.Value) (types.Value, error) {
			if args[0].Float > 15 {
				return types.NewString("high"), nil
			}
			return types.NewString("low"), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, e, `SELECT sym FROM stocks WHERE pricecat(price) = 'high' ORDER BY sym`)
	if len(res.Rows) != 2 || res.Rows[0][0].Str != "GLOB" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestIsolatedNativeUDFViaSQL(t *testing.T) {
	e := openEngine(t)
	mustExec(t, e, `CREATE TABLE n (x INT)`)
	mustExec(t, e, `INSERT INTO n VALUES (1), (2), (3)`)
	if err := e.RegisterNativeIsolated("iso_double", []types.Kind{types.KindInt}, types.KindInt); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, e, `SELECT iso_double(x) FROM n ORDER BY x`)
	if len(res.Rows) != 3 || res.Rows[2][0].Int != 6 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestIsolatedJaguarUDFViaSQL(t *testing.T) {
	e := openEngine(t)
	mustExec(t, e, `CREATE TABLE n (x INT)`)
	mustExec(t, e, `INSERT INTO n VALUES (7)`)
	mustExec(t, e, `CREATE FUNCTION inc(int) RETURNS int LANGUAGE jaguar ISOLATED AS $$
		func inc(x int) int { return x + 1; }
	$$`)
	res := mustExec(t, e, `SELECT inc(x) FROM n`)
	if res.Rows[0][0].Int != 8 {
		t.Errorf("inc = %s", res.Rows[0][0])
	}
	show := mustExec(t, e, `SHOW FUNCTIONS`)
	if show.Rows[0][1].Str != "IJNI" {
		t.Errorf("design = %s", show.Rows[0][1])
	}
}

func TestUDFTrapsAreContained(t *testing.T) {
	e := openEngine(t)
	mustExec(t, e, `CREATE TABLE n (x INT)`)
	mustExec(t, e, `INSERT INTO n VALUES (0)`)
	mustExec(t, e, `CREATE FUNCTION crashy(int) RETURNS int LANGUAGE jaguar AS $$
		func crashy(x int) int {
			var b bytes = bnew(1);
			return b[5]; // out of bounds
		}
	$$`)
	_, err := e.Exec(`SELECT crashy(x) FROM n`)
	if err == nil || !strings.Contains(err.Error(), "bounds") {
		t.Errorf("trap not surfaced: %v", err)
	}
	// The engine keeps working after the trap.
	res := mustExec(t, e, `SELECT COUNT(*) FROM n`)
	if res.Rows[0][0].Int != 1 {
		t.Error("engine damaged by UDF trap")
	}
}

func TestUDFResourceLimitViaOptions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lim.db")
	e, err := Open(path, Options{UDFLimits: jvm.Limits{Fuel: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustExec(t, e, `CREATE TABLE n (x INT)`)
	mustExec(t, e, `INSERT INTO n VALUES (100000000)`)
	mustExec(t, e, `CREATE FUNCTION spin(int) RETURNS int LANGUAGE jaguar AS $$
		func spin(n int) int {
			var acc int = 0;
			for (var i int = 0; i < n; i = i + 1) { acc = acc + 1; }
			return acc;
		}
	$$`)
	_, err = e.Exec(`SELECT spin(x) FROM n`)
	if err == nil || !strings.Contains(err.Error(), "fuel") {
		t.Errorf("denial-of-service UDF not stopped: %v", err)
	}
}

func TestExplainShowsPredicateOrdering(t *testing.T) {
	e := openEngine(t)
	seedStocks(t, e)
	mustExec(t, e, `CREATE FUNCTION investval(bytes) RETURNS int LANGUAGE jaguar AS $$
		func investval(h bytes) int {
			var acc int = 0;
			for (var i int = 0; i < len(h); i = i + 1) { acc = acc + h[i]; }
			return acc;
		}
	$$`)
	res := mustExec(t, e, `EXPLAIN SELECT sym FROM stocks WHERE investval(history) > 5 AND type = 'tech'`)
	plan := res.Plan
	// The cheap type='tech' filter must sit BELOW (after in tree
	// rendering) the expensive UDF filter: scan -> cheap -> UDF.
	udfPos := strings.Index(plan, "investval")
	cheapPos := strings.Index(plan, "type")
	scanPos := strings.Index(plan, "SeqScan")
	if udfPos < 0 || cheapPos < 0 || scanPos < 0 {
		t.Fatalf("plan rendering incomplete:\n%s", plan)
	}
	if !(udfPos < cheapPos && cheapPos < scanPos) {
		t.Errorf("expensive predicate not placed above cheap one:\n%s", plan)
	}
}

func TestErrors(t *testing.T) {
	e := openEngine(t)
	seedStocks(t, e)
	cases := []string{
		`SELECT * FROM nosuch`,
		`SELECT nosuchcol FROM stocks`,
		`SELECT nosuchfn(id) FROM stocks`,
		`INSERT INTO stocks VALUES (1)`,                     // arity
		`INSERT INTO stocks VALUES ('x', 1, 1, 1.0, X'00')`, // type
		`CREATE TABLE stocks (id INT)`,                      // duplicate
		`DROP TABLE nosuch`,
		`DROP FUNCTION nosuch`,
		`SELECT id FROM stocks WHERE id`, // non-bool predicate
		`CREATE FUNCTION f(int) RETURNS int LANGUAGE cobol AS $$x$$`,
		`CREATE FUNCTION f(int) RETURNS int LANGUAGE jaguar AS $$not jaguar$$`,
		`SELECT s.id FROM stocks s, stocks s2 WHERE id = 1`, // ambiguous
	}
	for _, q := range cases {
		if _, err := e.Exec(q); err == nil {
			t.Errorf("query %q succeeded, want error", q)
		}
	}
}

func TestMultipleStatementsAndSemicolon(t *testing.T) {
	e := openEngine(t)
	mustExec(t, e, `CREATE TABLE t (x INT);`)
	res := mustExec(t, e, `SHOW TABLES;`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "t" {
		t.Errorf("show tables = %v", res.Rows)
	}
}

func TestObjectStoreCallbacksFromSQL(t *testing.T) {
	e := openEngine(t)
	// Register a large object; store its handle in a table; have a UDF
	// inspect it via callbacks instead of shipping the whole object.
	obj := make([]byte, 1000)
	for i := range obj {
		obj[i] = byte(i % 7)
	}
	h := e.Objects().Put(obj)
	mustExec(t, e, `CREATE TABLE imgs (id INT, handle INT)`)
	mustExec(t, e, fmt.Sprintf(`INSERT INTO imgs VALUES (1, %d)`, h))
	mustExec(t, e, `CREATE FUNCTION objsize(int) RETURNS int LANGUAGE jaguar AS $$
		func objsize(h int) int { return cb_size(h); }
	$$`)
	res := mustExec(t, e, `SELECT objsize(handle) FROM imgs`)
	if res.Rows[0][0].Int != 1000 {
		t.Errorf("objsize = %s", res.Rows[0][0])
	}
	if e.Objects().Stats().Sizes != 1 {
		t.Errorf("callback stats = %+v", e.Objects().Stats())
	}
}

func TestSecurityPolicyDeniesFileAccess(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sec.db")
	policy := jvm.DefaultPolicy()
	e, err := Open(path, Options{Security: policy})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustExec(t, e, `CREATE TABLE n (x INT)`)
	mustExec(t, e, `INSERT INTO n VALUES (1)`)
	// time() requires PermTime, which the default policy denies.
	mustExec(t, e, `CREATE FUNCTION sneaky(int) RETURNS int LANGUAGE jaguar AS $$
		func sneaky(x int) int { return time(); }
	$$`)
	_, err = e.Exec(`SELECT sneaky(x) FROM n`)
	if err == nil || !strings.Contains(err.Error(), "security") {
		t.Errorf("security manager did not deny: %v", err)
	}
	audit := policy.Audit()
	if len(audit) == 0 || !audit[0].Denied {
		t.Errorf("no audit trail: %+v", audit)
	}
}

func TestLargeByteArrayRows(t *testing.T) {
	// The paper's Rel10000: 10 KB byte arrays (larger than a page).
	e := openEngine(t)
	mustExec(t, e, `CREATE TABLE big (id INT, data BYTES)`)
	blob := strings.Repeat("ab", 5000) // 10,000 bytes
	mustExec(t, e, fmt.Sprintf(`INSERT INTO big VALUES (1, X'%x')`, blob))
	res := mustExec(t, e, `SELECT LENGTH(data) FROM big`)
	if res.Rows[0][0].Int != 10000 {
		t.Errorf("blob length = %s", res.Rows[0][0])
	}
}

func TestUpdate(t *testing.T) {
	e := openEngine(t)
	seedStocks(t, e)
	res := mustExec(t, e, `UPDATE stocks SET price = price * 2, type = 'TECH' WHERE type = 'tech'`)
	if res.RowsAffected != 2 {
		t.Errorf("updated %d, want 2", res.RowsAffected)
	}
	res = mustExec(t, e, `SELECT sym, price, type FROM stocks WHERE type = 'TECH' ORDER BY sym`)
	if len(res.Rows) != 2 || res.Rows[0][1].Float != 21.0 || res.Rows[1][1].Float != 40.0 {
		t.Errorf("rows = %v", res.Rows)
	}
	// Values compute against the pre-update image (swap semantics).
	mustExec(t, e, `CREATE TABLE sw (a INT, b INT)`)
	mustExec(t, e, `INSERT INTO sw VALUES (1, 2)`)
	mustExec(t, e, `UPDATE sw SET a = b, b = a`)
	res = mustExec(t, e, `SELECT a, b FROM sw`)
	if res.Rows[0][0].Int != 2 || res.Rows[0][1].Int != 1 {
		t.Errorf("swap = %v", res.Rows[0])
	}
	// UPDATE without WHERE touches every row.
	res = mustExec(t, e, `UPDATE stocks SET price = 1.0`)
	if res.RowsAffected != 5 {
		t.Errorf("updated %d, want 5", res.RowsAffected)
	}
	// NULL assignment and int->float coercion.
	mustExec(t, e, `UPDATE stocks SET price = NULL WHERE sym = 'ACME'`)
	res = mustExec(t, e, `SELECT COUNT(*) FROM stocks WHERE price IS NULL`)
	if res.Rows[0][0].Int != 1 {
		t.Errorf("null update = %v", res.Rows)
	}
	mustExec(t, e, `UPDATE stocks SET price = 7 WHERE sym = 'GLOB'`)
	// UDFs are usable in SET and WHERE.
	mustExec(t, e, `CREATE FUNCTION hs(bytes) RETURNS int LANGUAGE jaguar AS $$
		func hs(h bytes) int {
			var a int = 0;
			for (var i int = 0; i < len(h); i = i + 1) { a = a + h[i]; }
			return a;
		}
	$$`)
	res = mustExec(t, e, `UPDATE stocks SET id = hs(history) WHERE hs(history) > 5`)
	if res.RowsAffected != 3 {
		t.Errorf("udf update affected %d, want 3", res.RowsAffected)
	}
}

func TestUpdateErrors(t *testing.T) {
	e := openEngine(t)
	seedStocks(t, e)
	cases := []string{
		`UPDATE nosuch SET x = 1`,
		`UPDATE stocks SET nosuch = 1`,
		`UPDATE stocks SET id = 'str'`,
		`UPDATE stocks SET id = 1, id = 2`,
		`UPDATE stocks SET id = 1 WHERE price`,
		`UPDATE stocks SET id = 1 / 0`,
	}
	for _, q := range cases {
		if _, err := e.Exec(q); err == nil {
			t.Errorf("query %q succeeded, want error", q)
		}
	}
}
