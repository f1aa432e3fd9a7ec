package predator

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// The public-API surface, exercised the way an embedding program would
// use it.

func openDB(t *testing.T, opts ...Option) *DB {
	t.Helper()
	db, err := Open(filepath.Join(t.TempDir(), "api.db"), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestPublicQuickstartFlow(t *testing.T) {
	db := openDB(t)
	if _, err := db.Exec(`CREATE TABLE t (x INT, s STRING)`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(`INSERT INTO t VALUES (1, 'a'), (2, 'b')`)
	if err != nil || res.RowsAffected != 2 {
		t.Fatalf("insert: %v, %v", res, err)
	}
	res, err = db.Exec(`SELECT x, UPPER(s) FROM t WHERE x > 1`)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][1].Str != "B" {
		t.Fatalf("select: %v, %v", res, err)
	}
}

func TestPublicUDFRegistration(t *testing.T) {
	db := openDB(t)
	if _, err := db.Exec(`CREATE TABLE t (x INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (4)`); err != nil {
		t.Fatal(err)
	}
	// Native (Design 1).
	err := db.RegisterNativeUDF("sq", []Kind{KindInt}, KindInt,
		func(ctx *UDFContext, args []Value) (Value, error) {
			return NewInt(args[0].Int * args[0].Int), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	// SFI (BC++).
	err = db.RegisterSFIUDF("first", []Kind{KindBytes}, KindInt,
		func(ctx *UDFContext, args []Value) (Value, error) {
			cb := NewCheckedBytes(args[0].Bytes)
			if cb.Len() == 0 {
				return NewInt(-1), nil
			}
			b, err := cb.Get(0)
			if err != nil {
				return Value{}, err
			}
			return NewInt(int64(b)), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	// Jaguar (Design 3), programmatic.
	err = db.RegisterJaguarUDF("halve", `func halve(x int) int { return x / 2; }`,
		[]Kind{KindInt}, KindInt, false, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(`SELECT sq(x), halve(x), first(X'2A00') FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row[0].Int != 16 || row[1].Int != 2 || row[2].Int != 42 {
		t.Errorf("row = %s", row)
	}
}

func TestPublicResourceLimitsOption(t *testing.T) {
	db := openDB(t, WithUDFLimits(ResourceLimits{Fuel: 500}))
	if _, err := db.Exec(`CREATE TABLE t (x INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (1000000)`); err != nil {
		t.Fatal(err)
	}
	err := db.RegisterJaguarUDF("burn", `
		func burn(n int) int {
			var a int = 0;
			for (var i int = 0; i < n; i = i + 1) { a = a + i * i; }
			return a;
		}`, []Kind{KindInt}, KindInt, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`SELECT burn(x) FROM t`); err == nil || !strings.Contains(err.Error(), "fuel") {
		t.Errorf("fuel option not applied: %v", err)
	}
}

func TestPublicSecurityPolicyOption(t *testing.T) {
	policy := NewPolicy(PermCallback) // no log permission
	db := openDB(t, WithSecurityPolicy(policy))
	if _, err := db.Exec(`CREATE TABLE t (x INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	err := db.RegisterJaguarUDF("chatty", `
		func chatty(x int) int { log("hello"); return x; }`,
		[]Kind{KindInt}, KindInt, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`SELECT chatty(x) FROM t`); err == nil {
		t.Error("log permission not denied")
	}
	if audit := policy.Audit(); len(audit) == 0 || !audit[0].Denied {
		t.Errorf("no audit: %+v", audit)
	}
}

func TestPublicObjectStore(t *testing.T) {
	db := openDB(t)
	h := db.PutObject([]byte{1, 2, 3, 4})
	if _, err := db.Exec(`CREATE TABLE t (h INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(fmt.Sprintf(`INSERT INTO t VALUES (%d)`, h)); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterJaguarUDF("osz", `func osz(h int) int { return cb_size(h); }`,
		[]Kind{KindInt}, KindInt, false, false); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(`SELECT osz(h) FROM t`)
	if err != nil || res.Rows[0][0].Int != 4 {
		t.Fatalf("osz = %v, %v", res, err)
	}
	db.RemoveObject(h)
	if _, err := db.Exec(`SELECT osz(h) FROM t`); err == nil {
		t.Error("removed object still served")
	}
}

func TestPublicServerClient(t *testing.T) {
	db := openDB(t)
	srv := NewServer(db, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Server owns the DB now; don't double-close through the fixture.
	defer srv.Close()
	cl, err := Dial(addr, "apitest")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Exec(`CREATE TABLE r (v INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec(`INSERT INTO r VALUES (11), (22)`); err != nil {
		t.Fatal(err)
	}
	// Client-side compile + local test + migrate.
	spec := UDFSpec{
		Name:   "neg",
		Source: `func neg(x int) int { return -x; }`,
		Args:   []Kind{KindInt},
		Return: KindInt,
	}
	cls, err := cl.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := cl.TestLocally(spec, cls, []Value{NewInt(5)}, nil)
	if err != nil || out.Int != -5 {
		t.Fatalf("local: %v, %v", out, err)
	}
	if err := cl.Register(spec, cls); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Exec(`SELECT neg(v) FROM r ORDER BY v`)
	if err != nil || len(res.Rows) != 2 || res.Rows[0][0].Int != -11 {
		t.Fatalf("remote: %v, %v", res, err)
	}
}

func TestPublicCompileJaguar(t *testing.T) {
	data, err := CompileJaguar(`func f(x int) int { return x + 1; }`, "Pub")
	if err != nil || len(data) == 0 {
		t.Fatalf("compile: %d bytes, %v", len(data), err)
	}
	if _, err := CompileJaguar(`func f(x int) int { return y; }`, "Bad"); err == nil {
		t.Error("bad source compiled")
	}
}

func TestPublicPersistentUDFsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "persist.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE t (x INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (6)`); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterJaguarUDF("tw", `func tw(x int) int { return 2 * x; }`,
		[]Kind{KindInt}, KindInt, false, true); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res, err := db2.Exec(`SELECT tw(x) FROM t`)
	if err != nil || res.Rows[0][0].Int != 12 {
		t.Fatalf("persisted UDF: %v, %v", res, err)
	}
}
