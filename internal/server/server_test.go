package server

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"predator/internal/client"
	"predator/internal/engine"
	"predator/internal/types"
)

// startServer spins up an engine + server on a free port.
func startServer(t *testing.T) (addr string) {
	t.Helper()
	eng, err := engine.Open(filepath.Join(t.TempDir(), "srv.db"), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Options{Logf: func(string, ...any) {}})
	addr, err = srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	cl, err := client.Dial(addr, "tester")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func TestQueryRoundTrip(t *testing.T) {
	addr := startServer(t)
	cl := dial(t, addr)
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec(`CREATE TABLE t (id INT, name STRING, data BYTES)`); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Exec(`INSERT INTO t VALUES (1, 'alpha', X'AABB'), (2, 'beta', NULL)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 2 {
		t.Errorf("affected = %d", res.RowsAffected)
	}
	res, err = cl.Exec(`SELECT id, name, data FROM t ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1].Str != "alpha" {
		t.Errorf("rows = %v", res.Rows)
	}
	if string(res.Rows[0][2].Bytes) != "\xaa\xbb" {
		t.Errorf("bytes round trip broken: %x", res.Rows[0][2].Bytes)
	}
	if !res.Rows[1][2].IsNull() {
		t.Error("NULL lost on the wire")
	}
	if res.Schema.Columns[1].Kind != types.KindString {
		t.Errorf("schema on wire: %s", res.Schema)
	}
}

func TestServerErrorsPropagate(t *testing.T) {
	addr := startServer(t)
	cl := dial(t, addr)
	_, err := cl.Exec(`SELECT * FROM missing`)
	if err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Errorf("err = %v", err)
	}
	// The session survives an error.
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestUDFMigrationWorkflow(t *testing.T) {
	addr := startServer(t)
	cl := dial(t, addr)
	if _, err := cl.Exec(`CREATE TABLE readings (v INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec(`INSERT INTO readings VALUES (3), (6), (9)`); err != nil {
		t.Fatal(err)
	}
	spec := client.UDFSpec{
		Name:   "celsius",
		Source: `func celsius(f int) int { return (f - 32) * 5 / 9; }`,
		Args:   []types.Kind{types.KindInt},
		Return: types.KindInt,
	}
	// 1. Compile locally.
	classBytes, err := cl.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	// 2. Test locally in the client's own VM.
	out, err := cl.TestLocally(spec, classBytes, []types.Value{types.NewInt(212)}, nil)
	if err != nil || out.Int != 100 {
		t.Fatalf("local test: %v, %v", out, err)
	}
	// 3. Migrate to the server; same bytes now run server-side.
	if err := cl.Register(spec, classBytes); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Exec(`SELECT celsius(v) FROM readings ORDER BY v`)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{(3 - 32) * 5 / 9, (6 - 32) * 5 / 9, (9 - 32) * 5 / 9}
	for i, w := range want {
		if res.Rows[i][0].Int != w {
			t.Errorf("row %d = %s, want %d", i, res.Rows[i][0], w)
		}
	}
}

func TestFetchClassDownload(t *testing.T) {
	addr := startServer(t)
	cl := dial(t, addr)
	spec := client.UDFSpec{
		Name:    "twice",
		Source:  `func twice(x int) int { return 2 * x; }`,
		Args:    []types.Kind{types.KindInt},
		Return:  types.KindInt,
		Persist: true,
	}
	if err := cl.CreateUDF(spec); err != nil {
		t.Fatal(err)
	}
	// Another client downloads the class and runs it locally.
	cl2 := dial(t, addr)
	classBytes, args, ret, err := cl2.FetchClass("twice")
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 1 || args[0] != types.KindInt || ret != types.KindInt {
		t.Errorf("signature = %v -> %v", args, ret)
	}
	out, err := cl2.TestLocally(client.UDFSpec{Name: "twice", Return: ret}, classBytes,
		[]types.Value{types.NewInt(21)}, nil)
	if err != nil || out.Int != 42 {
		t.Errorf("downloaded class: %v, %v", out, err)
	}
}

func TestCorruptUploadRejected(t *testing.T) {
	addr := startServer(t)
	cl := dial(t, addr)
	err := cl.Register(client.UDFSpec{
		Name: "evil", Args: nil, Return: types.KindInt,
	}, []byte("not a class file"))
	if err == nil {
		t.Fatal("corrupt class accepted by server")
	}
	// Malformed-but-decodable classes must fail verification.
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestPutObjectAndCallbacks(t *testing.T) {
	addr := startServer(t)
	cl := dial(t, addr)
	obj := make([]byte, 500)
	for i := range obj {
		obj[i] = byte(i)
	}
	h, err := cl.PutObject(obj)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec(`CREATE TABLE objs (h INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec(fmt.Sprintf(`INSERT INTO objs VALUES (%d)`, h)); err != nil {
		t.Fatal(err)
	}
	if err := cl.CreateUDF(client.UDFSpec{
		Name:   "osize",
		Source: `func osize(h int) int { return cb_size(h); }`,
		Args:   []types.Kind{types.KindInt},
		Return: types.KindInt,
	}); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Exec(`SELECT osize(h) FROM objs`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 500 {
		t.Errorf("osize = %s", res.Rows[0][0])
	}
}

func TestConcurrentClients(t *testing.T) {
	addr := startServer(t)
	setup := dial(t, addr)
	if _, err := setup.Exec(`CREATE TABLE c (x INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Exec(`INSERT INTO c VALUES (1), (2), (3), (4), (5)`); err != nil {
		t.Fatal(err)
	}
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl, err := client.Dial(addr, fmt.Sprintf("user%d", id))
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for j := 0; j < 20; j++ {
				res, err := cl.Exec(`SELECT COUNT(*) FROM c`)
				if err != nil {
					errs <- err
					return
				}
				if res.Rows[0][0].Int != 5 {
					errs <- fmt.Errorf("client %d saw %d rows", id, res.Rows[0][0].Int)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// Received payloads alias each connection's reusable receive buffer, on
// the server and on the client. Whatever outlives a frame must be
// copied out of it: an object and a class kept by the server, the class
// bytes FetchClass hands back and the rows of a result. Same-size
// frames with other bytes overwrite both buffers in place, so a kept
// zero-copy slice shows up here as changed bytes.
func TestReceiveBufferNotAliased(t *testing.T) {
	cl := dial(t, startServer(t))
	spec := client.UDFSpec{
		Name:   "oread",
		Source: `func oread(h int) bytes { return cb_read(h, 0, cb_size(h)); }`,
		Args:   []types.Kind{types.KindInt},
		Return: types.KindBytes,
	}
	class, err := cl.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	obj := make([]byte, len(class)+256)
	for i := range obj {
		obj[i] = byte(i * 7)
	}
	h, err := cl.PutObject(obj)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Register(spec, bytes.Clone(class)); err != nil {
		t.Fatal(err)
	}
	// A frame as large as either upload, with other bytes: it lands in
	// the server's receive buffer where the object and the class were.
	other, err := cl.PutObject(bytes.Repeat([]byte{0xEE}, len(obj)))
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range []string{`CREATE TABLE objs (h INT)`, fmt.Sprintf(`INSERT INTO objs VALUES (%d), (%d)`, h, other)} {
		if _, err := cl.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	res, err := cl.Exec(fmt.Sprintf(`SELECT oread(h) FROM objs WHERE h = %d`, h))
	if err != nil {
		t.Fatal(err)
	}
	fetched, _, _, err := cl.FetchClass("oread")
	if err != nil {
		t.Fatal(err)
	}
	// A same-size result with other bytes: it lands in the client's
	// receive buffer where the first result and the class were.
	if _, err := cl.Exec(fmt.Sprintf(`SELECT oread(h) FROM objs WHERE h = %d`, other)); err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Bytes; !bytes.Equal(got, obj) {
		t.Errorf("object read back through a callback differs from the upload (%d bytes, want %d)", len(got), len(obj))
	}
	if !bytes.Equal(fetched, class) {
		t.Errorf("fetched class differs from the registered one (%d bytes, want %d)", len(fetched), len(class))
	}
}
