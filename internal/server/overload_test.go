package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"predator/internal/client"
	"predator/internal/core"
	"predator/internal/engine"
	"predator/internal/frame"
	"predator/internal/isolate"
	"predator/internal/obs"
	"predator/internal/types"
	"predator/internal/wire"
)

// startSrv is startServerWith but also hands back the *Server so tests
// can exercise Shutdown directly.
func startSrv(t *testing.T, opts Options, eopts engine.Options) (srv *Server, addr string, eng *engine.Engine) {
	t.Helper()
	eng, err := engine.Open(filepath.Join(t.TempDir(), "srv.db"), eopts)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	srv = New(eng, opts)
	addr, err = srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr, eng
}

func TestQueryGateShedsRetryable(t *testing.T) {
	_, addr, eng := startSrv(t, Options{MaxConcurrentQueries: 1}, engine.Options{})
	release := make(chan struct{})
	entered := make(chan struct{}, 4)
	err := eng.RegisterNative("blockq", []types.Kind{types.KindInt}, types.KindInt,
		func(ctx *core.Ctx, args []types.Value) (types.Value, error) {
			entered <- struct{}{}
			<-release
			return args[0], nil
		})
	if err != nil {
		t.Fatal(err)
	}
	clA := dial(t, addr)
	if _, err := clA.Exec(`CREATE TABLE n (x INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := clA.Exec(`INSERT INTO n VALUES (7)`); err != nil {
		t.Fatal(err)
	}
	shedsBefore := obs.Default.Counter("predator_server_admission_shed_total", "gate", "queries").Value()
	type outcome struct {
		res *client.Result
		err error
	}
	got := make(chan outcome, 1)
	go func() {
		res, err := clA.Exec(`SELECT blockq(x) FROM n`)
		got <- outcome{res, err}
	}()
	<-entered // the only query slot is now held
	clB := dial(t, addr)
	_, err = clB.Exec(`SELECT x FROM n`)
	if err == nil {
		t.Fatal("query admitted over MaxConcurrentQueries")
	}
	if !client.IsRetryable(err) {
		t.Fatalf("shed query error not retryable: %v", err)
	}
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != "overload" {
		t.Fatalf("shed query error = %v, want overload code", err)
	}
	close(release)
	out := <-got
	if out.err != nil || out.res.Rows[0][0].Int != 7 {
		t.Fatalf("admitted query broken by shedding: %v, %v", out.res, out.err)
	}
	// The slot is free again; the shed client retries successfully.
	if _, err := clB.Exec(`SELECT x FROM n`); err != nil {
		t.Fatalf("retry after shed failed: %v", err)
	}
	sheds := obs.Default.Counter("predator_server_admission_shed_total", "gate", "queries").Value()
	if sheds <= shedsBefore {
		t.Errorf("shed counter did not move: %d -> %d", shedsBefore, sheds)
	}
}

func TestConnCapTypedShed(t *testing.T) {
	_, addr, _ := startSrv(t, Options{MaxConns: 1}, engine.Options{})
	cl1 := dial(t, addr)
	if err := cl1.Ping(); err != nil {
		t.Fatal(err)
	}
	_, err := client.Dial(addr, "second")
	if err == nil {
		t.Fatal("dial over MaxConns succeeded")
	}
	if !client.IsRetryable(err) {
		t.Fatalf("conn-cap rejection not retryable: %v", err)
	}
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != "overload" {
		t.Fatalf("conn-cap rejection code = %v", err)
	}
	// Closing the admitted connection frees the slot (asynchronously,
	// when its goroutine exits).
	cl1.Close()
	deadline := time.Now().Add(3 * time.Second)
	for {
		cl2, err := client.Dial(addr, "third")
		if err == nil {
			cl2.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("conn slot never freed: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSessionCapPerUser(t *testing.T) {
	_, addr, _ := startSrv(t, Options{MaxSessionsPerUser: 1}, engine.Options{})
	a1, err := client.Dial(addr, "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer a1.Close()
	// A second alice is over the per-tenant cap: typed, retryable.
	_, err = client.Dial(addr, "alice")
	if err == nil {
		t.Fatal("second alice session admitted over cap")
	}
	if !client.IsRetryable(err) || !strings.Contains(err.Error(), "sessions") {
		t.Fatalf("session-cap rejection = %v", err)
	}
	// Other tenants are unaffected.
	b, err := client.Dial(addr, "bob")
	if err != nil {
		t.Fatalf("bob blocked by alice's cap: %v", err)
	}
	b.Close()
	// Alice's slot frees when her connection goes away.
	a1.Close()
	deadline := time.Now().Add(3 * time.Second)
	for {
		a2, err := client.Dial(addr, "alice")
		if err == nil {
			a2.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("alice session slot never freed: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPanicReleasesQuerySlot is the regression test for the admission
// slot leak: a statement that panics (a misbehaving in-process UDF) is
// recovered by handle, and must still return its MaxConcurrentQueries
// slot and in-flight gauge decrement — otherwise every panic would
// permanently shrink query capacity until the server sheds all work.
func TestPanicReleasesQuerySlot(t *testing.T) {
	_, addr, eng := startSrv(t, Options{MaxConcurrentQueries: 1}, engine.Options{})
	err := eng.RegisterNative("boom", []types.Kind{types.KindInt}, types.KindInt,
		func(ctx *core.Ctx, args []types.Value) (types.Value, error) {
			panic("udf gone rogue")
		})
	if err != nil {
		t.Fatal(err)
	}
	inBefore := obs.Default.Gauge("predator_server_queries_in_flight").Value()
	cl := dial(t, addr)
	if _, err := cl.Exec(`CREATE TABLE n (x INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec(`INSERT INTO n VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	// With a single query slot, leaking it even once would shed every
	// statement after the first panic.
	for i := 0; i < 3; i++ {
		if _, err := cl.Exec(`SELECT boom(x) FROM n`); err == nil {
			t.Fatal("panicking UDF reported success")
		}
	}
	if _, err := cl.Exec(`SELECT x FROM n`); err != nil {
		t.Fatalf("query slot leaked by panicking statements: %v", err)
	}
	if in := obs.Default.Gauge("predator_server_queries_in_flight").Value(); in != inBefore {
		t.Errorf("in-flight gauge leaked: %d -> %d", inBefore, in)
	}
}

// TestSessionCapRefusalClosesConn is the regression test for the
// session-cap bypass: a client whose hello is refused under
// MaxSessionsPerUser must be disconnected, not left bound to the
// tenant where it could keep issuing statements without holding a
// session slot.
func TestSessionCapRefusalClosesConn(t *testing.T) {
	_, addr, _ := startSrv(t, Options{MaxSessionsPerUser: 1}, engine.Options{})
	a1, err := client.Dial(addr, "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer a1.Close()
	// Raw wire client that ignores the hello refusal.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := wire.NewConn(nc)
	if err := c.Send(wire.MsgHello, frame.AppendString(nil, "alice")); err != nil {
		t.Fatal(err)
	}
	typ, _, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.MsgError {
		t.Fatalf("over-cap hello got frame 0x%02x, want MsgError", typ)
	}
	// Ignore the refusal and try to run a statement anyway: the server
	// must have hung up, so no result frame may ever come back.
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	c.Send(wire.MsgQuery, frame.AppendString(nil, `SELECT 1`))
	if typ, _, err := c.Recv(); err == nil {
		t.Fatalf("refused session still served a statement (frame 0x%02x)", typ)
	}
}

func TestShutdownDrainsAckedResults(t *testing.T) {
	srv, addr, eng := startSrv(t, Options{}, engine.Options{})
	started := make(chan struct{}, 8)
	err := eng.RegisterNative("pause", []types.Kind{types.KindInt}, types.KindInt,
		func(ctx *core.Ctx, args []types.Value) (types.Value, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			time.Sleep(150 * time.Millisecond)
			return args[0], nil
		})
	if err != nil {
		t.Fatal(err)
	}
	clA := dial(t, addr)
	if _, err := clA.Exec(`CREATE TABLE n (x INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := clA.Exec(`INSERT INTO n VALUES (1), (2), (3)`); err != nil {
		t.Fatal(err)
	}
	clB := dial(t, addr) // connected before the drain begins
	type outcome struct {
		res *client.Result
		err error
	}
	got := make(chan outcome, 1)
	go func() {
		res, err := clA.Exec(`SELECT pause(x) FROM n`)
		got <- outcome{res, err}
	}()
	<-started // the statement is in flight
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shErr := make(chan error, 1)
	go func() { shErr <- srv.Shutdown(ctx) }()
	time.Sleep(50 * time.Millisecond) // draining is now set
	// New statements during the drain are refused, typed and retryable.
	if _, err := clB.Exec(`SELECT x FROM n`); err == nil {
		t.Error("statement admitted during drain")
	} else if !client.IsRetryable(err) || !strings.Contains(err.Error(), "draining") {
		t.Errorf("drain refusal = %v", err)
	}
	// The in-flight statement finishes and its full result is acked:
	// zero acknowledged-result loss.
	out := <-got
	if out.err != nil || len(out.res.Rows) != 3 {
		t.Fatalf("in-flight statement lost to drain: %v, %v", out.res, out.err)
	}
	if err := <-shErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The server is really gone.
	if _, err := client.Dial(addr, "late"); err == nil {
		t.Error("dial succeeded after Shutdown")
	}
}

// TestCloseAcceptHammer is the regression test for the accept/shutdown
// race: connections accepted at the same instant Close runs must either
// be served or closed, never leaked past wg.Wait or left to register
// after the conns map has been swept. Run with -race.
func TestCloseAcceptHammer(t *testing.T) {
	for i := 0; i < 6; i++ {
		eng, err := engine.Open(filepath.Join(t.TempDir(), fmt.Sprintf("h%d.db", i)), engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv := New(eng, Options{Logf: func(string, ...any) {}})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for d := 0; d < 6; d++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 50; j++ {
					cl, err := client.Dial(addr, "hammer")
					if err != nil {
						return // server gone
					}
					cl.Ping()
					cl.Close()
				}
			}()
		}
		// Two racing closers, offset into the dial storm.
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				time.Sleep(time.Duration(1+i+n) * time.Millisecond)
				if err := srv.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			}(c)
		}
		wg.Wait()
	}
}

// TestOverloadChaosMultiTenant is the acceptance chaos test: a mixed
// multi-tenant workload at 16× query over-admission, run under every
// wire fault in the matrix, with one tenant tripping its memory quota
// and another crash-looping an isolated UDF until its breaker opens.
// Quiet tenants may only ever observe success, retryable shedding,
// timeouts, or injected network failures — never another tenant's
// quota or executor trouble — and when the storm passes, all reserved
// memory is back to zero and the broken UDF heals through the
// breaker's half-open probe.
func TestOverloadChaosMultiTenant(t *testing.T) {
	flag := filepath.Join(t.TempDir(), "crash.flag")
	if err := os.WriteFile(flag, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, addr, eng := startSrv(t, Options{
		MaxConns:             64,
		MaxConcurrentQueries: 2,
		AdmissionWait:        time.Millisecond,
		StatementTimeout:     2 * time.Second,
	}, engine.Options{Supervision: isolate.Supervision{
		MaxRestarts:     1000,
		RestartBackoff:  time.Millisecond,
		BreakerFailures: 3,
		BreakerWindow:   10 * time.Second,
		BreakerCooldown: 50 * time.Millisecond,
	}})
	if err := eng.RegisterNativeIsolated("iso_flaky", []types.Kind{types.KindString}, types.KindInt); err != nil {
		t.Fatal(err)
	}
	setup := dial(t, addr)
	if _, err := setup.Exec(`CREATE TABLE wide (id INT, pad STRING)`); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("p", 512)
	for i := 0; i < 32; i++ {
		if _, err := setup.Exec(fmt.Sprintf(`INSERT INTO wide VALUES (%d, '%s')`, i, pad)); err != nil {
			t.Fatal(err)
		}
	}
	// The noisy tenant's ceiling: 32 rows × ~528 B ≈ 17 KiB of scan
	// against a 4 KiB quota trips every full scan.
	ncl, err := client.Dial(addr, "noisy")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ncl.Exec(`SET quota_memory = 4096`); err != nil {
		t.Fatal(err)
	}
	ncl.Close()

	var mu sync.Mutex
	counts := map[string]int{} // class -> count, across all workers
	var violations []string
	record := func(user, class string, err error) {
		mu.Lock()
		defer mu.Unlock()
		counts[user+"/"+class]++
		counts[class]++
		if strings.HasPrefix(user, "quiet") && err != nil {
			// Cross-tenant leakage check: a quiet tenant must never see
			// quota or executor errors, nor any mention of the tenants
			// causing them.
			msg := err.Error()
			if class == "quota" || class == "server:executor" ||
				strings.Contains(msg, "noisy") || strings.Contains(msg, "crasher") {
				violations = append(violations, user+": "+msg)
			}
		}
	}
	classify := func(err error) string {
		if err == nil {
			return "ok"
		}
		var se *client.ServerError
		if errors.As(err, &se) {
			if se.Retryable {
				return "retryable"
			}
			if se.Code != "" {
				return "server:" + se.Code
			}
			return "server:unclassified"
		}
		return "net" // injected wire faults, closed conns
	}
	// Rename quota class for readability in assertions.
	classOf := func(err error) string {
		c := classify(err)
		if c == "server:quota" {
			return "quota"
		}
		return c
	}

	worker := func(user, query string, dur time.Duration, wg *sync.WaitGroup) {
		defer wg.Done()
		deadline := time.Now().Add(dur)
		var cl *client.Client
		defer func() {
			if cl != nil {
				cl.Close()
			}
		}()
		for time.Now().Before(deadline) {
			if cl == nil {
				c, err := client.Dial(addr, user)
				if err != nil {
					record(user, classOf(err), err)
					time.Sleep(2 * time.Millisecond)
					continue
				}
				cl = c
			}
			_, err := cl.Exec(query)
			record(user, classOf(err), err)
			if classOf(err) == "net" {
				cl.Close()
				cl = nil
			}
		}
	}

	// 32 workers against 2 query slots: 16× over-admission. Six fault
	// phases: clean, slow sends, partial frames, dropped sends, dropped
	// recvs, stalled recvs.
	faults := []string{
		"",
		"wiresend:stall:2ms",
		"wiresend:partial:4",
		"wiresend:disconnect:4",
		"wirerecv:disconnect:4",
		"wirerecv:stall:2ms",
	}
	crasherQuery := fmt.Sprintf(`SELECT iso_flaky('%s') FROM wide WHERE id < 2`, flag)
	for _, spec := range faults {
		clear := wire.InjectFault(spec)
		var wg sync.WaitGroup
		for w := 0; w < 28; w++ {
			wg.Add(1)
			go worker(fmt.Sprintf("quiet%d", w%4), `SELECT * FROM wide WHERE id < 4`, 150*time.Millisecond, &wg)
		}
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go worker("noisy", `SELECT * FROM wide`, 150*time.Millisecond, &wg)
		}
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go worker("crasher", crasherQuery, 150*time.Millisecond, &wg)
		}
		wg.Wait()
		clear()
	}

	mu.Lock()
	snapshot := map[string]int{}
	for k, v := range counts {
		snapshot[k] = v
	}
	leaks := append([]string(nil), violations...)
	mu.Unlock()

	if len(leaks) > 0 {
		t.Fatalf("cross-tenant error leakage (%d):\n%s", len(leaks), strings.Join(leaks, "\n"))
	}
	if snapshot["ok"] == 0 {
		t.Fatal("no query ever succeeded under chaos")
	}
	if snapshot["retryable"] == 0 {
		t.Error("16x over-admission never shed a query with a retryable error")
	}
	if snapshot["noisy/quota"] == 0 {
		t.Error("noisy tenant never tripped its memory quota")
	}
	if got := snapshot["quiet0/quota"] + snapshot["quiet1/quota"] + snapshot["quiet2/quota"] + snapshot["quiet3/quota"]; got != 0 {
		t.Errorf("quiet tenants saw %d quota errors", got)
	}
	// The crasher's breaker opened: after enough executor crashes the
	// shed path (retryable overload naming the breaker) took over.
	if opens := obs.Default.Counter("predator_udf_breaker_opens_total", "udf", "iso_flaky").Value(); opens == 0 {
		t.Error("crash-looping UDF never opened its breaker")
	}
	// Bounded memory: every tenant's reservations drained back to zero.
	done := time.Now().Add(3 * time.Second)
	for {
		leaked := int64(0)
		for _, ten := range eng.Governor().Tenants() {
			leaked += ten.MemInUse()
		}
		if leaked == 0 {
			break
		}
		if time.Now().After(done) {
			t.Fatalf("%d bytes still reserved after the storm", leaked)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Healing: remove the flag; the half-open probe re-admits the UDF.
	if err := os.Remove(flag); err != nil {
		t.Fatal(err)
	}
	hcl, err := client.Dial(addr, "crasher")
	if err != nil {
		t.Fatal(err)
	}
	defer hcl.Close()
	healed := time.Now().Add(10 * time.Second)
	for {
		if _, err := hcl.Exec(crasherQuery); err == nil {
			break
		}
		if time.Now().After(healed) {
			t.Fatal("breaker never recovered after the crash loop ended")
		}
		time.Sleep(25 * time.Millisecond)
	}
}
