package engine

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"predator/internal/core"
	"predator/internal/obs"
	"predator/internal/types"
)

// seedFlightTable creates a table with enough rows that a per-row slow
// UDF keeps the statement alive long enough to be observed and killed.
func seedFlightTable(t *testing.T, e *Engine, rows int) {
	t.Helper()
	mustExec(t, e, `CREATE TABLE flt (x INT)`)
	var b strings.Builder
	b.WriteString(`INSERT INTO flt VALUES `)
	for i := 0; i < rows; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d)", i)
	}
	mustExec(t, e, b.String())
}

// liveQueryID polls the process list for a statement whose text
// contains needle, returning its query ID.
func liveQueryID(t *testing.T, needle string) uint64 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, x := range obs.Live.Snapshot() {
			if strings.Contains(x.Query, needle) {
				return x.ID
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("statement %q never appeared in the process list", needle)
	return 0
}

func TestKillCancelsRunningStatement(t *testing.T) {
	e := openEngine(t)
	seedFlightTable(t, e, 400)
	err := e.RegisterNative("flt_slow", []types.Kind{types.KindInt}, types.KindInt,
		func(ctx *core.Ctx, args []types.Value) (types.Value, error) {
			time.Sleep(5 * time.Millisecond)
			return args[0], nil
		})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := e.Exec(`SELECT flt_slow(x) FROM flt`)
		done <- err
	}()
	id := liveQueryID(t, "flt_slow")

	// While it runs, SHOW PROCESSLIST must surface it.
	res := mustExec(t, e, `SHOW PROCESSLIST`)
	found := false
	for _, r := range res.Rows {
		if r[0].Int == int64(id) {
			found = true
			if r[3].Str != "execute" {
				t.Errorf("phase = %q, want execute", r[3].Str)
			}
			if !strings.Contains(r[9].Str, "flt_slow") {
				t.Errorf("query column = %q", r[9].Str)
			}
		}
	}
	if !found {
		t.Fatalf("query %d missing from SHOW PROCESSLIST", id)
	}

	kres := mustExec(t, e, fmt.Sprintf("KILL %d", id))
	if !strings.Contains(kres.Message, fmt.Sprintf("query %d", id)) {
		t.Errorf("KILL message = %q", kres.Message)
	}

	qerr := <-done
	if core.FaultClassOf(qerr) != core.FaultCanceled {
		t.Fatalf("killed statement returned %v, want canceled fault", qerr)
	}
	if !strings.Contains(qerr.Error(), "KILL") {
		t.Errorf("error %q does not mention KILL", qerr)
	}
	if core.Retryable(qerr) {
		t.Error("KILL cancellation must not be retryable")
	}

	// The registry entry is gone: a repeat KILL is a clean error, and no
	// later statement inherits the flag.
	if _, err := e.Exec(fmt.Sprintf("KILL %d", id)); err == nil ||
		!strings.Contains(err.Error(), "not running") {
		t.Errorf("re-KILL after completion: %v, want not-running error", err)
	}
	if res, err := e.Exec(`SELECT flt_slow(x) FROM flt WHERE x < 3`); err != nil || len(res.Rows) != 3 {
		t.Fatalf("statement after KILL: %v", err)
	}

	// The killed execution is in the query store with an error status.
	killedRecorded := false
	for _, qr := range obs.History.Snapshot() {
		if qr.ID == id {
			killedRecorded = true
			if qr.Status != "error" {
				t.Errorf("killed statement history status = %q", qr.Status)
			}
		}
	}
	if !killedRecorded {
		t.Error("killed statement missing from SHOW HISTORY's store")
	}
}

func TestKillUnknownQueryErrors(t *testing.T) {
	e := openEngine(t)
	for _, q := range []string{"KILL 999999999", "KILL 0"} {
		if _, err := e.Exec(q); err == nil || !strings.Contains(err.Error(), "not running") {
			t.Errorf("%s: %v, want not-running error", q, err)
		}
	}
	if _, err := e.Exec("KILL banana"); err == nil {
		t.Error("KILL with a non-integer argument parsed")
	}
}

func TestShowHistoryRecordsExecutions(t *testing.T) {
	e := openEngine(t)
	seedStocks(t, e)
	mustExec(t, e, `SELECT sym FROM stocks WHERE price > 8.0`)

	res := mustExec(t, e, `SHOW HISTORY`)
	wantCols := []string{
		"query_id", "fingerprint", "tenant", "duration_seconds", "rows",
		"crossings", "child_cpu_seconds", "wal_bytes", "plan_seconds",
		"exec_seconds", "crossing_wait_seconds", "wal_fsync_seconds",
		"admission_wait_seconds", "status",
	}
	if res.Schema.Arity() != len(wantCols) {
		t.Fatalf("SHOW HISTORY arity = %d, want %d", res.Schema.Arity(), len(wantCols))
	}
	for i, name := range wantCols {
		if res.Schema.Columns[i].Name != name {
			t.Errorf("column %d = %q, want %q", i, res.Schema.Columns[i].Name, name)
		}
	}
	// The SELECT (normalized) is in the store, newest records first, with
	// plausible measurements.
	var hit types.Row
	for _, r := range res.Rows {
		if strings.Contains(r[1].Str, "stocks") && strings.Contains(r[1].Str, "price") {
			hit = r
			break
		}
	}
	if hit == nil {
		t.Fatalf("SELECT not found in SHOW HISTORY (%d rows)", len(res.Rows))
	}
	if hit[4].Int != 3 {
		t.Errorf("history rows = %d, want 3", hit[4].Int)
	}
	if hit[13].Str != "ok" {
		t.Errorf("history status = %q", hit[13].Str)
	}
	if hit[3].Float <= 0 {
		t.Errorf("duration_seconds = %v", hit[3].Float)
	}
	if hit[9].Float <= 0 {
		t.Errorf("exec_seconds = %v, want > 0", hit[9].Float)
	}
	// INSERTs force the WAL: some record carries wal_bytes.
	walSeen := false
	for _, r := range res.Rows {
		if r[7].Int > 0 {
			walSeen = true
		}
	}
	if !walSeen {
		t.Error("no history record shows WAL bytes after INSERTs")
	}
}

func TestShowTenantsSurfacesLedgers(t *testing.T) {
	e := openEngine(t)
	seedStocks(t, e)
	s := e.NewSession()
	s.BindTenant("flt_tenant")
	if _, err := s.Exec(`SELECT * FROM stocks`); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, e, `SHOW TENANTS`)
	wantCols := []string{"tenant", "sessions", "mem_bytes", "cpu_window_seconds", "cpu_total_seconds", "child_cpu_seconds"}
	for i, name := range wantCols {
		if res.Schema.Columns[i].Name != name {
			t.Errorf("column %d = %q, want %q", i, res.Schema.Columns[i].Name, name)
		}
	}
	found := false
	for _, r := range res.Rows {
		if r[0].Str == "flt_tenant" {
			found = true
			// Session slots are counted by the server's admission path,
			// not by engine-level binding: just require a sane value.
			if r[1].Int < 0 {
				t.Errorf("sessions = %d", r[1].Int)
			}
			if r[5].Float < 0 {
				t.Errorf("child_cpu_seconds = %v", r[5].Float)
			}
		}
	}
	if !found {
		t.Fatalf("tenant flt_tenant missing from SHOW TENANTS: %v", res.Rows)
	}
}

// TestAdmissionWaitFlowsIntoHistory pins the server→session→query-store
// plumbing: a noted admission wait is attributed to exactly the next
// statement and then consumed.
func TestAdmissionWaitFlowsIntoHistory(t *testing.T) {
	e := openEngine(t)
	mustExec(t, e, `CREATE TABLE aw (x INT)`)
	mustExec(t, e, `INSERT INTO aw VALUES (1)`)
	s := e.NewSession()
	s.NoteAdmissionWait(7 * time.Millisecond)
	if _, err := s.Exec(`SELECT x FROM aw`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`SELECT x FROM aw WHERE x = 1`); err != nil {
		t.Fatal(err)
	}
	var got []time.Duration
	for _, qr := range obs.History.Snapshot() {
		if qr.SessionID == s.ID() && strings.HasPrefix(qr.Query, "SELECT x FROM aw") {
			got = append(got, qr.Wait.AdmissionWait)
		}
	}
	if len(got) != 2 {
		t.Fatalf("found %d session statements in history, want 2", len(got))
	}
	// Snapshot is newest-first: got[1] is the first statement.
	if got[1] != 7*time.Millisecond {
		t.Errorf("first statement admission wait = %v, want 7ms", got[1])
	}
	if got[0] != 0 {
		t.Errorf("second statement admission wait = %v, want 0 (consumed)", got[0])
	}
}

// TestShowStatsSurfacesOverflowCounter: the statement-store overflow
// counter (500-shape guard on SHOW STATEMENTS) is visible to operators
// through SHOW STATS.
func TestShowStatsSurfacesOverflowCounter(t *testing.T) {
	e := openEngine(t)
	res := mustExec(t, e, `SHOW STATS`)
	for _, r := range res.Rows {
		if r[0].Str == "predator_statements_overflow_total" {
			return
		}
	}
	t.Fatal("predator_statements_overflow_total missing from SHOW STATS")
}

// TestShowProcesslistEmptyBetweenStatements: the registry drains — the
// only live entry while SHOW PROCESSLIST runs is itself.
func TestShowProcesslistSelfOnly(t *testing.T) {
	e := openEngine(t)
	res := mustExec(t, e, `SHOW PROCESSLIST`)
	if len(res.Rows) != 1 {
		t.Fatalf("process list has %d rows, want 1 (itself)", len(res.Rows))
	}
	if !strings.Contains(res.Rows[0][9].Str, "PROCESSLIST") {
		t.Errorf("self row query = %q", res.Rows[0][9].Str)
	}
}

// BenchmarkRecordingOverhead is the flight recorder's cost gate: the
// same scalar-UDF scan runs with per-statement recording on and off,
// interleaved on,off,off,on statement by statement so drift at any
// timescale hits both arms equally, and the p50 latency with recording
// on must stay within 3% of off. CI runs it once:
//
//	go test -run '^$' -bench BenchmarkRecordingOverhead -benchtime 1x ./internal/engine
func BenchmarkRecordingOverhead(b *testing.B) {
	const (
		rows  = 256
		stmts = 3000
	)
	e := openBlobs(b, Options{BufferPoolPages: 512}, rows)
	err := e.RegisterNative("blen", []types.Kind{types.KindBytes}, types.KindInt,
		func(ctx *core.Ctx, args []types.Value) (types.Value, error) {
			return types.NewInt(int64(len(args[0].Bytes))), nil
		})
	if err != nil {
		b.Fatal(err)
	}
	const query = `SELECT blen(ba) FROM blobs`
	// Recording is the production default; leave it on for whatever
	// runs next in this process.
	defer obs.EnableRecording(true)

	for i := 0; i < b.N; i++ {
		for j := 0; j < 16; j++ { // warm the pool and the plan path
			if _, err := e.Exec(query); err != nil {
				b.Fatal(err)
			}
		}
		samples := map[bool][]time.Duration{}
		for j := 0; j < stmts; j++ {
			on := j%4 == 0 || j%4 == 3
			obs.EnableRecording(on)
			start := time.Now()
			if _, err := e.Exec(query); err != nil {
				b.Fatal(err)
			}
			samples[on] = append(samples[on], time.Since(start))
		}
		p50 := func(ds []time.Duration) time.Duration {
			slices.Sort(ds)
			return ds[len(ds)/2]
		}
		onP50, offP50 := p50(samples[true]), p50(samples[false])
		ratio := float64(onP50) / float64(offP50)
		b.ReportMetric(ratio, "p50-on/off")
		if ratio > 1.03 {
			b.Fatalf("recording on: p50 %v is %.3fx off's %v, want <= 1.03x", onP50, ratio, offP50)
		}
	}
}
