package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"predator/internal/obs"
	"predator/internal/types"
)

// TestExplainAnalyzeShowsChildSpans is the tentpole acceptance check:
// an EXPLAIN ANALYZE over an isolated UDF must surface spans recorded
// inside the executor process (shipped back over the wire and merged),
// not just parent-side aggregates.
func TestExplainAnalyzeShowsChildSpans(t *testing.T) {
	e := openEngine(t)
	seedWide(t, e, 50)
	if err := e.RegisterNativeIsolated("iso_double", []types.Kind{types.KindInt}, types.KindInt); err != nil {
		t.Fatal(err)
	}
	plan := mustExec(t, e, `EXPLAIN ANALYZE SELECT iso_double(id) FROM wide WHERE id < 20`).Plan
	if !strings.Contains(plan, "child/invoke") {
		t.Fatalf("EXPLAIN ANALYZE missing child-side span:\n%s", plan)
	}
	if !strings.Contains(plan, "child/setup") {
		t.Errorf("EXPLAIN ANALYZE missing child setup span:\n%s", plan)
	}
	// Child spans render as aggregated events with call counts: 20 rows
	// cross as 2 batched invokes.
	if !regexp.MustCompile(`child/invoke: 2 calls`).MatchString(plan) {
		t.Errorf("child/invoke call count wrong:\n%s", plan)
	}
}

// chromeDoc is the subset of the Chrome trace-event JSON the tests
// inspect.
type chromeDoc struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
	} `json:"traceEvents"`
	Metadata map[string]string `json:"metadata"`
}

func TestSetTraceExportsChromeJSON(t *testing.T) {
	e := openEngine(t)
	seedWide(t, e, 50)
	if err := e.RegisterNativeIsolated("iso_double", []types.Kind{types.KindInt}, types.KindInt); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "query.json")
	sess := e.NewSession()
	if _, err := sess.Exec(fmt.Sprintf(`SET TRACE = '%s'`, path)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(`SELECT iso_double(id) FROM wide WHERE id < 20`); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(`SET TRACE = 'off'`); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid Chrome trace-event JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	pids := map[int]bool{}
	var sawChild, sawParent bool
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %q ph=%q, want X", ev.Name, ev.Ph)
		}
		pids[ev.PID] = true
		if strings.HasPrefix(ev.Name, "child/") {
			sawChild = true
			if ev.PID == os.Getpid() {
				t.Errorf("child span %q attributed to the parent pid", ev.Name)
			}
		}
		if ev.Name == "execute" || ev.Name == "plan" {
			sawParent = true
		}
	}
	if len(pids) < 2 {
		t.Fatalf("want events from both processes, got pids %v", pids)
	}
	if !sawChild || !sawParent {
		t.Fatalf("want spans from both sides (child=%v parent=%v)", sawChild, sawParent)
	}
	if doc.Metadata["trace_id"] == "" {
		t.Error("missing trace_id metadata")
	}
}

func TestSetTraceOnNeedsTraceDir(t *testing.T) {
	e := openEngine(t) // no TraceDir configured
	sess := e.NewSession()
	if _, err := sess.Exec(`SET TRACE = 'on'`); err == nil {
		t.Fatal("SET TRACE = 'on' without a trace directory should fail")
	}

	dir := t.TempDir()
	e2, err := Open(filepath.Join(t.TempDir(), "t.db"), Options{TraceDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	s2 := e2.NewSession()
	if _, err := s2.Exec(`CREATE TABLE t (id INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Exec(`SET TRACE = 'on'`); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Exec(`SELECT id FROM t`); err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(dir, fmt.Sprintf("trace-%d-1.json", s2.ID()))
	if _, err := os.Stat(want); err != nil {
		t.Fatalf("auto-named trace not written: %v", err)
	}
}

func TestShowStatementsAggregatesFingerprint(t *testing.T) {
	e := openEngine(t)
	mustExec(t, e, `CREATE TABLE stmtagg (id INT, v INT)`)
	mustExec(t, e, `INSERT INTO stmtagg VALUES (1, 10), (2, 20), (3, 30)`)
	// SHOW STATEMENTS reads a process-wide store, so an earlier run in
	// the same process may already have counted this fingerprint:
	// compare this run's change.
	want := "SELECT v FROM stmtagg WHERE id < ?"
	calls0, rows0, _ := statementRow(t, e, want)
	// Two executions differing only in the literal must land in one
	// SHOW STATEMENTS row.
	mustExec(t, e, `SELECT v FROM stmtagg WHERE id < 2`)
	mustExec(t, e, `SELECT v FROM stmtagg WHERE id < 3000`)

	calls, rows, found := statementRow(t, e, want)
	if !found {
		t.Fatalf("fingerprint %q not in SHOW STATEMENTS", want)
	}
	if calls-calls0 != 2 {
		t.Errorf("calls grew by %d, want 2", calls-calls0)
	}
	// Rows column: 1 row (id<2) + 3 rows (id<3000).
	if rows-rows0 != 4 {
		t.Errorf("rows grew by %d, want 4", rows-rows0)
	}
}

// statementRow reads one fingerprint's calls and rows from SHOW
// STATEMENTS (zeros when it is not listed yet).
func statementRow(t *testing.T, e *Engine, fingerprint string) (calls, rows int64, found bool) {
	t.Helper()
	res := mustExec(t, e, `SHOW STATEMENTS`)
	cols := res.Schema.Columns
	if cols[0].Name != "fingerprint" || cols[1].Name != "calls" || cols[6].Name != "rows" {
		t.Fatalf("schema: %v", cols)
	}
	for _, r := range res.Rows {
		if r[0].Str == fingerprint {
			return r[1].Int, r[6].Int, true
		}
	}
	return 0, 0, false
}

func TestSlowQueryLogStructured(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	h := slog.NewJSONHandler(&lockedWriter{mu: &mu, w: &buf}, nil)
	obs.SetLogger(slog.New(h))
	defer obs.SetLogger(nil)

	e, err := Open(filepath.Join(t.TempDir(), "t.db"), Options{SlowQuery: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	sess := e.NewSession()
	if _, err := sess.Exec(`CREATE TABLE slowq (id INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(`SELECT id FROM slowq WHERE id = 42`); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	var rec map[string]any
	var found bool
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line == "" || !strings.Contains(line, "slow query") {
			continue
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("slow-query log line is not JSON: %v\n%s", err, line)
		}
		found = true
	}
	if !found {
		t.Fatalf("no slow-query log line emitted:\n%s", out)
	}
	if rec["query"] != "SELECT id FROM slowq WHERE id = 42" {
		t.Errorf("query field = %v", rec["query"])
	}
	if rec["fingerprint"] != "SELECT id FROM slowq WHERE id = ?" {
		t.Errorf("fingerprint field = %v", rec["fingerprint"])
	}
	if sess, ok := rec["session"].(float64); !ok || sess <= 0 {
		t.Errorf("session field = %v", rec["session"])
	}
	if rec["component"] != "engine" {
		t.Errorf("component field = %v", rec["component"])
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestMetricsUnderConcurrentLoad scrapes the /metrics surface while 8
// sessions hammer isolated-UDF queries: every scrape must be
// well-formed (no torn lines) and the statement counter must be
// monotone across scrapes. Run with -race, this also exercises the
// registry's concurrency safety end to end.
func TestMetricsUnderConcurrentLoad(t *testing.T) {
	e := openEngine(t)
	seedWide(t, e, 64)
	if err := e.RegisterNativeIsolated("iso_double", []types.Kind{types.KindInt}, types.KindInt); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(obs.Handler(obs.Default))
	defer srv.Close()

	const sessions = 8
	const perSession = 6
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess := e.NewSession()
			for j := 0; j < perSession; j++ {
				q := fmt.Sprintf(`SELECT iso_double(id) FROM wide WHERE id < %d`, 10+i+j)
				if _, err := sess.Exec(q); err != nil {
					errs <- fmt.Errorf("session %d: %w", i, err)
					return
				}
			}
		}(i)
	}

	// Scrape concurrently until the workload finishes.
	counterRe := regexp.MustCompile(`(?m)^predator_stmt_total\{status="ok",verb="select"\} (\d+)$`)
	lineRe := regexp.MustCompile(`^(#.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.eE+]+(Inf)?)$`)
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	scrapeErr := make(chan error, 1)
	go func() {
		defer scrapeWG.Done()
		last := int64(-1)
		for {
			select {
			case <-ctx.Done():
				return
			default:
			}
			resp, err := http.Get(srv.URL + "/metrics")
			if err != nil {
				scrapeErr <- err
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				scrapeErr <- err
				return
			}
			for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
				if !lineRe.MatchString(line) {
					scrapeErr <- fmt.Errorf("torn or malformed metrics line: %q", line)
					return
				}
			}
			if m := counterRe.FindSubmatch(body); m != nil {
				v, _ := strconv.ParseInt(string(m[1]), 10, 64)
				if v < last {
					scrapeErr <- fmt.Errorf("counter went backwards: %d -> %d", last, v)
					return
				}
				last = v
			}
		}
	}()

	wg.Wait()
	cancel()
	scrapeWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	select {
	case err := <-scrapeErr:
		t.Fatal(err)
	default:
	}

	// The workload's fingerprint must have aggregated all executions.
	want := "SELECT iso_double ( id ) FROM wide WHERE id < ?"
	var calls int64
	for _, s := range obs.Statements.Snapshot() {
		if s.Fingerprint == want {
			calls = s.Calls
		}
	}
	if calls < sessions*perSession {
		t.Fatalf("fingerprint %q calls = %d, want >= %d", want, calls, sessions*perSession)
	}
}
