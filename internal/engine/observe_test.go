package engine

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"predator/internal/core"
	"predator/internal/obs"
	"predator/internal/types"
)

// seedWide populates a table big enough that per-operator actuals are
// unambiguous (row counts differ at every level of the plan).
func seedWide(t *testing.T, e *Engine, rows int) {
	t.Helper()
	mustExec(t, e, `CREATE TABLE wide (id INT, v INT)`)
	tbl, _ := e.Catalog().Table("wide")
	for i := 0; i < rows; i++ {
		row := types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 7))}
		rec, err := types.EncodeRow(nil, tbl.Schema, row)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.Heap().Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
}

// openBlobs opens an engine for a benchmark with a table
// blobs (id INT, ba BYTES) of rows tuples carrying 100-byte arrays.
func openBlobs(b *testing.B, opts Options, rows int) *Engine {
	b.Helper()
	e, err := Open(filepath.Join(b.TempDir(), "blobs.db"), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	if _, err := e.Exec(`CREATE TABLE blobs (id INT, ba BYTES)`); err != nil {
		b.Fatal(err)
	}
	tbl, _ := e.Catalog().Table("blobs")
	payload := make([]byte, 100)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	for i := 0; i < rows; i++ {
		rec, err := types.EncodeRow(nil, tbl.Schema, types.Row{types.NewInt(int64(i)), types.NewBytes(payload)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tbl.Heap().Insert(rec); err != nil {
			b.Fatal(err)
		}
	}
	return e
}

func TestExplainEstimates(t *testing.T) {
	e := openEngine(t)
	seedWide(t, e, 500)
	res := mustExec(t, e, `EXPLAIN SELECT id FROM wide WHERE id = 7`)
	if res.Plan == "" {
		t.Fatal("no plan")
	}
	if !strings.Contains(res.Plan, "est rows=500 via heap chain") {
		t.Errorf("SeqScan line missing heap-chain estimate:\n%s", res.Plan)
	}
	// Equality selectivity is 0.1: the filter line should estimate 50.
	if !strings.Contains(res.Plan, "Filter") || !strings.Contains(res.Plan, "est rows=50)") {
		t.Errorf("Filter line missing selectivity estimate:\n%s", res.Plan)
	}
	if strings.Contains(res.Plan, "actual rows") {
		t.Errorf("plain EXPLAIN must not execute:\n%s", res.Plan)
	}
}

func TestExplainAnalyzeActuals(t *testing.T) {
	e := openEngine(t)
	seedWide(t, e, 300)
	res := mustExec(t, e, `EXPLAIN ANALYZE SELECT id FROM wide WHERE v = 0 LIMIT 10`)
	plan := res.Plan
	// Every operator line must carry actuals.
	for _, op := range []string{"Project", "Limit", "Filter", "SeqScan"} {
		re := regexp.MustCompile(op + `.*actual rows=(\d+) time=`)
		m := re.FindStringSubmatch(plan)
		if m == nil {
			t.Fatalf("no actuals on %s line:\n%s", op, plan)
		}
	}
	// The limit stops the pipeline at 10 rows; the scan must have seen
	// at least the 64 rows needed to find ten with v=0 (v cycles mod 7)
	// and far fewer than the full table would allow only if LIMIT
	// propagates — exact values depend on pull order, so bound them.
	scan := regexp.MustCompile(`SeqScan.*actual rows=(\d+)`).FindStringSubmatch(plan)
	n, _ := strconv.Atoi(scan[1])
	if n < 10 || n > 300 {
		t.Errorf("scan actual rows=%d out of range", n)
	}
	limit := regexp.MustCompile(`Limit.*actual rows=(\d+)`).FindStringSubmatch(plan)
	if limit[1] != "10" {
		t.Errorf("limit actual rows=%s, want 10", limit[1])
	}
	if !strings.Contains(plan, "Rows returned: 10") {
		t.Errorf("missing rows-returned footer:\n%s", plan)
	}
	if !strings.Contains(plan, "execute:") {
		t.Errorf("missing execute span in trace footer:\n%s", plan)
	}
}

func TestExplainAnalyzeIsolatedUDF(t *testing.T) {
	e := openEngine(t)
	seedWide(t, e, 50)
	if err := e.RegisterNativeIsolated("iso_double", []types.Kind{types.KindInt}, types.KindInt); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, e, `EXPLAIN ANALYZE SELECT iso_double(id) FROM wide WHERE id < 20`)
	plan := res.Plan
	m := regexp.MustCompile(`Project.*actual rows=(\d+)`).FindStringSubmatch(plan)
	if m == nil || m[1] != "20" {
		t.Fatalf("project actuals wrong:\n%s", plan)
	}
	// Isolated UDFs batch by default: 20 rows gather as windows of 8
	// then 12, so the plan must show the batch stats and the trace must
	// record one invoke event per crossing.
	if !strings.Contains(plan, "(batched: 2 batches, mean 10.0 rows)") {
		t.Errorf("missing batch stats on Project line:\n%s", plan)
	}
	if !regexp.MustCompile(`udf:iso_double: 2 calls`).MatchString(plan) {
		t.Errorf("missing aggregated UDF event:\n%s", plan)
	}

	// With batching disabled the legacy path crosses once per row and
	// the trace event count must agree with the row count.
	e.SetUDFBatchRows(1)
	defer e.SetUDFBatchRows(0)
	plan = mustExec(t, e, `EXPLAIN ANALYZE SELECT iso_double(id) FROM wide WHERE id < 20`).Plan
	if strings.Contains(plan, "(batched:") {
		t.Errorf("batch stats present at batch cap 1:\n%s", plan)
	}
	if !regexp.MustCompile(`udf:iso_double: 20 calls`).MatchString(plan) {
		t.Errorf("missing aggregated UDF event on scalar path:\n%s", plan)
	}
}

func TestShowStats(t *testing.T) {
	e := openEngine(t)
	seedWide(t, e, 100)
	mustExec(t, e, `SELECT * FROM wide WHERE id < 5`)
	res := mustExec(t, e, `SHOW STATS`)
	if res.Schema.Columns[0].Name != "metric" {
		t.Fatalf("schema: %s", res.Schema)
	}
	stats := make(map[string]string, len(res.Rows))
	for _, r := range res.Rows {
		stats[r[0].Str] = r[1].Str
	}
	for _, want := range []string{
		"predator_storage_bufferpool_hits_total",
		`predator_stmt_total{status="ok",verb="select"}`,
		`predator_exec_rows_total{op="seqscan"}`,
		`predator_stmt_seconds_count{verb="select"}`,
	} {
		if _, ok := stats[want]; !ok {
			t.Errorf("SHOW STATS missing %s (have %d metrics)", want, len(stats))
		}
	}
	if v := stats[`predator_exec_rows_total{op="seqscan"}`]; v == "0" || v == "" {
		t.Errorf("seqscan rows counter not advancing: %q", v)
	}
}

// TestBatchMetricsExposed is the acceptance cross-check for the batch
// observability: after a batched isolated query, the process registry —
// the same one the /metrics endpoint renders — must expose the crossing
// counter and the batch-size histogram for the design, and the crossing
// count must reflect the amortization (2 crossings for 20 rows).
func TestBatchMetricsExposed(t *testing.T) {
	e := openEngine(t)
	seedWide(t, e, 50)
	if err := e.RegisterNativeIsolated("iso_double", []types.Kind{types.KindInt}, types.KindInt); err != nil {
		t.Fatal(err)
	}
	crossings := obs.Default.Counter("predator_udf_crossings_total", "design", "IC++")
	batchRows := obs.Default.ValueHistogram("predator_udf_batch_rows", "design", "IC++")
	beforeX, beforeN, beforeSum := crossings.Value(), batchRows.Count(), batchRows.Sum()
	res := mustExec(t, e, `SELECT iso_double(id) FROM wide WHERE id < 20`)
	if len(res.Rows) != 20 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	// 20 rows gather as windows of 8 then 12: two crossings, two batch
	// observations summing to the row count.
	if got := crossings.Value() - beforeX; got != 2 {
		t.Errorf("crossings delta = %d, want 2", got)
	}
	if got := batchRows.Count() - beforeN; got != 2 {
		t.Errorf("batch observations delta = %d, want 2", got)
	}
	if got := batchRows.Sum() - beforeSum; got != 20 {
		t.Errorf("batch rows sum delta = %d, want 20", got)
	}
	// Both series render on the Prometheus surface (/metrics serves
	// exactly this registry).
	var sb strings.Builder
	if err := obs.Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		`predator_udf_crossings_total{design="IC++"}`,
		`predator_udf_batch_rows_bucket{design="IC++",le="8"}`,
		`predator_udf_batch_rows_count{design="IC++"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics surface missing %q", want)
		}
	}
}

// TestUDFInvokeHistogramCounts is the acceptance cross-check: the
// per-design invoke histogram in the process registry must record one
// observation per actual UDF invocation the engine made.
func TestUDFInvokeHistogramCounts(t *testing.T) {
	e := openEngine(t)
	seedWide(t, e, 30)
	if err := e.RegisterNative("inc1", []types.Kind{types.KindInt}, types.KindInt,
		func(_ *core.Ctx, args []types.Value) (types.Value, error) {
			return types.NewInt(args[0].Int + 1), nil
		}); err != nil {
		t.Fatal(err)
	}
	h := obs.Default.Histogram("predator_udf_invoke_seconds", "design", "C++")
	before := h.Count()
	res := mustExec(t, e, `SELECT inc1(id) FROM wide WHERE id < 12`)
	if len(res.Rows) != 12 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	if got := h.Count() - before; got != 12 {
		t.Errorf("histogram recorded %d invocations, want 12", got)
	}
}

// BenchmarkBatchSpeedup is the batching gate: 2 000 IC++ invocations
// over 100-byte arrays must run at least 1.5x the rows/s at a batch
// cap of 64 that they run at cap 1, one process crossing per row. CI
// runs it once:
//
//	go test -run '^$' -bench BenchmarkBatchSpeedup -benchtime 1x ./internal/engine
func BenchmarkBatchSpeedup(b *testing.B) {
	const rows = 2000
	e := openBlobs(b, Options{BufferPoolPages: 512, Durability: "none"}, rows)
	if err := e.RegisterNativeIsolated("iso_len", []types.Kind{types.KindBytes}, types.KindInt); err != nil {
		b.Fatal(err)
	}
	defer e.SetUDFBatchRows(0)
	// rate times the scan at one batch cap, best of three, in rows/s.
	rate := func(cap int) float64 {
		e.SetUDFBatchRows(cap)
		var best time.Duration
		for k := 0; k < 3; k++ {
			start := time.Now()
			res, err := e.Exec(`SELECT iso_len(ba) FROM blobs`)
			d := time.Since(start)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != rows || res.Rows[0][0].Int != 100 {
				b.Fatalf("cap %d: %d rows, first %v", cap, len(res.Rows), res.Rows[0])
			}
			if k == 0 || d < best {
				best = d
			}
		}
		return rows / best.Seconds()
	}
	for i := 0; i < b.N; i++ {
		speedup := rate(64) / rate(1)
		b.ReportMetric(speedup, "x-cap64-over-cap1")
		if speedup < 1.5 {
			b.Fatalf("IC++ at batch cap 64 is %.2fx cap 1, want >= 1.5x", speedup)
		}
	}
}
