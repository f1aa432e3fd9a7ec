// Package engine assembles the PREDATOR-Go database: storage, catalog,
// planner, executor, the embedded Jaguar VM and the UDF registry. It is
// the single-process embedding API on which the server, the client
// examples and the benchmark harness are built.
package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"predator/internal/catalog"
	"predator/internal/core"
	"predator/internal/exec"
	"predator/internal/expr"
	"predator/internal/fleet"
	"predator/internal/govern"
	"predator/internal/isolate"
	"predator/internal/jaguar"
	"predator/internal/jvm"
	"predator/internal/obs"
	"predator/internal/plan"
	"predator/internal/sql"
	"predator/internal/storage"
	"predator/internal/types"
)

// Options configures an engine instance.
type Options struct {
	// BufferPoolPages caps the page cache (default 1024 pages = 8 MiB).
	BufferPoolPages int
	// Security is the VM security manager for Jaguar UDFs (default:
	// jvm.DefaultPolicy — callbacks and logging only).
	Security jvm.SecurityManager
	// DisableJIT forces the VM interpreter (for the JIT ablation).
	DisableJIT bool
	// DisableUDFInlining keeps translatable Jaguar UDFs on their
	// declared execution design instead of lowering them into the plan
	// (the Froid-inlining ablation).
	DisableUDFInlining bool
	// UDFLimits is the default per-invocation resource policy applied
	// to Jaguar UDFs created via SQL. Zero = unlimited (like the
	// paper's 1998 JVM); production should set it.
	UDFLimits jvm.Limits
	// Logf receives UDF sys.log output and engine notices (nil = drop).
	Logf func(format string, args ...any)
	// StatementTimeout is the default per-statement deadline for new
	// sessions (0 = none). Sessions override it with
	// SET STATEMENT_TIMEOUT.
	StatementTimeout time.Duration
	// Supervision is the executor supervision policy (deadlines,
	// restart budget) applied to isolated UDFs. Zero-value fields take
	// isolate.DefaultSupervision defaults.
	Supervision isolate.Supervision
	// UDFBatchRows caps the rows carried per batched UDF crossing
	// (0 = expr.DefaultBatchRows). Values of 1 or less than zero force
	// the legacy one-crossing-per-tuple path.
	UDFBatchRows int
	// Durability selects the write-ahead-log fsync policy: "none"
	// (no WAL — crashes may lose or corrupt recent writes), "commit"
	// (WAL fsync at each acknowledged mutating statement; the default),
	// or "always" (WAL fsync on every log append).
	Durability string
	// CheckpointBytes triggers an automatic checkpoint (flush-all +
	// WAL truncation) once the log exceeds this size. 0 = the 8 MiB
	// default; negative disables automatic checkpoints (manual
	// CHECKPOINT statements still work).
	CheckpointBytes int64
	// TraceDir enables SET TRACE = 'on' for sessions: each traced
	// statement exports a Chrome trace-event JSON file into this
	// directory (loadable in chrome://tracing or Perfetto). Sessions can
	// always SET TRACE to an explicit file path, TraceDir or not.
	TraceDir string
	// SlowQuery emits a structured log entry (obs.Logger) for every
	// statement slower than this threshold (0 = disabled).
	SlowQuery time.Duration
	// Quota is the default per-tenant resource quota (memory ceiling
	// for materialized statement results, windowed executor CPU
	// budget). Zero fields are unlimited. Sessions tune their own
	// tenant with SET QUOTA_MEMORY / SET QUOTA_CPU.
	Quota govern.Quota
	// FleetSize, when positive, runs isolated UDFs on a shared fleet of
	// that many multiplexed executor processes instead of one process
	// per UDF: process count stays O(cores) however many sessions and
	// UDFs are live. 0 keeps the paper's dedicated-executor lifecycle.
	// Quarantined UDFs (open breaker) still fall back to dedicated
	// executors. Inspect with SHOW EXECUTORS.
	FleetSize int
	// ArchiveDir enables WAL archiving into the named directory: every
	// log generation is preserved as a segment before truncation, which
	// is what makes online BACKUP TO and point-in-time restore
	// (predator-restore) possible. Empty = no archiving.
	ArchiveDir string
	// ScrubInterval, when positive, runs the background scrubber: a
	// full checksum pass over data pages and archived segments every
	// interval (paced so it never hogs the disk), repairing corrupt
	// pages from WAL/archive/backup. Inspect with SHOW STORAGE.
	ScrubInterval time.Duration
	// ScrubPace overrides the per-page probe pause (0 = the scrubber's
	// default pacing). Only meaningful with ScrubInterval set.
	ScrubPace time.Duration
}

// defaultCheckpointBytes bounds WAL growth (and hence recovery time)
// between automatic checkpoints.
const defaultCheckpointBytes = 8 << 20

// Engine is an open database.
type Engine struct {
	mu       sync.Mutex
	disk     *storage.DiskManager
	pool     *storage.BufferPool
	cat      *catalog.Catalog
	reg      *core.Registry
	vm       *jvm.VM
	planner  *plan.Planner
	objects  *ObjectStore
	opts     Options
	gov      *govern.Governor
	fleet    *fleet.Fleet // shared executor fleet (nil = dedicated executors)
	defSess  *Session
	scrubber *storage.Scrubber // background checksum scrubber (nil = disabled)
	closed   bool

	// ro is the degraded read-only state (ENOSPC): mutations shed with
	// a retryable disk-full fault until a probe rebuilds the WAL.
	ro readOnlyState

	// ckptMu serializes checkpoints against mutating statements:
	// writers hold it shared, Checkpoint holds it exclusively, so the
	// flush-all + WAL-truncate pair never captures a page mid-statement.
	ckptMu    sync.RWMutex
	ckptBytes int64 // auto-checkpoint threshold (<=0 = disabled)

	// batchRows is the live UDF batch cap (atomic: benchmarks retune it
	// between runs without reopening the engine).
	batchRows atomic.Int64
}

// Open opens (or creates) a database file and restores its catalog,
// including persisted Jaguar UDFs (which are re-verified on load).
func Open(path string, opts Options) (*Engine, error) {
	if opts.BufferPoolPages <= 0 {
		opts.BufferPoolPages = 1024
	}
	if opts.Security == nil {
		opts.Security = jvm.DefaultPolicy()
	}
	mode, err := storage.ParseDurability(opts.Durability)
	if err != nil {
		return nil, err
	}
	disk, err := storage.OpenDiskOptions(path, storage.DiskOptions{Durability: mode, ArchiveDir: opts.ArchiveDir})
	if err != nil {
		return nil, err
	}
	if rec := disk.Recovered(); rec.Ran {
		obs.Logger().Info("crash recovery replayed WAL",
			"component", "engine", "path", path,
			"records", rec.Records, "images", rec.Images, "deltas", rec.Deltas,
			"bytes", rec.Bytes, "torn_tail", rec.TornTail)
	}
	pool := storage.NewBufferPool(disk, opts.BufferPoolPages)
	cat, err := catalog.Open(disk, pool)
	if err != nil {
		disk.Close()
		return nil, err
	}
	e := &Engine{
		disk:    disk,
		pool:    pool,
		cat:     cat,
		reg:     core.NewRegistry(),
		vm:      jvm.New(jvm.Options{Security: opts.Security, DisableJIT: opts.DisableJIT}),
		objects: NewObjectStore(),
		opts:    opts,
	}
	e.planner = &plan.Planner{Catalog: cat, Registry: e.reg, NoInline: opts.DisableUDFInlining}
	e.gov = govern.NewGovernor(opts.Quota)
	if opts.FleetSize > 0 {
		e.fleet = fleet.New(fleet.Options{Size: opts.FleetSize, Supervision: opts.Supervision})
	}
	e.ckptBytes = opts.CheckpointBytes
	if e.ckptBytes == 0 {
		e.ckptBytes = defaultCheckpointBytes
	}
	e.SetUDFBatchRows(opts.UDFBatchRows)
	if opts.ScrubInterval > 0 {
		e.scrubber = storage.NewScrubber(disk, storage.ScrubConfig{
			PagePace:  opts.ScrubPace,
			PassPause: opts.ScrubInterval,
		})
		e.scrubber.Start()
	}
	e.defSess = e.NewSession()
	// Restore persisted Jaguar UDFs.
	for _, f := range cat.Functions() {
		if f.Language != "jaguar" || len(f.Code) == 0 {
			continue
		}
		if err := e.installJaguarClass(f.Name, f.Code, f.ArgKinds, f.Return, f.Isolated); err != nil {
			e.Close()
			return nil, fmt.Errorf("engine: restore function %q: %w", f.Name, err)
		}
	}
	return e, nil
}

// Close flushes every dirty page, checkpoints (data fsync + WAL
// truncation) and releases the database, so a graceful stop never
// relies on crash recovery at the next open.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	e.reg.Close()
	if e.fleet != nil {
		e.fleet.Close()
	}
	if e.scrubber != nil {
		e.scrubber.Close()
	}
	if err := e.pool.FlushAll(); err != nil {
		e.disk.Close()
		return err
	}
	if err := e.disk.Checkpoint(); err != nil {
		e.disk.Close()
		return err
	}
	return e.disk.Close()
}

// Checkpoint flushes every dirty buffered page, fsyncs the data file
// and truncates the write-ahead log. Also available as the SQL
// CHECKPOINT statement.
func (e *Engine) Checkpoint() error {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	if err := e.pool.FlushAll(); err != nil {
		return err
	}
	return e.disk.Checkpoint()
}

// maybeAutoCheckpoint runs a checkpoint when the WAL has outgrown the
// configured bound. Called after a successful mutating statement, with
// no checkpoint lock held.
func (e *Engine) maybeAutoCheckpoint() {
	if e.ckptBytes <= 0 || e.disk.WALSize() < e.ckptBytes {
		return
	}
	if err := e.Checkpoint(); err != nil {
		// The statement that triggered us already committed durably;
		// surface the failure without failing it.
		obs.Logger().Error("automatic checkpoint failed",
			"component", "engine", "error", err)
	}
}

// WALStats reports cumulative write-ahead-log activity.
func (e *Engine) WALStats() storage.WALStats { return e.disk.WALStats() }

// Recovered reports whether redo recovery ran when the database was
// opened, and how much of the log it replayed.
func (e *Engine) Recovered() storage.RecoveryInfo { return e.disk.Recovered() }

// Registry exposes the UDF registry (for programmatic registration).
func (e *Engine) Registry() *core.Registry { return e.reg }

// Governor exposes the per-tenant resource governor.
func (e *Engine) Governor() *govern.Governor { return e.gov }

// Catalog exposes the system catalog.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// VM exposes the embedded Jaguar VM.
func (e *Engine) VM() *jvm.VM { return e.vm }

// Objects exposes the callback object store.
func (e *Engine) Objects() *ObjectStore { return e.objects }

// DiskStats reports physical I/O counters (calibration experiments).
func (e *Engine) DiskStats() storage.DiskStats { return e.disk.Stats() }

// BufferStats reports page-cache counters.
func (e *Engine) BufferStats() storage.BufferStats { return e.pool.Stats() }

// Result is the outcome of one statement.
type Result struct {
	// Schema and Rows are set for SELECT (and SHOW).
	Schema *types.Schema
	Rows   []types.Row
	// RowsAffected is set for INSERT/DELETE.
	RowsAffected int64
	// Message is a human-readable DDL confirmation.
	Message string
	// Plan is the EXPLAIN rendering.
	Plan string
}

// Exec parses and executes one SQL statement on the engine's default
// session (per-connection work should use NewSession).
func (e *Engine) Exec(sqlText string) (*Result, error) {
	return e.defSess.Exec(sqlText)
}

// ExecStmt executes a parsed statement on the default session.
func (e *Engine) ExecStmt(stmt sql.Statement) (*Result, error) {
	return e.defSess.ExecStmt(stmt)
}

// stmtVerb classifies a statement for metrics labels.
func stmtVerb(stmt sql.Statement) string {
	switch stmt.(type) {
	case *sql.Select:
		return "select"
	case *sql.Insert:
		return "insert"
	case *sql.Delete:
		return "delete"
	case *sql.Update:
		return "update"
	case *sql.Explain:
		return "explain"
	case *sql.Show:
		return "show"
	case *sql.CreateTable, *sql.CreateFunction:
		return "create"
	case *sql.DropTable, *sql.DropFunction:
		return "drop"
	case *sql.Checkpoint:
		return "checkpoint"
	case *sql.Backup:
		return "backup"
	default:
		return "other"
	}
}

// mutates reports whether a statement changes persistent state and so
// must be covered by the statement-boundary commit (and excluded from
// a concurrent checkpoint's flush window).
func mutates(stmt sql.Statement) bool {
	switch stmt.(type) {
	case *sql.Insert, *sql.Delete, *sql.Update,
		*sql.CreateTable, *sql.DropTable,
		*sql.CreateFunction, *sql.DropFunction:
		return true
	}
	return false
}

// execStmtDeadline executes a parsed statement under a statement
// deadline (zero = none); sessions call it after handling SET.
func (e *Engine) execStmtDeadline(stmt sql.Statement, deadline time.Time) (*Result, error) {
	return e.execStmtTraced(stmt, deadline, obs.NewTrace())
}

// execStmtTraced runs a statement whose raw SQL text is unavailable
// (parsed-statement entry points); it still gets per-verb metrics but
// no statement-statistics entry.
func (e *Engine) execStmtTraced(stmt sql.Statement, deadline time.Time, tr *obs.Trace) (*Result, error) {
	return e.execStmtObserved(stmt, deadline, tr, "", 0, nil, 0)
}

// tenantName names a tenant for attribution records ("" = ungoverned).
func tenantName(ten *govern.Tenant) string {
	if ten == nil {
		return ""
	}
	return ten.Name()
}

// execStmtObserved wraps statement execution with the per-verb latency
// histogram and outcome counter, the fingerprint-keyed statement
// statistics (when the raw text is known), the flight recorder (live
// registry + query store), and the slow-query log. ten, when non-nil,
// is the tenant whose quotas govern the statement; admitWait is the
// time the statement queued at the server's admission gate, folded
// into the query store's wait breakdown.
func (e *Engine) execStmtObserved(stmt sql.Statement, deadline time.Time, tr *obs.Trace, text string, sessID int64, ten *govern.Tenant, admitWait time.Duration) (*Result, error) {
	verb := stmtVerb(stmt)
	walBefore := e.disk.WALStats()
	ex := obs.Live.Start(sessID, tenantName(ten), text)
	start := time.Now()
	res, err := e.runStmt(stmt, deadline, tr, ten, ex)
	d := time.Since(start)
	obs.Live.Finish(ex)
	obs.Default.Histogram("predator_stmt_seconds", "verb", verb).Observe(d)
	status := "ok"
	if err != nil {
		status = "error"
	}
	obs.Default.Counter("predator_stmt_total", "verb", verb, "status", status).Inc()
	fingerprint := ""
	var rows int64
	if res != nil {
		rows = int64(len(res.Rows)) + res.RowsAffected
	}
	walAfter := e.disk.WALStats()
	if text != "" {
		fingerprint = sql.Normalize(text)
		obs.Statements.Record(fingerprint, d, rows, traceCrossings(tr), int64(walAfter.Bytes-walBefore.Bytes))
	}
	if ex != nil {
		obs.History.Add(obs.QueryRecord{
			ID:          ex.ID(),
			SessionID:   sessID,
			Fingerprint: fingerprint,
			Tenant:      tenantName(ten),
			Query:       text,
			Started:     start,
			Duration:    d,
			Rows:        rows,
			Crossings:   ex.Crossings(),
			ChildCPU:    ex.ChildCPU(),
			WALBytes:    int64(walAfter.Bytes - walBefore.Bytes),
			Wait: obs.WaitProfile{
				Plan:          tr.SpanDuration("plan"),
				Exec:          tr.SpanDuration("execute"),
				CrossingWait:  ex.CrossingWait(),
				WALFsync:      time.Duration(walAfter.FsyncNanos - walBefore.FsyncNanos),
				AdmissionWait: admitWait,
			},
			Status: status,
		})
	}
	if t := e.opts.SlowQuery; t > 0 && d >= t {
		attrs := []any{
			"component", "engine", "verb", verb, "status", status, "duration", d,
		}
		if sessID != 0 {
			attrs = append(attrs, "session", sessID)
		}
		if text != "" {
			attrs = append(attrs, "query", text, "fingerprint", fingerprint)
		}
		if s := tr.Summary(); s != "" {
			attrs = append(attrs, "trace", s)
		}
		obs.Logger().Warn("slow query", attrs...)
	}
	return res, err
}

// traceCrossings counts UDF invocation events recorded in a trace (the
// "udf:<name>" aggregates the expression layer emits — one per process
// crossing for isolated designs, one per call for embedded ones).
func traceCrossings(tr *obs.Trace) int64 {
	var n int64
	for _, ev := range tr.Events() {
		if strings.HasPrefix(ev.Name, "udf:") {
			n += ev.Count
		}
	}
	return n
}

func (e *Engine) runStmt(stmt sql.Statement, deadline time.Time, tr *obs.Trace, ten *govern.Tenant, ex *obs.Execution) (*Result, error) {
	if _, ok := stmt.(*sql.Checkpoint); ok {
		if err := e.Checkpoint(); err != nil {
			return nil, e.classifyStorageErr(err)
		}
		e.updateStorageGauges()
		return &Result{Message: "checkpoint complete"}, nil
	}
	if b, ok := stmt.(*sql.Backup); ok {
		m, err := e.Backup(b.Dir)
		if err != nil {
			return nil, e.classifyStorageErr(err)
		}
		return &Result{Message: fmt.Sprintf("backup complete: %s (lsn %d..%d, %d pages)",
			b.Dir, m.StartLSN, m.EndLSN, m.Pages)}, nil
	}
	if !mutates(stmt) {
		return e.runStmtInner(stmt, deadline, tr, ten, ex)
	}
	// Degraded read-only mode (disk full): shed the mutation with a
	// typed retryable fault before it touches any state, probing for
	// recovery at most once per interval.
	if err := e.gateMutation(); err != nil {
		return nil, err
	}
	// Mutating statement: hold the checkpoint lock shared so a
	// concurrent CHECKPOINT cannot flush + truncate mid-statement, and
	// force the WAL at the statement boundary before acknowledging.
	e.ckptMu.RLock()
	res, err := e.runStmtInner(stmt, deadline, tr, ten, ex)
	if err == nil {
		ex.SetPhase(obs.PhaseCommit)
		err = e.disk.Commit()
	}
	e.ckptMu.RUnlock()
	if err != nil {
		return nil, e.classifyStorageErr(err)
	}
	e.updateStorageGauges()
	e.maybeAutoCheckpoint()
	return res, nil
}

func (e *Engine) runStmtInner(stmt sql.Statement, deadline time.Time, tr *obs.Trace, ten *govern.Tenant, ex *obs.Execution) (*Result, error) {
	ec := e.evalCtx(deadline, ten, ex)
	// The statement's memory reservation lives exactly as long as the
	// statement: materialized rows are handed to the wire layer after
	// this returns, but the ceiling is per-statement, not per-buffer.
	defer ec.Mem.Release()
	ec.Trace = tr
	if tr.Detailed() {
		// Detailed tracing reaches across the process boundary: isolated
		// executors see the trace on the UDF context and ship their own
		// spans back (merged in by the executor handle).
		ec.UDF.Trace = tr
	}
	switch n := stmt.(type) {
	case *sql.CreateTable:
		schema := &types.Schema{Columns: n.Columns}
		if _, err := e.cat.CreateTable(n.Name, schema); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("table %s created", n.Name)}, nil
	case *sql.DropTable:
		if err := e.cat.DropTable(n.Name); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("table %s dropped", n.Name)}, nil
	case *sql.Insert:
		return e.execInsert(n, ec)
	case *sql.Delete:
		return e.execDelete(n, ec)
	case *sql.Update:
		return e.execUpdate(n, ec)
	case *sql.Select:
		return e.execSelect(n, ec)
	case *sql.Explain:
		ex.SetPhase(obs.PhasePlan)
		sp := tr.Start("plan")
		op, err := e.planner.PlanSelect(n.Query)
		sp.End()
		if err != nil {
			return nil, err
		}
		plan.Annotate(op)
		if !n.Analyze {
			return &Result{Plan: exec.ExplainTree(op)}, nil
		}
		// EXPLAIN ANALYZE: run the probe-wrapped tree to completion,
		// then render it — each node's line shows the planner estimate
		// next to the recorded actuals — plus the trace footer (phase
		// spans and aggregated UDF-invoke events). Detailed tracing is
		// forced on so executor-side spans (child/invoke, child/vm_exec)
		// appear in the footer alongside the parent's.
		tr.EnableDetail()
		ec.UDF.Trace = tr
		root := exec.Instrument(op)
		ex.SetPhase(obs.PhaseExecute)
		sp = tr.Start("execute")
		rows, err := exec.Run(root, ec)
		sp.End()
		if err != nil {
			return nil, err
		}
		rendered := exec.ExplainTree(root)
		rendered += fmt.Sprintf("Rows returned: %d\n", len(rows))
		rendered += tr.Render()
		return &Result{Plan: rendered}, nil
	case *sql.CreateFunction:
		return e.execCreateFunction(n)
	case *sql.DropFunction:
		if err := e.reg.Drop(n.Name); err != nil {
			return nil, err
		}
		if _, ok := e.cat.Function(n.Name); ok {
			if err := e.cat.DropFunction(n.Name); err != nil {
				return nil, err
			}
		}
		return &Result{Message: fmt.Sprintf("function %s dropped", n.Name)}, nil
	case *sql.Show:
		return e.execShow(n)
	case *sql.Kill:
		// KILL only flags the registry entry; the target statement
		// surfaces the cancellation itself at its next between-rows
		// check. A query that already finished is an error — the
		// registry drops entries exactly once, so a stale ID can never
		// cancel a later statement.
		if n.ID < 0 || !obs.Live.Kill(uint64(n.ID)) {
			return nil, fmt.Errorf("engine: query %d is not running", n.ID)
		}
		return &Result{Message: fmt.Sprintf("kill signal sent to query %d", n.ID)}, nil
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

// SetUDFBatchRows retunes the per-crossing UDF batch cap for statements
// started after the call (0 = expr.DefaultBatchRows; 1 or negative
// forces the legacy scalar path).
func (e *Engine) SetUDFBatchRows(n int) {
	if n == 0 {
		n = expr.DefaultBatchRows
	}
	if n < 1 {
		n = 1
	}
	e.batchRows.Store(int64(n))
}

// UDFBatchRows reports the current per-crossing UDF batch cap.
func (e *Engine) UDFBatchRows() int { return int(e.batchRows.Load()) }

func (e *Engine) evalCtx(deadline time.Time, ten *govern.Tenant, ex *obs.Execution) *expr.Ctx {
	return &expr.Ctx{
		UDF:      &core.Ctx{Callback: e.objects, Logf: e.opts.Logf, Deadline: deadline, Tenant: ten, Exec: ex},
		Deadline: deadline,
		UDFBatch: int(e.batchRows.Load()),
		Mem:      govern.NewReservation(ten),
		Exec:     ex,
	}
}

func (e *Engine) execSelect(sel *sql.Select, ec *expr.Ctx) (*Result, error) {
	ec.Exec.SetPhase(obs.PhasePlan)
	sp := ec.Trace.Start("plan")
	op, err := e.planner.PlanSelect(sel)
	sp.End()
	if err != nil {
		return nil, err
	}
	ec.Exec.SetPhase(obs.PhaseExecute)
	sp = ec.Trace.Start("execute")
	rows, err := exec.Run(op, ec)
	sp.End()
	if err != nil {
		return nil, err
	}
	return &Result{Schema: op.Schema(), Rows: rows}, nil
}

func (e *Engine) execInsert(ins *sql.Insert, ec *expr.Ctx) (*Result, error) {
	tbl, ok := e.cat.Table(ins.Table)
	if !ok {
		return nil, fmt.Errorf("engine: table %q does not exist", ins.Table)
	}
	binder := &expr.Binder{Scope: expr.NewScope(), Registry: e.reg, NoInline: e.opts.DisableUDFInlining}
	var n int64
	for _, exprs := range ins.Rows {
		if len(exprs) != tbl.Schema.Arity() {
			return nil, fmt.Errorf("engine: table %s has %d columns, %d values given",
				tbl.Name, tbl.Schema.Arity(), len(exprs))
		}
		row := make(types.Row, len(exprs))
		for i, ex := range exprs {
			bound, err := binder.Bind(ex)
			if err != nil {
				return nil, err
			}
			v, err := bound.Eval(ec, nil)
			if err != nil {
				return nil, err
			}
			v, err = coerce(v, tbl.Schema.Columns[i].Kind)
			if err != nil {
				return nil, fmt.Errorf("engine: column %q: %w", tbl.Schema.Columns[i].Name, err)
			}
			row[i] = v
		}
		rec, err := types.EncodeRow(nil, tbl.Schema, row)
		if err != nil {
			return nil, err
		}
		if _, err := tbl.Heap().Insert(rec); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{RowsAffected: n}, nil
}

func (e *Engine) execDelete(del *sql.Delete, ec *expr.Ctx) (*Result, error) {
	tbl, ok := e.cat.Table(del.Table)
	if !ok {
		return nil, fmt.Errorf("engine: table %q does not exist", del.Table)
	}
	var pred expr.Bound
	if del.Where != nil {
		scope := expr.NewScope()
		scope.AddTable(del.Table, tbl.Schema)
		binder := &expr.Binder{Scope: scope, Registry: e.reg, NoInline: e.opts.DisableUDFInlining}
		p, err := binder.Bind(del.Where)
		if err != nil {
			return nil, err
		}
		if p.Kind() != types.KindBool {
			return nil, fmt.Errorf("engine: DELETE predicate is %s, not BOOL", p.Kind())
		}
		pred = p
	}
	// Collect matching RIDs first, then delete (no mutation mid-scan).
	var rids []storage.RID
	var rec []byte
	var row types.Row
	sc := tbl.Heap().Scan()
	defer sc.Close()
	for sc.Next() {
		if pred != nil {
			rec = sc.AppendRecord(rec[:0])
			var err error
			if row, err = types.DecodeRowInto(row, rec, tbl.Schema); err != nil {
				return nil, err
			}
			v, err := pred.Eval(ec, row)
			if err != nil {
				return nil, err
			}
			if v.IsNull() || !v.Bool {
				continue
			}
		}
		rids = append(rids, sc.RID())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var n int64
	for _, rid := range rids {
		ok, err := tbl.Heap().Delete(rid)
		if err != nil {
			return nil, err
		}
		if ok {
			n++
		}
	}
	return &Result{RowsAffected: n}, nil
}

func (e *Engine) execUpdate(upd *sql.Update, ec *expr.Ctx) (*Result, error) {
	tbl, ok := e.cat.Table(upd.Table)
	if !ok {
		return nil, fmt.Errorf("engine: table %q does not exist", upd.Table)
	}
	scope := expr.NewScope()
	scope.AddTable(upd.Table, tbl.Schema)
	binder := &expr.Binder{Scope: scope, Registry: e.reg, NoInline: e.opts.DisableUDFInlining}
	// Bind SET clauses: target column index + value expression.
	type setBound struct {
		col   int
		kind  types.Kind
		value expr.Bound
	}
	sets := make([]setBound, 0, len(upd.Sets))
	seen := make(map[int]bool)
	for _, s := range upd.Sets {
		idx := tbl.Schema.ColumnIndex(s.Column)
		if idx < 0 {
			return nil, fmt.Errorf("engine: table %s has no column %q", tbl.Name, s.Column)
		}
		if seen[idx] {
			return nil, fmt.Errorf("engine: column %q assigned twice", s.Column)
		}
		seen[idx] = true
		bound, err := binder.Bind(s.Value)
		if err != nil {
			return nil, err
		}
		sets = append(sets, setBound{col: idx, kind: tbl.Schema.Columns[idx].Kind, value: bound})
	}
	var pred expr.Bound
	if upd.Where != nil {
		p, err := binder.Bind(upd.Where)
		if err != nil {
			return nil, err
		}
		if p.Kind() != types.KindBool {
			return nil, fmt.Errorf("engine: UPDATE predicate is %s, not BOOL", p.Kind())
		}
		pred = p
	}
	// Phase 1: collect matching rows (no mutation mid-scan); the new
	// row values are computed against the pre-update image.
	type change struct {
		rid storage.RID
		row types.Row
	}
	var changes []change
	var rec []byte
	var row types.Row
	sc := tbl.Heap().Scan()
	defer sc.Close()
	for sc.Next() {
		rec = sc.AppendRecord(rec[:0])
		var err error
		if row, err = types.DecodeRowInto(row, rec, tbl.Schema); err != nil {
			return nil, err
		}
		if pred != nil {
			v, err := pred.Eval(ec, row)
			if err != nil {
				return nil, err
			}
			if v.IsNull() || !v.Bool {
				continue
			}
		}
		newRow := row.Clone()
		for _, s := range sets {
			v, err := s.value.Eval(ec, row)
			if err != nil {
				return nil, err
			}
			v, err = coerce(v, s.kind)
			if err != nil {
				return nil, fmt.Errorf("engine: column %q: %w", tbl.Schema.Columns[s.col].Name, err)
			}
			newRow[s.col] = v.Clone()
		}
		changes = append(changes, change{rid: sc.RID(), row: newRow})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Phase 2: apply as delete + insert (RIDs may change; the engine
	// has no indexes that would need maintenance).
	for _, ch := range changes {
		if _, err := tbl.Heap().Delete(ch.rid); err != nil {
			return nil, err
		}
		rec, err := types.EncodeRow(nil, tbl.Schema, ch.row)
		if err != nil {
			return nil, err
		}
		if _, err := tbl.Heap().Insert(rec); err != nil {
			return nil, err
		}
	}
	return &Result{RowsAffected: int64(len(changes))}, nil
}

func (e *Engine) execShow(n *sql.Show) (*Result, error) {
	switch n.What {
	case "tables":
		sch := types.NewSchema(
			types.Column{Name: "table_name", Kind: types.KindString},
			types.Column{Name: "columns", Kind: types.KindString},
		)
		var rows []types.Row
		for _, t := range e.cat.Tables() {
			rows = append(rows, types.Row{types.NewString(t.Name), types.NewString(t.Schema.String())})
		}
		return &Result{Schema: sch, Rows: rows}, nil
	case "functions":
		sch := types.NewSchema(
			types.Column{Name: "function_name", Kind: types.KindString},
			types.Column{Name: "design", Kind: types.KindString},
			types.Column{Name: "signature", Kind: types.KindString},
		)
		var rows []types.Row
		for _, u := range e.reg.List() {
			args := make([]string, len(u.ArgKinds()))
			for i, k := range u.ArgKinds() {
				args[i] = k.String()
			}
			sig := fmt.Sprintf("(%s) -> %s", strings.Join(args, ", "), u.ReturnKind())
			rows = append(rows, types.Row{
				types.NewString(u.Name()),
				types.NewString(u.Design().String()),
				types.NewString(sig),
			})
		}
		return &Result{Schema: sch, Rows: rows}, nil
	case "udfs":
		sch := types.NewSchema(
			types.Column{Name: "function_name", Kind: types.KindString},
			types.Column{Name: "design", Kind: types.KindString},
			types.Column{Name: "breaker", Kind: types.KindString},
			types.Column{Name: "window_failures", Kind: types.KindInt},
			types.Column{Name: "opens", Kind: types.KindInt},
			types.Column{Name: "sheds", Kind: types.KindInt},
			types.Column{Name: "quarantined", Kind: types.KindBool},
			types.Column{Name: "exec_design", Kind: types.KindString},
			types.Column{Name: "inline_bailout", Kind: types.KindString},
		)
		// Only isolated designs carry a breaker; in-process UDFs show a
		// "-" state (a crash there is the server's crash — the paper's
		// Design 1 trade-off — so there is nothing to trip).
		type breakerStatuser interface {
			BreakerStatus() (govern.BreakerStatus, bool)
		}
		type fleetRider interface {
			OnFleet() bool
		}
		var rows []types.Row
		for _, u := range e.reg.List() {
			state, failures, opens, sheds := "-", int64(0), int64(0), int64(0)
			quarantined := false
			if bs, ok := u.(breakerStatuser); ok {
				st, q := bs.BreakerStatus()
				state, failures, opens, sheds = st.State, int64(st.Failures), st.Opens, st.Sheds
				quarantined = q
			}
			// exec_design is where a call actually executes once the
			// binder has had its say: "inline" for translated bodies the
			// planner lowers into the expression tree, otherwise the
			// dispatch path — with the bail-out reason explaining why the
			// UDF still pays crossings.
			execDesign, bail := "", ""
			if inl, ok := u.(core.Inlinable); ok {
				p, b := inl.InlineProgram()
				if p != nil && !e.opts.DisableUDFInlining {
					execDesign = "inline"
				} else if p != nil {
					bail = "disabled"
				} else {
					bail = b
				}
			}
			if execDesign == "" {
				switch u.Design() {
				case core.DesignVMIntegrated:
					execDesign = "vm"
				case core.DesignNativeIsolated, core.DesignVMIsolated:
					execDesign = "isolated"
					if fr, ok := u.(fleetRider); ok && fr.OnFleet() {
						execDesign = "fleet"
					}
				default:
					execDesign = "native"
				}
			}
			if bail == "" {
				bail = "-"
			}
			rows = append(rows, types.Row{
				types.NewString(u.Name()),
				types.NewString(u.Design().String()),
				types.NewString(state),
				types.NewInt(failures),
				types.NewInt(opens),
				types.NewInt(sheds),
				types.NewBool(quarantined),
				types.NewString(execDesign),
				types.NewString(bail),
			})
		}
		return &Result{Schema: sch, Rows: rows}, nil
	case "executors":
		sch := types.NewSchema(
			types.Column{Name: "slot", Kind: types.KindInt},
			types.Column{Name: "pid", Kind: types.KindInt},
			types.Column{Name: "state", Kind: types.KindString},
			types.Column{Name: "resident_streams", Kind: types.KindInt},
			types.Column{Name: "idle_streams", Kind: types.KindInt},
			types.Column{Name: "warm_entries", Kind: types.KindInt},
			types.Column{Name: "restarts", Kind: types.KindInt},
			types.Column{Name: "last_ping_seconds", Kind: types.KindFloat},
		)
		// No fleet configured: an empty relation, not an error, so the
		// statement is portable across deployments.
		var rows []types.Row
		if e.fleet != nil {
			for _, info := range e.fleet.Snapshot() {
				lastPing := -1.0
				if info.LastPing >= 0 {
					lastPing = info.LastPing.Seconds()
				}
				rows = append(rows, types.Row{
					types.NewInt(int64(info.Slot)),
					types.NewInt(int64(info.PID)),
					types.NewString(info.State),
					types.NewInt(int64(info.Resident)),
					types.NewInt(int64(info.Idle)),
					types.NewInt(int64(info.Warm)),
					types.NewInt(int64(info.Restarts)),
					types.NewFloat(lastPing),
				})
			}
		}
		return &Result{Schema: sch, Rows: rows}, nil
	case "stats":
		sch := types.NewSchema(
			types.Column{Name: "metric", Kind: types.KindString},
			types.Column{Name: "value", Kind: types.KindString},
		)
		var rows []types.Row
		for _, st := range obs.Default.Dump() {
			rows = append(rows, types.Row{types.NewString(st.Name), types.NewString(st.Value)})
		}
		return &Result{Schema: sch, Rows: rows}, nil
	case "storage":
		return e.execShowStorage()
	case "statements":
		sch := types.NewSchema(
			types.Column{Name: "fingerprint", Kind: types.KindString},
			types.Column{Name: "calls", Kind: types.KindInt},
			types.Column{Name: "total_seconds", Kind: types.KindFloat},
			types.Column{Name: "mean_seconds", Kind: types.KindFloat},
			types.Column{Name: "p50_seconds", Kind: types.KindFloat},
			types.Column{Name: "p99_seconds", Kind: types.KindFloat},
			types.Column{Name: "rows", Kind: types.KindInt},
			types.Column{Name: "udf_crossings", Kind: types.KindInt},
			types.Column{Name: "wal_bytes", Kind: types.KindInt},
		)
		var rows []types.Row
		for _, st := range obs.Statements.Snapshot() {
			rows = append(rows, types.Row{
				types.NewString(st.Fingerprint),
				types.NewInt(st.Calls),
				types.NewFloat(st.Total.Seconds()),
				types.NewFloat(st.Mean.Seconds()),
				types.NewFloat(st.P50.Seconds()),
				types.NewFloat(st.P99.Seconds()),
				types.NewInt(st.Rows),
				types.NewInt(st.Crossings),
				types.NewInt(st.WALBytes),
			})
		}
		return &Result{Schema: sch, Rows: rows}, nil
	case "processlist":
		sch := types.NewSchema(
			types.Column{Name: "query_id", Kind: types.KindInt},
			types.Column{Name: "session_id", Kind: types.KindInt},
			types.Column{Name: "tenant", Kind: types.KindString},
			types.Column{Name: "phase", Kind: types.KindString},
			types.Column{Name: "elapsed_seconds", Kind: types.KindFloat},
			types.Column{Name: "rows", Kind: types.KindInt},
			types.Column{Name: "crossings", Kind: types.KindInt},
			types.Column{Name: "child_cpu_seconds", Kind: types.KindFloat},
			types.Column{Name: "killed", Kind: types.KindBool},
			types.Column{Name: "query", Kind: types.KindString},
		)
		var rows []types.Row
		for _, x := range obs.Live.Snapshot() {
			rows = append(rows, types.Row{
				types.NewInt(int64(x.ID)),
				types.NewInt(x.SessionID),
				types.NewString(x.Tenant),
				types.NewString(x.Phase),
				types.NewFloat(x.Elapsed.Seconds()),
				types.NewInt(x.Rows),
				types.NewInt(x.Crossings),
				types.NewFloat(x.ChildCPU.Seconds()),
				types.NewBool(x.Killed),
				types.NewString(x.Query),
			})
		}
		return &Result{Schema: sch, Rows: rows}, nil
	case "history":
		sch := types.NewSchema(
			types.Column{Name: "query_id", Kind: types.KindInt},
			types.Column{Name: "fingerprint", Kind: types.KindString},
			types.Column{Name: "tenant", Kind: types.KindString},
			types.Column{Name: "duration_seconds", Kind: types.KindFloat},
			types.Column{Name: "rows", Kind: types.KindInt},
			types.Column{Name: "crossings", Kind: types.KindInt},
			types.Column{Name: "child_cpu_seconds", Kind: types.KindFloat},
			types.Column{Name: "wal_bytes", Kind: types.KindInt},
			types.Column{Name: "plan_seconds", Kind: types.KindFloat},
			types.Column{Name: "exec_seconds", Kind: types.KindFloat},
			types.Column{Name: "crossing_wait_seconds", Kind: types.KindFloat},
			types.Column{Name: "wal_fsync_seconds", Kind: types.KindFloat},
			types.Column{Name: "admission_wait_seconds", Kind: types.KindFloat},
			types.Column{Name: "status", Kind: types.KindString},
		)
		var rows []types.Row
		for _, qr := range obs.History.Snapshot() {
			rows = append(rows, types.Row{
				types.NewInt(int64(qr.ID)),
				types.NewString(qr.Fingerprint),
				types.NewString(qr.Tenant),
				types.NewFloat(qr.Duration.Seconds()),
				types.NewInt(qr.Rows),
				types.NewInt(qr.Crossings),
				types.NewFloat(qr.ChildCPU.Seconds()),
				types.NewInt(qr.WALBytes),
				types.NewFloat(qr.Wait.Plan.Seconds()),
				types.NewFloat(qr.Wait.Exec.Seconds()),
				types.NewFloat(qr.Wait.CrossingWait.Seconds()),
				types.NewFloat(qr.Wait.WALFsync.Seconds()),
				types.NewFloat(qr.Wait.AdmissionWait.Seconds()),
				types.NewString(qr.Status),
			})
		}
		return &Result{Schema: sch, Rows: rows}, nil
	case "tenants":
		sch := types.NewSchema(
			types.Column{Name: "tenant", Kind: types.KindString},
			types.Column{Name: "sessions", Kind: types.KindInt},
			types.Column{Name: "mem_bytes", Kind: types.KindInt},
			types.Column{Name: "cpu_window_seconds", Kind: types.KindFloat},
			types.Column{Name: "cpu_total_seconds", Kind: types.KindFloat},
			types.Column{Name: "child_cpu_seconds", Kind: types.KindFloat},
		)
		var rows []types.Row
		if e.gov != nil {
			for _, t := range e.gov.Tenants() {
				rows = append(rows, types.Row{
					types.NewString(t.Name()),
					types.NewInt(t.Sessions()),
					types.NewInt(t.MemInUse()),
					types.NewFloat(t.CPUUsed().Seconds()),
					types.NewFloat(t.CPUTotal().Seconds()),
					types.NewFloat(t.ChildCPUUsed().Seconds()),
				})
			}
		}
		return &Result{Schema: sch, Rows: rows}, nil
	default:
		return nil, fmt.Errorf("engine: unknown SHOW target %q", n.What)
	}
}

func (e *Engine) execCreateFunction(cf *sql.CreateFunction) (*Result, error) {
	if cf.Language != "jaguar" {
		return nil, fmt.Errorf("engine: unsupported UDF language %q (only JAGUAR can be created from SQL; native UDFs are registered by the embedding program)", cf.Language)
	}
	if _, exists := e.reg.Lookup(cf.Name); exists && !cf.Replace {
		return nil, fmt.Errorf("engine: function %q already exists (use CREATE OR REPLACE)", cf.Name)
	}
	classBytes, err := jaguar.CompileToBytes(cf.Body, classNameFor(cf.Name))
	if err != nil {
		return nil, err
	}
	if err := e.installJaguarClass(cf.Name, classBytes, cf.Args, cf.Return, cf.Isolated); err != nil {
		return nil, err
	}
	// Persist so the function survives restarts (§6.4 portability).
	err = e.cat.PutFunction(&catalog.Function{
		Name:     cf.Name,
		Language: "jaguar",
		Isolated: cf.Isolated,
		ArgKinds: cf.Args,
		Return:   cf.Return,
		Code:     classBytes,
	}, true)
	if err != nil {
		return nil, err
	}
	mode := "integrated (Design 3)"
	if cf.Isolated {
		mode = "isolated (Design 4)"
	}
	return &Result{Message: fmt.Sprintf("function %s created, %s", cf.Name, mode)}, nil
}

// RegisterJaguar compiles Jaguar source and installs the named function
// programmatically (same path as CREATE FUNCTION). The entry method
// must have the same name as the function.
func (e *Engine) RegisterJaguar(name, src string, args []types.Kind, ret types.Kind, isolated, persist bool) error {
	classBytes, err := jaguar.CompileToBytes(src, classNameFor(name))
	if err != nil {
		return err
	}
	if err := e.installJaguarClass(name, classBytes, args, ret, isolated); err != nil {
		return err
	}
	return e.cat.PutFunction(&catalog.Function{
		Name: name, Language: "jaguar", Isolated: isolated,
		ArgKinds: args, Return: ret, Code: classBytes,
	}, persist)
}

// RegisterJaguarClass installs an already-compiled, serialized Jaguar
// class as a UDF (the client-to-server migration path: clients upload
// verified bytecode, not source).
func (e *Engine) RegisterJaguarClass(name string, classBytes []byte, method string, args []types.Kind, ret types.Kind, isolated, persist bool) error {
	if err := e.installJaguarClassMethod(name, classBytes, method, args, ret, isolated); err != nil {
		return err
	}
	return e.cat.PutFunction(&catalog.Function{
		Name: name, Language: "jaguar", Isolated: isolated,
		ArgKinds: args, Return: ret, Code: classBytes,
	}, persist)
}

func (e *Engine) installJaguarClass(name string, classBytes []byte, args []types.Kind, ret types.Kind, isolated bool) error {
	return e.installJaguarClassMethod(name, classBytes, name, args, ret, isolated)
}

func (e *Engine) installJaguarClassMethod(name string, classBytes []byte, method string, args []types.Kind, ret types.Kind, isolated bool) error {
	if isolated {
		u := isolate.NewVMIsolated(name, args, ret, isolate.VMSetup{
			ClassBytes: classBytes,
			Method:     method,
			Limits:     e.opts.UDFLimits,
		})
		return e.reg.Register(e.attachFleet(isolate.WithSupervision(u, e.opts.Supervision)))
	}
	// Each UDF loads in its own namespace: class-loader isolation.
	loader := e.vm.NewLoader("udf:" + strings.ToLower(name))
	loader.Unload(classNameFor(name)) // allow CREATE OR REPLACE
	lc, err := loader.Load(classBytes)
	if err != nil {
		return err
	}
	u, err := core.NewVM(core.VMUDFConfig{
		Name:   name,
		Class:  lc,
		Method: method,
		Args:   args,
		Return: ret,
		Limits: e.opts.UDFLimits,
	})
	if err != nil {
		return err
	}
	return e.reg.Register(u)
}

// RegisterNative installs a trusted Design 1 UDF.
func (e *Engine) RegisterNative(name string, args []types.Kind, ret types.Kind, fn core.NativeFunc) error {
	return e.reg.Register(core.NewNative(name, args, ret, fn))
}

// RegisterSFINative installs a bounds-checked native UDF (BC++).
func (e *Engine) RegisterSFINative(name string, args []types.Kind, ret types.Kind, fn core.NativeFunc) error {
	return e.reg.Register(core.NewSFINative(name, args, ret, fn))
}

// RegisterNativeIsolated installs a Design 2 UDF. The function name
// must also be present in the NativeTable passed to
// isolate.MaybeRunExecutor by this program's main.
func (e *Engine) RegisterNativeIsolated(name string, args []types.Kind, ret types.Kind) error {
	u := isolate.NewNativeIsolated(name, args, ret)
	return e.reg.Register(e.attachFleet(isolate.WithSupervision(u, e.opts.Supervision)))
}

// attachFleet routes an isolated UDF's crossings through the shared
// executor fleet when one is configured. Attach happens at registration
// time — before the first Invoke — as the fleet contract requires.
func (e *Engine) attachFleet(u core.UDF) core.UDF {
	if e.fleet == nil {
		return u
	}
	return isolate.WithFleet(u, e.fleet)
}

// Fleet exposes the shared executor fleet (nil when FleetSize is 0),
// for diagnostics like SHOW EXECUTORS and tests.
func (e *Engine) Fleet() *fleet.Fleet { return e.fleet }

// classNameFor derives the Jaguar class name for a SQL function.
func classNameFor(fn string) string { return "udf_" + strings.ToLower(fn) }

// coerce adapts a value to a column kind (INT -> FLOAT widening only).
func coerce(v types.Value, want types.Kind) (types.Value, error) {
	if v.IsNull() || v.Kind == want {
		return v, nil
	}
	if want == types.KindFloat && v.Kind == types.KindInt {
		return types.NewFloat(float64(v.Int)), nil
	}
	return types.Value{}, fmt.Errorf("expected %s, got %s", want, v.Kind)
}
