// Package predator is PREDATOR-Go: an embeddable object-relational
// database engine with secure, portable extensibility — a from-scratch
// Go reproduction of "Secure and Portable Database Extensibility"
// (Godfrey, Mayr, Seshadri, von Eicken; SIGMOD 1998).
//
// The engine supports user-defined functions (UDFs) under every
// server-side execution design the paper studies:
//
//   - Design 1 ("C++"): trusted native Go, in-process — fastest, unsafe.
//   - Design 2 ("IC++"): native code in an isolated executor process.
//   - Design 3 ("JNI"): Jaguar bytecode in the embedded, verified VM.
//   - Design 4: Jaguar bytecode in an isolated executor process.
//   - "BC++": native Go with explicit SFI bounds checks.
//
// Quick start:
//
//	db, err := predator.Open("stocks.db")
//	defer db.Close()
//	db.Exec(`CREATE TABLE stocks (sym STRING, history BYTES)`)
//	db.Exec(`CREATE FUNCTION investval(bytes) RETURNS float LANGUAGE jaguar AS $$
//	    func investval(h bytes) float {
//	        var sum int = 0;
//	        for (var i int = 0; i < len(h); i = i + 1) { sum = sum + h[i]; }
//	        if (len(h) == 0) { return 0.0; }
//	        return float(sum) / float(len(h));
//	    }
//	$$`)
//	res, err := db.Exec(`SELECT sym FROM stocks WHERE investval(history) > 5.0`)
//
// Programs that register isolated (Design 2/4) UDFs must call
// MaybeRunExecutor first thing in main; see that function's docs.
package predator

import (
	"io"
	"log/slog"
	"net/http"
	"time"

	"predator/internal/core"
	"predator/internal/engine"
	"predator/internal/govern"
	"predator/internal/isolate"
	"predator/internal/jaguar"
	"predator/internal/jvm"
	"predator/internal/obs"
	"predator/internal/storage"
	"predator/internal/types"
)

// Re-exported value machinery so callers never import internal packages.
type (
	// Value is a single typed SQL datum.
	Value = types.Value
	// Row is one result tuple.
	Row = types.Row
	// Kind identifies a column/value type.
	Kind = types.Kind
	// Schema describes result columns.
	Schema = types.Schema
	// Column is one schema column.
	Column = types.Column
	// Result is the outcome of one SQL statement.
	Result = engine.Result
	// UDFContext is passed to native UDF implementations.
	UDFContext = core.Ctx
	// NativeUDF is the Go signature of a native UDF.
	NativeUDF = core.NativeFunc
	// NativeTable maps isolated native UDF names to implementations
	// for executor processes.
	NativeTable = isolate.NativeTable
	// ResourceLimits is a per-invocation UDF resource policy.
	ResourceLimits = jvm.Limits
	// SecurityPolicy is the allow-list security manager for VM UDFs.
	SecurityPolicy = jvm.Policy
	// Permission names a guarded capability.
	Permission = jvm.Permission
	// CheckedBytes is the SFI accessor for BC++-style UDFs.
	CheckedBytes = core.CheckedBytes
	// Session is a per-client execution context (statement timeouts).
	Session = engine.Session
	// Supervision is the executor supervision policy for isolated UDFs
	// (deadlines, restart budget, shutdown grace).
	Supervision = isolate.Supervision
	// ExecutorStats are process-wide executor supervision counters.
	ExecutorStats = isolate.Stats
	// Fault is a classified isolated-UDF execution error.
	Fault = core.Fault
	// FaultClass classifies a UDF execution failure.
	FaultClass = core.FaultClass
	// TenantQuota is a per-tenant resource ceiling (memory reservation
	// and executor CPU time per window).
	TenantQuota = govern.Quota
)

// Fault classes (see core.FaultClass).
const (
	FaultUDF      = core.FaultUDF
	FaultExecutor = core.FaultExecutor
	FaultProtocol = core.FaultProtocol
	FaultTimeout  = core.FaultTimeout
	FaultQuota    = core.FaultQuota
	FaultOverload = core.FaultOverload
	FaultDiskFull = core.FaultDiskFull
	FaultStorage  = core.FaultStorage
)

// FaultClassOf extracts the fault class from an error chain.
func FaultClassOf(err error) FaultClass { return core.FaultClassOf(err) }

// Retryable reports whether err is transient — admission shedding, a
// statement-timeout kill — and the statement can be resubmitted as-is
// after backing off. Quota trips are deterministic and not retryable.
func Retryable(err error) bool { return core.Retryable(err) }

// IsTimeout reports whether an error is a deadline-expiry fault.
func IsTimeout(err error) bool { return core.IsTimeout(err) }

// ReadExecutorStats snapshots the supervision counters (executor
// starts, invocations, timeouts, kills, restarts).
func ReadExecutorStats() ExecutorStats { return isolate.ReadStats() }

// MetricsHandler serves the process-wide metrics registry in Prometheus
// text exposition format; mount it wherever the embedding program runs
// its HTTP server (SHOW STATS exposes the same registry over SQL).
func MetricsHandler() http.Handler { return obs.Handler(obs.Default) }

// ServeMetrics starts an HTTP listener on addr exposing the metrics
// registry at /metrics and the flight-recorder dump at
// /debug/flightrecorder. It blocks; run it on its own goroutine.
func ServeMetrics(addr string) error { return obs.Serve(addr, obs.Default) }

// StartFlightRecorder begins sampling the metrics registry into the
// in-memory flight-recorder ring every interval (≤0 picks a default).
// The ring is bounded; old samples fall off. Idempotent.
func StartFlightRecorder(interval time.Duration) { obs.Flight.Start(interval) }

// WriteFlightRecorder writes the flight-recorder dump — live process
// list, recent per-query records and the sampled metrics history — as
// indented JSON (the same document /debug/flightrecorder serves).
func WriteFlightRecorder(w io.Writer) error { return obs.WriteFlightDump(w) }

// EnableFlightRecording toggles per-statement flight recording (live
// registry + query store) process-wide. On by default; turning it off
// reduces the per-statement observability cost to a few nil checks.
func EnableFlightRecording(on bool) { obs.EnableRecording(on) }

// Value type kinds.
const (
	KindInt    = types.KindInt
	KindFloat  = types.KindFloat
	KindBool   = types.KindBool
	KindString = types.KindString
	KindBytes  = types.KindBytes
)

// Permissions grantable to VM UDFs.
const (
	PermCallback = jvm.PermCallback
	PermLog      = jvm.PermLog
	PermTime     = jvm.PermTime
	PermFile     = jvm.PermFile
)

// Value constructors.
var (
	// NewInt builds an INT value.
	NewInt = types.NewInt
	// NewFloat builds a FLOAT value.
	NewFloat = types.NewFloat
	// NewBool builds a BOOL value.
	NewBool = types.NewBool
	// NewString builds a STRING value.
	NewString = types.NewString
	// NewBytes builds a BYTES value.
	NewBytes = types.NewBytes
	// Null builds the NULL value.
	Null = types.Null
	// NewPolicy builds a security policy allowing exactly the listed
	// permissions.
	NewPolicy = jvm.NewPolicy
	// NewCheckedBytes wraps a slice in the SFI accessor.
	NewCheckedBytes = core.NewCheckedBytes
)

// DB is an open PREDATOR-Go database.
type DB struct {
	eng *engine.Engine
}

// Option customizes Open.
type Option func(*engine.Options)

// WithBufferPoolPages sets the page-cache capacity.
func WithBufferPoolPages(n int) Option {
	return func(o *engine.Options) { o.BufferPoolPages = n }
}

// WithSecurityPolicy sets the VM security manager for Jaguar UDFs.
func WithSecurityPolicy(p *SecurityPolicy) Option {
	return func(o *engine.Options) { o.Security = p }
}

// WithJITDisabled forces the Jaguar VM interpreter (ablation use).
func WithJITDisabled() Option {
	return func(o *engine.Options) { o.DisableJIT = true }
}

// WithUDFLimits sets the default per-invocation resource policy for
// Jaguar UDFs (fuel instructions, allocation bytes, call depth).
func WithUDFLimits(l ResourceLimits) Option {
	return func(o *engine.Options) { o.UDFLimits = l }
}

// WithLogger routes UDF sys.log output and engine notices.
func WithLogger(logf func(format string, args ...any)) Option {
	return func(o *engine.Options) { o.Logf = logf }
}

// WithSupervision sets the executor supervision policy for isolated
// (Design 2/4) UDFs registered through this database.
func WithSupervision(sup Supervision) Option {
	return func(o *engine.Options) { o.Supervision = sup }
}

// WithStatementTimeout sets the default statement deadline for
// sessions (overridable per session with SET STATEMENT_TIMEOUT).
func WithStatementTimeout(d time.Duration) Option {
	return func(o *engine.Options) { o.StatementTimeout = d }
}

// WithDurability selects the write-ahead-log fsync policy: "none" (no
// WAL; crashes may lose or corrupt recent writes), "commit" (fsync at
// each acknowledged mutating statement; the default) or "always"
// (fsync on every log append).
func WithDurability(mode string) Option {
	return func(o *engine.Options) { o.Durability = mode }
}

// WithCheckpointBytes sets the WAL size that triggers an automatic
// checkpoint (0 = the 8 MiB default, negative = manual CHECKPOINT
// statements only).
func WithCheckpointBytes(n int64) Option {
	return func(o *engine.Options) { o.CheckpointBytes = n }
}

// WithTraceDir enables SET TRACE = 'on' for sessions: each traced
// statement exports a Chrome trace-event JSON file (loadable in
// chrome://tracing or Perfetto) into dir. Sessions can always SET TRACE
// to an explicit file path, with or without this option.
func WithTraceDir(dir string) Option {
	return func(o *engine.Options) { o.TraceDir = dir }
}

// WithSlowQueryThreshold emits a structured log entry (see
// SetStructuredLogger) for every statement slower than d (0 disables).
func WithSlowQueryThreshold(d time.Duration) Option {
	return func(o *engine.Options) { o.SlowQuery = d }
}

// WithTenantQuota sets the default resource ceiling every tenant
// starts with; sessions adjust their own tenant's ceiling with
// SET QUOTA_MEMORY / SET QUOTA_CPU. The zero quota is unlimited.
func WithTenantQuota(q TenantQuota) Option {
	return func(o *engine.Options) { o.Quota = q }
}

// WithFleetSize runs isolated UDFs on a shared fleet of n multiplexed
// executor processes instead of one process per UDF, keeping process
// count O(cores) however many sessions and UDFs are live. 0 (the
// default) keeps the dedicated-executor lifecycle. Inspect the fleet
// with SHOW EXECUTORS.
func WithFleetSize(n int) Option {
	return func(o *engine.Options) { o.FleetSize = n }
}

// WithArchiveDir enables WAL archiving into dir: every log generation
// is preserved as a segment before truncation, enabling online
// BACKUP TO '<dir>' and point-in-time restore with predator-restore.
func WithArchiveDir(dir string) Option {
	return func(o *engine.Options) { o.ArchiveDir = dir }
}

// WithScrubInterval runs the background scrubber: a paced checksum
// pass over data pages and archived WAL segments every interval,
// repairing corrupt pages from WAL/archive/backup. 0 (the default)
// disables scrubbing. Inspect with SHOW STORAGE.
func WithScrubInterval(d time.Duration) Option {
	return func(o *engine.Options) { o.ScrubInterval = d }
}

// Backup takes a consistent online base backup into dir while writers
// continue (same as the SQL BACKUP TO statement). Requires
// WithArchiveDir. Restore with predator-restore (or storage.Restore).
func (db *DB) Backup(dir string) error {
	_, err := db.eng.Backup(dir)
	return err
}

// SetStructuredLogger routes the engine's structured logs — slow
// queries, crash recovery, executor restarts — to l (nil restores the
// default stderr text handler). Process-wide, like the metrics registry.
func SetStructuredLogger(l *slog.Logger) { obs.SetLogger(l) }

// Open opens (or creates) a database file.
func Open(path string, opts ...Option) (*DB, error) {
	var eopts engine.Options
	for _, o := range opts {
		o(&eopts)
	}
	eng, err := engine.Open(path, eopts)
	if err != nil {
		return nil, err
	}
	return &DB{eng: eng}, nil
}

// Close flushes and closes the database.
func (db *DB) Close() error { return db.eng.Close() }

// Exec runs one SQL statement.
func (db *DB) Exec(sql string) (*Result, error) { return db.eng.Exec(sql) }

// Engine exposes the underlying engine for advanced embedding.
func (db *DB) Engine() *engine.Engine { return db.eng }

// Checkpoint flushes every dirty page and truncates the write-ahead
// log (same as the SQL CHECKPOINT statement).
func (db *DB) Checkpoint() error { return db.eng.Checkpoint() }

// RecoveryInfo describes the redo pass that ran (if any) when the
// database file was opened.
type RecoveryInfo = storage.RecoveryInfo

// Recovered reports whether crash recovery replayed the write-ahead
// log when this database was opened, and what it replayed.
func (db *DB) Recovered() RecoveryInfo { return db.eng.Recovered() }

// NewSession creates an independent session (own statement timeout);
// servers give each client connection one.
func (db *DB) NewSession() *Session { return db.eng.NewSession() }

// RegisterNativeUDF installs a trusted, in-process Go UDF (Design 1).
func (db *DB) RegisterNativeUDF(name string, args []Kind, ret Kind, fn NativeUDF) error {
	return db.eng.RegisterNative(name, args, ret, fn)
}

// RegisterSFIUDF installs a bounds-checked native UDF ("BC++"). The
// implementation should access byte arguments via NewCheckedBytes.
func (db *DB) RegisterSFIUDF(name string, args []Kind, ret Kind, fn NativeUDF) error {
	return db.eng.RegisterSFINative(name, args, ret, fn)
}

// RegisterIsolatedNativeUDF installs a Design 2 UDF. The name must be
// present in the NativeTable the program passed to MaybeRunExecutor.
func (db *DB) RegisterIsolatedNativeUDF(name string, args []Kind, ret Kind) error {
	return db.eng.RegisterNativeIsolated(name, args, ret)
}

// RegisterJaguarUDF compiles Jaguar source and installs it (Design 3,
// or Design 4 when isolated is true). persist stores the verified
// class in the catalog so the function survives restarts.
func (db *DB) RegisterJaguarUDF(name, source string, args []Kind, ret Kind, isolated, persist bool) error {
	return db.eng.RegisterJaguar(name, source, args, ret, isolated, persist)
}

// PutObject stores a large object server-side and returns the handle
// UDFs can use with the cb_* callback builtins.
func (db *DB) PutObject(data []byte) int64 { return db.eng.Objects().Put(data) }

// RemoveObject drops a stored object.
func (db *DB) RemoveObject(handle int64) { db.eng.Objects().Remove(handle) }

// MaybeRunExecutor turns the process into a UDF executor when spawned
// as one (Designs 2/4); it must be the first call in main for any
// program that uses isolated UDFs:
//
//	func main() {
//	    predator.MaybeRunExecutor(myNatives)
//	    ...
//	}
func MaybeRunExecutor(natives NativeTable) { isolate.MaybeRunExecutor(natives) }

// CompileJaguar compiles Jaguar source to verified-loadable class
// bytes (the portable unit clients upload to servers).
func CompileJaguar(source, className string) ([]byte, error) {
	return jaguar.CompileToBytes(source, className)
}
