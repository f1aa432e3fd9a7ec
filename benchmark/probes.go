package main

// probes.go is the benchmark's probe surface: every call into an
// internal package is in this file, so a refactor of the layers below
// knows exactly which signatures the benchmark pins (listed in
// README.md). The end-to-end pass runs none of it but readEngineCounts,
// for the bytes behind write_amp.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"predator"
	"predator/internal/core"
	"predator/internal/exec"
	"predator/internal/expr"
	"predator/internal/plan"
	"predator/internal/sql"
	"predator/internal/storage"
	"predator/internal/types"
	"predator/internal/wire"
)

// pageSize converts page counts to bytes (write_amp).
const pageSize = storage.PageSize

// engineCounts is a snapshot of the engine's own counters.
type engineCounts struct {
	buf  storage.BufferStats
	disk storage.DiskStats
	wal  storage.WALStats
}

func readEngineCounts(db *predator.DB) engineCounts {
	eng := db.Engine()
	return engineCounts{buf: eng.BufferStats(), disk: eng.DiskStats(), wal: eng.WALStats()}
}

// bytesWritten is everything the engine has written to the database
// directory: log appends and data-page writes.
func (c engineCounts) bytesWritten() float64 {
	return float64(c.wal.Bytes) + float64(c.disk.Writes)*pageSize
}

// showStats reads SHOW STATS over the control connection into a map
// from the metric's full name (labels included) to its value.
func showStats(ctl *predator.Client) (map[string]float64, error) {
	res, err := ctl.Exec("SHOW STATS")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(res.Rows))
	for _, r := range res.Rows {
		if v, err := strconv.ParseFloat(r[1].Str, 64); err == nil {
			out[r[0].Str] = v
		}
	}
	return out, nil
}

// counterDelta is the growth of the counters whose name starts with
// prefix over the counted phase. base and before are two back-to-back
// reads taken before the phase, so before-base is what reading the
// counters itself costs, and that is subtracted. ok is false when the
// program exports no such counter.
func counterDelta(base, before, after map[string]float64, prefix string) (delta float64, ok bool) {
	for name, a := range after {
		if strings.HasPrefix(name, prefix) {
			ok = true
			delta += (a - before[name]) - (before[name] - base[name])
		}
	}
	return delta, ok
}

// layerProbe holds what the hand replay and the bare probes need.
type layerProbe struct {
	e       *env
	rec     *recorder
	sess    *predator.Session
	planner *plan.Planner
	heap    *storage.HeapFile
	udf     core.UDF
	base    core.UDF
	args    [][]types.Value // argument row of each table row, for the workload's function
	quiet   [][]types.Value // the same with the callback count set to 0, when the workload has callbacks
	batch   int
}

func newLayerProbe(e *env, rec *recorder) (*layerProbe, error) {
	eng := e.db.Engine()
	p := &layerProbe{
		e: e, rec: rec,
		sess:    e.db.NewSession(),
		planner: &plan.Planner{Catalog: eng.Catalog(), Registry: eng.Registry()},
		batch:   eng.UDFBatchRows(),
	}
	if e.w.insert {
		return p, nil
	}
	tbl, ok := eng.Catalog().Table(e.w.table)
	if !ok {
		return nil, fmt.Errorf("probe: no table %s", e.w.table)
	}
	p.heap = tbl.Heap()
	if p.udf, ok = eng.Registry().Lookup(e.w.udf); !ok {
		return nil, fmt.Errorf("probe: no function %s", e.w.udf)
	}
	if p.base, ok = eng.Registry().Lookup("triv"); !ok {
		return nil, fmt.Errorf("probe: no function triv")
	}
	sc := p.heap.Scan()
	for sc.Next() {
		row, err := types.DecodeRow(sc.Record(), tbl.Schema)
		if err != nil {
			return nil, err
		}
		p.args = append(p.args, e.w.udfArgs(row, e.w.gen))
		if e.w.gen[2] > 0 {
			p.quiet = append(p.quiet, e.w.udfArgs(row, [3]int64{e.w.gen[0], e.w.gen[1], 0}))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(p.args) != e.w.rows {
		return nil, fmt.Errorf("probe: table %s holds %d rows, want %d", e.w.table, len(p.args), e.w.rows)
	}
	return p, nil
}

// udfArgs is the argument list the workload's statement passes to its
// function for one table row.
func (w *workload) udfArgs(row types.Row, gen [3]int64) []types.Value {
	switch len(w.kinds) {
	case 1:
		return []types.Value{row[1]}
	case 2:
		return []types.Value{row[1], row[2]}
	default:
		return []types.Value{row[1], types.NewInt(gen[0]), types.NewInt(gen[1]), types.NewInt(gen[2])}
	}
}

// evalCtx is the evaluation context the engine would build for an
// ungoverned statement without a deadline.
func (p *layerProbe) evalCtx() *expr.Ctx {
	return &expr.Ctx{
		UDF:      &core.Ctx{Callback: p.e.db.Engine().Objects()},
		UDFBatch: p.batch,
	}
}

// sessionExec runs the statement in-process, below wire and server.
func (p *layerProbe) sessionExec(stmt int, text string, key int64) bool {
	sp := p.rec.begin("engine.session_exec", stmt, -1)
	res, err := p.sess.Exec(text)
	p.rec.end(sp)
	return err == nil && p.e.w.verify(p.e.in, key, res.Rows, res.RowsAffected)
}

// replay walks a SELECT through the layers by hand, one span each.
func (p *layerProbe) replay(stmt int, text string, key int64) bool {
	root := p.rec.begin("replay", stmt, -1)
	defer p.rec.end(root)

	sp := p.rec.begin("sql.parse", stmt, root)
	parsed, err := sql.Parse(text)
	p.rec.end(sp)
	if err != nil {
		return false
	}
	sel, ok := parsed.(*sql.Select)
	if !ok {
		return true // an INSERT has no plan to replay
	}

	sp = p.rec.begin("plan.plan", stmt, root)
	op, err := p.planner.PlanSelect(sel)
	p.rec.end(sp)
	if err != nil {
		return false
	}

	sp = p.rec.begin("exec.run", stmt, root)
	rows, err := exec.Run(op, p.evalCtx())
	p.rec.end(sp)
	if err != nil || !p.e.w.verify(p.e.in, key, rows, 0) {
		return false
	}

	sp = p.rec.begin("wire.encode_result", stmt, root)
	payload := wire.EncodeResult(op.Schema(), rows, 0, "", "")
	p.rec.end(sp)

	sp = p.rec.begin("wire.decode_result", stmt, root)
	_, back, _, _, _, err := wire.DecodeResult(payload)
	p.rec.end(sp)
	return err == nil && len(back) == len(rows)
}

// scan is the bare storage probe: the table's pages through the buffer
// pool and every record copied out, nothing decoded.
func (p *layerProbe) scan(stmt int) bool {
	sp := p.rec.begin("storage.scan", stmt, -1)
	n := 0
	sc := p.heap.Scan()
	for sc.Next() {
		n++
	}
	p.rec.end(sp)
	return sc.Err() == nil && n == p.e.w.rows
}

// invoke is the bare UDF probe: the function over the argument rows the
// statement would pass it, batched the way the executor batches. With
// expect non-nil each result is compared with the reference.
func (p *layerProbe) invoke(name string, stmt int, u core.UDF, rows [][]types.Value, expect []int64) bool {
	ctx := p.evalCtx().UDF
	ok := true
	bu, batched := u.(core.BatchUDF)
	arity := len(rows[0])
	flat := make([]types.Value, 0, p.batch*arity)
	out := make([]core.BatchResult, p.batch)
	sp := p.rec.begin(name, stmt, -1)
	if batched && !u.Design().Integrated() && p.batch > 1 {
		for lo := 0; lo < len(rows); lo += p.batch {
			hi := min(lo+p.batch, len(rows))
			flat = flat[:0]
			for _, r := range rows[lo:hi] {
				flat = append(flat, r...)
			}
			if err := bu.InvokeBatch(ctx, arity, flat, out[:hi-lo]); err != nil {
				ok = false
				break
			}
			for i, r := range out[:hi-lo] {
				if r.Err != nil || (expect != nil && r.Value.Int != expect[lo+i]) {
					ok = false
				}
			}
		}
	} else {
		for i, r := range rows {
			v, err := u.Invoke(ctx, r)
			if err != nil || (expect != nil && v.Int != expect[i]) {
				ok = false
			}
		}
	}
	p.rec.end(sp)
	return ok
}

// procCounts is a snapshot of the Go runtime's allocation and GC totals.
type procCounts struct {
	allocBytes uint64
	pauseNS    uint64
	gcCycles   uint32
}

func readProcCounts() procCounts {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procCounts{allocBytes: m.TotalAlloc, pauseNS: m.PauseTotalNs, gcCycles: m.NumGC}
}

// dbBytes is the size of the database directory: data file and log.
func dbBytes(dir string) (float64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, ent := range entries {
		info, err := os.Stat(filepath.Join(dir, ent.Name()))
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return float64(total), nil
}

// tracedResult is what the traced pass reports.
type tracedResult struct {
	metrics   map[string]float64
	absent    []string // per-layer metrics this workload or program does not have; reported as 0
	attempted int64
	failed    int64
	firstErr  string
	spans     []span
}

// Shares of the traced run's window given to each phase.
const (
	shareLoadgen = 0.20 // the load generator as in the end-to-end pass, for loadgen.*
	shareCounted = 0.40 // one connection, counters read around it, traced and untraced blocks
	// the rest: layered rounds, one statement through every probe in turn
)

// tracedBlock is the length of one traced or untraced block of the
// counted phase.
const tracedBlock = 50 * time.Millisecond

// traceConn and sessionConn are the stream ids (and so the insert id
// lanes) of the traced pass's wire statements and in-process statements.
const (
	traceConn   = loadConns
	sessionConn = loadConns + 1
)

// runTraced is the traced pass: the calibrate-and-subtract method of
// the paper's section 5, generalised. It times calls into each layer's
// public functions from outside and reports medians and differences of
// medians; nothing inside the program is instrumented.
func runTraced(e *env, seed int64, window time.Duration) (*tracedResult, error) {
	w := e.w
	tr := &tracedResult{metrics: make(map[string]float64)}
	set := func(name string, v float64) { tr.metrics[name] = v }
	absent := func(names ...string) {
		for _, n := range names {
			tr.metrics[n] = 0
			tr.absent = append(tr.absent, n)
		}
	}
	fail := func(what string) {
		tr.failed++
		if tr.firstErr == "" {
			tr.firstErr = what
		}
	}
	share := func(f float64) time.Duration { return time.Duration(float64(window) * f) }

	// Phase 1: the load generator itself.
	lg := share(shareLoadgen)
	lr, err := runLoad(e, seed, lg/4, lg-lg/4)
	if err != nil {
		return nil, err
	}
	tr.attempted, tr.failed, tr.firstErr = lr.attempted, lr.failed, lr.firstErr
	_, lats, lates := lr.columns()
	set("loadgen.achieved_per_s", float64(len(lats))/(lg-lg/4).Seconds())
	set("loadgen.samples", float64(len(lats)))
	set("loadgen.late_p99_ms", percentile(lates, 99))
	set("proc.cpu_ms_per_stmt", (lr.cpu[slices]-lr.cpu[0])*1e3/float64(len(lats)))

	// Phase 2: one connection, counters read before and after. Blocks
	// of statements alternate between traced (a client.exec span around
	// every Client.Exec) and untraced (only the block is timed), so that
	// drift cancels in trace.overhead_frac.
	conn := e.conns[0]
	st := newStream(w, seed, traceConn)
	rec := newRecorder()
	probe, err := newLayerProbe(e, rec)
	if err != nil {
		return nil, err
	}
	stats0, err := showStats(e.ctl)
	if err != nil {
		return nil, err
	}
	stats1, err := showStats(e.ctl)
	if err != nil {
		return nil, err
	}
	eng1, proc1 := readEngineCounts(e.db), readProcCounts()
	childCPU1, err := childCPUSeconds(e.children)
	if err != nil {
		return nil, err
	}
	stmt := 0
	var counted, userBytes float64
	var perStmtUS [2][]float64 // mean statement time of each untraced [0] and traced [1] block
	for end := time.Now().Add(share(shareCounted)); time.Now().Before(end); {
		for traced := 0; traced < 2; traced++ {
			n := 0
			blockStart := time.Now()
			for blockEnd := blockStart.Add(tracedBlock); n < 2 || time.Now().Before(blockEnd); n++ {
				text, key := st.next()
				sp := -1
				if traced == 1 {
					sp = rec.begin("client.exec", stmt, -1)
				}
				res, err := conn.Exec(text)
				if traced == 1 {
					rec.end(sp)
					stmt++
				}
				tr.attempted++
				if err != nil || !w.verify(e.in, key, res.Rows, res.RowsAffected) {
					fail(describeFailure(text, err))
				} else if w.insert {
					userBytes += float64(userBytesPerInsert(text))
				}
			}
			perStmtUS[traced] = append(perStmtUS[traced], float64(time.Since(blockStart))/1e3/float64(n))
			counted += float64(n)
		}
	}
	childCPU2, err := childCPUSeconds(e.children)
	if err != nil {
		return nil, err
	}
	eng2, proc2 := readEngineCounts(e.db), readProcCounts()
	stats2, err := showStats(e.ctl)
	if err != nil {
		return nil, err
	}
	untraced := median(perStmtUS[0])
	set("trace.overhead_frac", (median(perStmtUS[1])-untraced)/untraced)
	countedSpans := len(rec.spans)

	// Phase 3: layered rounds. Each round takes one statement through
	// every probe in turn, so the layers are compared on the same
	// statement under the same conditions.
	sst := newStream(w, seed, sessionConn)
	callbacks := w.gen[2] > 0
	var pings []float64
	for end := time.Now().Add(window - share(shareLoadgen+shareCounted)); time.Now().Before(end); stmt++ {
		text, key := st.next()
		stext, skey := text, key
		if w.insert {
			stext, skey = sst.next() // an insert cannot be repeated: a fresh id
		}
		overWire := func() {
			sp := rec.begin("client.exec", stmt, -1)
			res, err := conn.Exec(text)
			rec.end(sp)
			tr.attempted++
			if err != nil || !w.verify(e.in, key, res.Rows, res.RowsAffected) {
				fail(describeFailure(text, err))
			}
		}
		inProcess := func() {
			tr.attempted++
			if !probe.sessionExec(stmt, stext, skey) {
				fail("engine.session_exec: " + describeFailure(stext, nil))
			}
		}
		replay := func() {
			if !probe.replay(stmt, text, key) {
				fail("replay: " + describeFailure(text, nil))
			}
		}
		// The three whole-statement probes take turns going first. The
		// one that runs later finds caches and executors warmer, and a
		// round allocates the same amounts in the same order, so GC
		// cycles would otherwise land on the same probe every round;
		// rotating cancels both in the residuals.
		whole := [3]func(){overWire, inProcess, replay}
		for i := range whole {
			whole[(stmt+i)%len(whole)]()
		}
		if !w.insert {
			if !probe.scan(stmt) {
				fail("storage.scan: wrong row count")
			}
			rows, quiet, expect := probe.args, probe.quiet, e.in.expect
			if key >= 0 { // a point statement passes one row to its function
				rows, expect = rows[key:key+1], expect[key:key+1]
			}
			if w.udf == "triv" {
				expect = nil
			}
			if !probe.invoke("udf.invoke", stmt, probe.udf, rows, expect) {
				fail("udf.invoke: wrong answer")
			}
			if !probe.invoke("udf.invoke_base", stmt, probe.base, rows, nil) {
				fail("udf.invoke_base: error")
			}
			if callbacks && !probe.invoke("udf.invoke_nocb", stmt, probe.udf, quiet, expect) {
				fail("udf.invoke_nocb: wrong answer")
			}
		}
		t0 := time.Now()
		if err := conn.Ping(); err != nil {
			fail("ping: " + err.Error())
		}
		pings = append(pings, float64(time.Since(t0))/1e3)
	}
	tr.spans = rec.spans
	rounds := rec.spans[countedSpans:]

	// Times: medians over the rounds; residuals are differences of medians.
	med := func(name string) float64 { return median(durationsUS(rounds, name)) }
	client, session := med("client.exec"), med("engine.session_exec")
	parse := med("sql.parse")
	set("client.exec_us", client)
	set("wire.rtt_us", median(pings))
	set("engine.session_exec_us", session)
	set("server.dispatch_us", client-session)
	set("sql.parse_us", parse)
	rowsPerStmt := float64(w.udfRowsPerStmt())
	if w.insert {
		// An INSERT has no plan, operator tree or UDF to replay: the
		// whole of the statement below the parser is engine.overhead_us.
		set("engine.overhead_us", session-parse)
		absent("plan.plan_us", "exec.run_us", "exec.operator_us", "wire.encode_result_us", "wire.decode_result_us",
			"storage.scan_us", "udf.invoke_ns_per_row", "udf.overhead_ns_per_row")
	} else {
		planT, run, scan, invoke, base := med("plan.plan"), med("exec.run"), med("storage.scan"), med("udf.invoke"), med("udf.invoke_base")
		set("plan.plan_us", planT)
		set("exec.run_us", run)
		set("engine.overhead_us", session-parse-planT-run)
		set("exec.operator_us", run-scan-invoke)
		set("wire.encode_result_us", med("wire.encode_result"))
		set("wire.decode_result_us", med("wire.decode_result"))
		set("storage.scan_us", scan)
		set("udf.invoke_ns_per_row", invoke*1e3/rowsPerStmt)
		set("udf.overhead_ns_per_row", (invoke-base)*1e3/rowsPerStmt)
		if w.udf == "gen_vm" && w.gen[1] > 0 {
			set("jvm.ns_per_byte", (invoke-base)*1e3/(rowsPerStmt*float64(w.payload)*float64(w.gen[1])))
		}
	}
	if _, ok := tr.metrics["jvm.ns_per_byte"]; !ok {
		absent("jvm.ns_per_byte")
	}

	// Counts: deltas over phase 2, per counted statement.
	delta := func(prefix string) (float64, bool) { return counterDelta(stats0, stats1, stats2, prefix) }
	perStmt := func(metric, prefix string) float64 {
		d, ok := delta(prefix)
		if !ok {
			absent(metric)
			return 0
		}
		set(metric, d/counted)
		return d / counted
	}
	perStmt("wire.bytes_per_stmt", "predator_wire_bytes_out_total")
	if d, ok := delta("predator_server_admission_shed_total"); ok {
		set("server.shed_total", d)
	} else {
		absent("server.shed_total")
	}
	waitSum, _ := delta(`predator_server_admission_wait_seconds_sum_seconds{gate="queries"}`)
	if waitN, ok := delta(`predator_server_admission_wait_seconds_count{gate="queries"}`); ok && waitN > 0 {
		set("govern.admission_wait_us", waitSum/waitN*1e6)
	} else {
		absent("govern.admission_wait_us")
	}
	crossings := perStmt("udf.crossings_per_stmt", "predator_udf_crossings_total")
	if crossings > 0 {
		set("udf.rows_per_crossing", rowsPerStmt/crossings)
	} else {
		absent("udf.rows_per_crossing")
	}
	if scanned, ok := delta(`predator_exec_rows_total{op="seqscan"}`); ok && !w.insert {
		set("exec.rows_examined_per_row_returned", scanned/(counted*rowsPerStmt))
	} else {
		absent("exec.rows_examined_per_row_returned")
	}
	inlined, err := udfInlined(e.ctl, w.udf)
	if err != nil {
		return nil, err
	}
	set("plan.udf_inlined", inlined)

	set("fleet.executors", float64(len(e.children)))
	if w.fleet > 0 {
		// A batch is one frame out and one back. With callbacks in the
		// statement, the crossing is timed on the same rows without them
		// and a callback round trip is what each one adds.
		invoke := med("udf.invoke")
		frames := math.Ceil(rowsPerStmt / float64(probe.batch))
		if callbacks {
			quiet := med("udf.invoke_nocb")
			set("isolate.crossing_us", quiet/frames)
			set("isolate.callback_rtt_us", (invoke-quiet)/(rowsPerStmt*float64(w.gen[2])))
		} else {
			set("isolate.crossing_us", invoke/frames)
			absent("isolate.callback_rtt_us")
		}
		set("isolate.child_cpu_ms_per_stmt", (childCPU2-childCPU1)*1e3/counted)
		restarts, _ := delta("predator_isolate_restarts_total")
		fleetRestarts, _ := delta("predator_fleet_restarts_total")
		set("isolate.restarts_total", restarts+fleetRestarts)
		opens := perStmt("fleet.stream_opens_per_stmt", "predator_fleet_stream_opens_total") * counted
		reuses, _ := delta("predator_fleet_stream_reuses_total")
		if hits, ok := delta("predator_fleet_warm_hits_total"); ok && opens+reuses > 0 {
			set("fleet.warm_hit_ratio", hits/(opens+reuses))
		} else {
			absent("fleet.warm_hit_ratio")
		}
	} else {
		absent("isolate.crossing_us", "isolate.callback_rtt_us", "isolate.child_cpu_ms_per_stmt",
			"isolate.restarts_total", "fleet.stream_opens_per_stmt", "fleet.warm_hit_ratio")
	}

	hits, misses := float64(eng2.buf.Hits-eng1.buf.Hits), float64(eng2.buf.Misses-eng1.buf.Misses)
	if hits+misses > 0 {
		set("storage.pool_hit_ratio", hits/(hits+misses))
	} else {
		absent("storage.pool_hit_ratio")
	}
	set("storage.pool_evictions_per_stmt", float64(eng2.buf.Evictions-eng1.buf.Evictions)/counted)
	set("storage.page_reads_per_stmt", float64(eng2.disk.Reads-eng1.disk.Reads)/counted)
	set("storage.page_writes_per_stmt", float64(eng2.disk.Writes-eng1.disk.Writes)/counted)
	set("storage.wal_bytes_per_stmt", float64(eng2.wal.Bytes-eng1.wal.Bytes)/counted)
	fsyncs := float64(eng2.wal.Fsyncs - eng1.wal.Fsyncs)
	set("storage.wal_fsyncs_per_stmt", fsyncs/counted)
	if fsyncs > 0 {
		set("storage.wal_fsync_us", float64(eng2.wal.FsyncNanos-eng1.wal.FsyncNanos)/fsyncs/1e3)
	} else {
		absent("storage.wal_fsync_us")
	}
	if d, ok := delta("predator_wal_checkpoints_total"); ok {
		set("storage.checkpoints_per_kstmt", d/counted*1e3)
	} else {
		absent("storage.checkpoints_per_kstmt")
	}
	if userBytes > 0 {
		set("storage.write_amp", (eng2.bytesWritten()-eng1.bytesWritten())/userBytes)
	} else {
		absent("storage.write_amp")
	}
	size, err := dbBytes(e.dir)
	if err != nil {
		return nil, err
	}
	if total := float64(e.userBytes+lr.userBytes) + userBytes; total > 0 {
		set("storage.db_bytes_per_user_byte", size/total)
	} else {
		absent("storage.db_bytes_per_user_byte")
	}

	set("proc.alloc_kb_per_stmt", float64(proc2.allocBytes-proc1.allocBytes)/1024/counted)
	set("proc.gc_pause_ms_total", float64(proc2.pauseNS-proc1.pauseNS)/1e6)
	set("proc.gc_cycles", float64(proc2.gcCycles-proc1.gcCycles))
	return tr, nil
}

// udfInlined reports, as 0 or 1, whether the planner lowers the
// function into the plan. SHOW UDFS states where a call executes;
// EXPLAIN does not print the expressions of a projection.
func udfInlined(ctl *predator.Client, fn string) (float64, error) {
	if fn == "" {
		return 0, nil
	}
	res, err := ctl.Exec("SHOW UDFS")
	if err != nil {
		return 0, err
	}
	name, design := res.Schema.ColumnIndex("function_name"), res.Schema.ColumnIndex("exec_design")
	if name < 0 || design < 0 {
		return 0, nil
	}
	for _, r := range res.Rows {
		if r[name].Str == fn && r[design].Str == "inline" {
			return 1, nil
		}
	}
	return 0, nil
}
