package main

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"

	"predator"
)

// A workload is one traffic mix over one freshly loaded database. The
// sizes are part of the definition: changing one makes a new workload
// and a new baseline.
type workload struct {
	name string
	why  string

	// open selects an open loop that offers rate statements per second
	// over all connections; otherwise each connection runs a closed loop.
	open bool
	rate float64

	poolPages int // 0 = the engine default of 1024 pages
	fleet     int // executor fleet size (0 = no fleet)

	table   string
	rows    int
	payload int // bytes in each row's byte array (scan workloads)

	udf   string   // function the statement calls
	gen   [3]int64 // generic UDF arguments: indep, dep, callbacks
	kinds []predator.Kind

	insert bool // the statement is a single-row INSERT
}

var (
	genericKinds = []predator.Kind{predator.KindBytes, predator.KindInt, predator.KindInt, predator.KindInt}
	scoreKinds   = []predator.Kind{predator.KindInt, predator.KindInt}
	trivKinds    = []predator.Kind{predator.KindBytes}
)

// loadConns is the number of load-generating connections. It is fixed,
// not derived from the machine, so results from two boxes compare.
const loadConns = 2

// openRate is point_open's offered load: 500 statements per second on
// each connection. On the reference sandbox that is a twentieth of what
// point_closed sustains and keeps each connection about a third busy;
// at 2000 the connections were 60 % busy and the tail was queueing
// noise (see README).
const openRate = 1000

var workloads = []*workload{
	{
		name:  "point_closed",
		why:   "per-statement fixed cost (wire, server, parse, plan + inline translation, obs) is nearly all of the time; storage, VM loops and crossings idle",
		table: "acct", rows: 64, udf: "score", kinds: scoreKinds,
	},
	{
		name: "point_open", open: true, rate: openRate,
		why:   "the same point statements offered at a fixed 1000/s: the latency independent users see below saturation, timed from when each was due",
		table: "acct", rows: 64, udf: "score", kinds: scoreKinds,
	},
	{
		name:      "scan_native",
		why:       "the paper's calibration query over a table twice the buffer pool: page reads, checksums and LRU churn do the work, the UDF layer almost none",
		poolPages: 128,
		table:     "big", rows: 2000, payload: 1000, udf: "triv", kinds: trivKinds,
	},
	{
		name:  "scan_vm",
		why:   "the generic UDF as Jaguar bytecode with two passes over 1000-byte arrays that fit the pool: bytecode execution dominates",
		table: "r1k", rows: 1000, payload: 1000, udf: "gen_vm", gen: [3]int64{10, 2, 0}, kinds: genericKinds,
	},
	{
		name:  "scan_isolated",
		why:   "the generic UDF as isolated native code on a fleet of 2, 2000 rows of 400 bytes: batch framing and pipe I/O of about a dozen crossings per statement dominate",
		fleet: 2,
		table: "r400", rows: 2000, payload: 400, udf: "gen_icpp", gen: [3]int64{10, 1, 0}, kinds: genericKinds,
	},
	{
		name:  "scan_callback",
		why:   "the same isolate layer used the other way: 200 tiny synchronous callback round trips per statement in place of a few big frames",
		fleet: 2,
		table: "r100cb", rows: 50, payload: 100, udf: "gen_icpp", gen: [3]int64{0, 0, 4}, kinds: genericKinds,
	},
	{
		name:   "insert_commit",
		why:    "single-row inserts, one table per connection, durability commit, default 8 MiB auto-checkpoint: WAL append, fsync and checkpoint stalls dominate",
		insert: true, payload: 64,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scoreSource is point_*'s UDF: small and loop-free, so the planner can
// inline it.
const scoreSource = `
func score(a int, b int) int {
	var s int = a * 3 + b;
	if (s > 1000) { s = s - 1000; }
	return s * 2 + 1;
}`

// scoreRef is the Go reference for scoreSource.
func scoreRef(a, b int64) int64 {
	s := a*3 + b
	if s > 1000 {
		s -= 1000
	}
	return s*2 + 1
}

// genericSource is the paper's generic UDF (section 5.1) in Jaguar.
const genericSource = `
func gen_vm(data bytes, indep int, dep int, ncb int) int {
	var acc int = 0;
	for (var i int = 0; i < indep; i = i + 1) { acc = acc + 1; }
	for (var p int = 0; p < dep; p = p + 1) {
		for (var j int = 0; j < len(data); j = j + 1) { acc = acc + data[j]; }
	}
	for (var k int = 0; k < ncb; k = k + 1) { cb_touch(0); }
	return acc;
}`

// genericRef is the Go reference for the generic UDF's result; the
// callbacks do not change it.
func genericRef(data []byte, indep, dep int64) int64 {
	var sum int64
	for _, b := range data {
		sum += int64(b)
	}
	return indep + dep*sum
}

// genericNative is the generic UDF as native code; it is what the
// executor children run for gen_icpp.
func genericNative(ctx *predator.UDFContext, args []predator.Value) (predator.Value, error) {
	data, indep, dep, ncb := args[0].Bytes, args[1].Int, args[2].Int, args[3].Int
	var acc int64
	for i := int64(0); i < indep; i++ {
		acc++
	}
	for p := int64(0); p < dep; p++ {
		for _, b := range data {
			acc += int64(b)
		}
	}
	for k := int64(0); k < ncb; k++ {
		if ctx == nil || ctx.Callback == nil {
			return predator.Value{}, fmt.Errorf("gen_icpp: no callback handler")
		}
		if err := ctx.Callback.Touch(0); err != nil {
			return predator.Value{}, err
		}
	}
	return predator.NewInt(acc), nil
}

// trivNative is the calibration UDF: it does nothing.
func trivNative(*predator.UDFContext, []predator.Value) (predator.Value, error) {
	return predator.NewInt(0), nil
}

// natives is the table the executor children need.
var natives = predator.NativeTable{"gen_icpp": genericNative}

// inputs are everything a run derives from its seed before the program
// sees a statement: table contents and the answers they imply.
type inputs struct {
	seed     int64
	a, b     []int64  // acct columns (point workloads)
	payloads [][]byte // byte array of each row (scan workloads)
	expect   []int64  // reference UDF result of each row
}

// Seed streams: each purpose draws from its own generator so that, for
// example, lengthening a window does not change the table contents.
const (
	streamTable = iota
	streamKeys
	streamArrivals
)

func rngFor(seed int64, stream, conn int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(stream)*7919 + int64(conn)*104729))
}

func makeInputs(w *workload, seed int64) *inputs {
	in := &inputs{seed: seed}
	rng := rngFor(seed, streamTable, 0)
	switch {
	case w.insert:
	case w.udf == "score":
		in.a, in.b, in.expect = make([]int64, w.rows), make([]int64, w.rows), make([]int64, w.rows)
		for i := range in.a {
			in.a[i], in.b[i] = rng.Int63n(1000), rng.Int63n(1000)
			in.expect[i] = scoreRef(in.a[i], in.b[i])
		}
	default:
		in.payloads, in.expect = make([][]byte, w.rows), make([]int64, w.rows)
		for i := range in.payloads {
			p := make([]byte, w.payload)
			rng.Read(p)
			in.payloads[i] = p
			if w.udf != "triv" {
				in.expect[i] = genericRef(p, w.gen[0], w.gen[1])
			}
		}
	}
	return in
}

// stream produces the statements of one connection.
type stream struct {
	w    *workload
	rng  *rand.Rand
	conn int
	n    int64
}

// insertStride spaces the row ids of concurrent inserters so that no
// two connections write the same id.
const insertStride = 8

// insertTable is the table a connection inserts into. Each load
// connection has its own: at this commit two sessions inserting into
// one table race in the heap file (rows acknowledged and then missing
// after a restart, "storage: page full" errors; see README), and a
// benchmark needs a workload on which no operation fails. The log, the
// fsync, the checkpoint lock and the buffer pool are still shared.
func insertTable(conn int) string { return fmt.Sprintf("ev%d", conn%loadConns) }

func newStream(w *workload, seed int64, conn int) *stream {
	return &stream{w: w, rng: rngFor(seed, streamKeys, conn), conn: conn}
}

// next returns the text of the connection's next statement and the key
// its answer is checked against (the row id for point and insert
// statements, unused for scans).
func (s *stream) next() (text string, key int64) {
	w := s.w
	s.n++
	switch {
	case w.insert:
		id := int64(s.conn) + insertStride*(s.n-1)
		var p [64]byte
		s.rng.Read(p[:])
		return fmt.Sprintf("INSERT INTO %s VALUES (%d, 'user%d', x'%s')", insertTable(s.conn), id, s.rng.Intn(1000), hex.EncodeToString(p[:])), id
	case w.udf == "score":
		k := int64(s.rng.Intn(w.rows))
		return fmt.Sprintf("SELECT id, score(a, b) FROM acct WHERE id = %d", k), k
	default:
		return w.scanText(), -1
	}
}

// udfRowsPerStmt is the number of rows one statement passes to its
// function: every row for a scan, the matching row for a point read.
func (w *workload) udfRowsPerStmt() int {
	if w.insert || w.udf == "score" {
		return 1
	}
	return w.rows
}

// scanText is the scan workloads' statement.
func (w *workload) scanText() string {
	if len(w.kinds) == 1 {
		return fmt.Sprintf("SELECT %s(ba) FROM %s WHERE id >= 0", w.udf, w.table)
	}
	return fmt.Sprintf("SELECT %s(ba, %d, %d, %d) FROM %s WHERE id >= 0", w.udf, w.gen[0], w.gen[1], w.gen[2], w.table)
}

// userBytesPerInsert is the user data in one insert_commit row: an
// 8-byte id, the name and the 64-byte payload.
func userBytesPerInsert(text string) int64 {
	i := strings.Index(text, "'user")
	j := strings.Index(text[i+1:], "'")
	return 8 + int64(j) + 64
}

// verify checks one answer against the Go reference. Any difference is
// a failed operation.
func (w *workload) verify(in *inputs, key int64, rows []predator.Row, affected int64) bool {
	switch {
	case w.insert:
		return affected == 1
	case w.udf == "score":
		return len(rows) == 1 && len(rows[0]) == 2 &&
			rows[0][0].Kind == predator.KindInt && rows[0][0].Int == key &&
			rows[0][1].Kind == predator.KindInt && rows[0][1].Int == in.expect[key]
	default:
		if len(rows) != w.rows {
			return false
		}
		for i, r := range rows {
			if len(r) != 1 || r[0].Kind != predator.KindInt || r[0].Int != in.expect[i] {
				return false
			}
		}
		return true
	}
}

// load creates the workload's table, fills it from the inputs and
// registers its functions. It returns the user bytes inserted.
func (w *workload) load(db *predator.DB, in *inputs) (int64, error) {
	var user int64
	switch {
	case w.insert:
		for c := 0; c < loadConns; c++ {
			if _, err := db.Exec(fmt.Sprintf("CREATE TABLE %s (id INT, name STRING, body BYTES)", insertTable(c))); err != nil {
				return 0, err
			}
		}
		return 0, nil
	case w.udf == "score":
		if _, err := db.Exec("CREATE TABLE acct (id INT, a INT, b INT)"); err != nil {
			return 0, err
		}
		err := insertBatches(db, "acct", w.rows, func(sb *strings.Builder, i int) {
			fmt.Fprintf(sb, "(%d, %d, %d)", i, in.a[i], in.b[i])
		})
		if err != nil {
			return 0, err
		}
		user = int64(w.rows) * 24
		if err := db.RegisterJaguarUDF("score", scoreSource, scoreKinds, predator.KindInt, false, false); err != nil {
			return 0, err
		}
	default:
		if _, err := db.Exec(fmt.Sprintf("CREATE TABLE %s (id INT, ba BYTES)", w.table)); err != nil {
			return 0, err
		}
		err := insertBatches(db, w.table, w.rows, func(sb *strings.Builder, i int) {
			fmt.Fprintf(sb, "(%d, x'%s')", i, hex.EncodeToString(in.payloads[i]))
		})
		if err != nil {
			return 0, err
		}
		user = int64(w.rows) * int64(8+w.payload)
		switch w.udf {
		case "triv":
		case "gen_vm":
			if err := db.RegisterJaguarUDF("gen_vm", genericSource, genericKinds, predator.KindInt, false, false); err != nil {
				return 0, err
			}
		case "gen_icpp":
			if err := db.RegisterIsolatedNativeUDF("gen_icpp", genericKinds, predator.KindInt); err != nil {
				return 0, err
			}
		}
	}
	// triv is scan_native's function and, with the workload's own
	// signature, the base the traced pass subtracts from the workload's
	// function (udf.overhead_ns_per_row).
	if err := db.RegisterNativeUDF("triv", w.kinds, predator.KindInt, trivNative); err != nil {
		return 0, err
	}
	// Checkpoint so that the table is in the data file and a page the
	// pool evicts is read back from there.
	return user, db.Checkpoint()
}

// loadBatch is the number of rows per INSERT statement while loading.
const loadBatch = 50

func insertBatches(db *predator.DB, table string, rows int, row func(sb *strings.Builder, i int)) error {
	var sb strings.Builder
	for lo := 0; lo < rows; lo += loadBatch {
		sb.Reset()
		fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", table)
		for i := lo; i < rows && i < lo+loadBatch; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			row(&sb, i)
		}
		if _, err := db.Exec(sb.String()); err != nil {
			return err
		}
	}
	return nil
}

// options are the engine options of the workload; everything not listed
// keeps its default (durability commit, 8 MiB auto-checkpoint, 1024
// pool pages, JIT and inlining on, no fuel limit, flight recording on).
func (w *workload) options() []predator.Option {
	var opts []predator.Option
	if w.poolPages > 0 {
		opts = append(opts, predator.WithBufferPoolPages(w.poolPages))
	}
	if w.fleet > 0 {
		opts = append(opts, predator.WithFleetSize(w.fleet))
	}
	return opts
}
