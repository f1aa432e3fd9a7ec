package predator

// The paper's evaluation (§5, Figs. 4–8) as a shape test. The figures
// are claims about who wins and by roughly what factor, not about
// absolute seconds, so TestPaperShapes asserts each one as an
// inequality with a wide margin at a fixed, small scale, and logs the
// measured tables under -v. EXPERIMENTS.md records the observed ratios
// next to the paper's.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	MaybeRunExecutor(NativeTable{"gen_icpp": genericNative})
	os.Exit(m.Run())
}

// paperRows is the cardinality of Rel1, Rel100 and Rel10000, and the
// number of UDF invocations per query (the paper's scale is 10 000).
const paperRows = 300

// Each cell is timed at least paperReps times and for at least
// paperCellTime in total; the fastest run is kept, which discards
// scheduler and GC noise rather than averaging it.
const (
	paperReps     = 3
	paperCellTime = 15 * time.Millisecond
)

// The generic UDF of §5.1 in every design: SQL function and paper label.
var paperDesigns = []struct{ fn, label string }{
	{"gen_cpp", "C++"},
	{"gen_bcpp", "BC++"},
	{"gen_icpp", "IC++"},
	{"gen_jni", "JNI"},
	{"gen_ijni", "IJNI"},
}

var genericArgs = []Kind{KindBytes, KindInt, KindInt, KindInt}

// genericJaguar is the generic UDF in Jaguar, named name:
// NumDataIndepComps additions, NumDataDepComps passes over the byte
// array, NumCallbacks callbacks to the server.
func genericJaguar(name string) string {
	return fmt.Sprintf(`func %s(data bytes, indep int, dep int, ncb int) int {
	var acc int = 0;
	for (var i int = 0; i < indep; i = i + 1) { acc = acc + 1; }
	for (var p int = 0; p < dep; p = p + 1) {
		for (var j int = 0; j < len(data); j = j + 1) { acc = acc + data[j]; }
	}
	for (var k int = 0; k < ncb; k = k + 1) { cb_touch(0); }
	return acc;
}`, name)
}

// genericNative is the generic UDF as plain Go (C++, and IC++ in the
// executor process).
func genericNative(ctx *UDFContext, args []Value) (Value, error) {
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
	return NewInt(acc), touch(ctx, ncb)
}

// genericSFI is the generic UDF with every byte read through the
// explicitly checked accessor (BC++, the SFI comparator of Fig. 7).
func genericSFI(ctx *UDFContext, args []Value) (Value, error) {
	data, indep, dep, ncb := NewCheckedBytes(args[0].Bytes), args[1].Int, args[2].Int, args[3].Int
	var acc int64
	for i := int64(0); i < indep; i++ {
		acc++
	}
	for p := int64(0); p < dep; p++ {
		for j := 0; j < data.Len(); j++ {
			b, err := data.Get(j)
			if err != nil {
				return Value{}, err
			}
			acc += int64(b)
		}
	}
	return NewInt(acc), touch(ctx, ncb)
}

func touch(ctx *UDFContext, ncb int64) error {
	for k := int64(0); k < ncb; k++ {
		if ctx == nil || ctx.Callback == nil {
			return fmt.Errorf("generic: no callback handler")
		}
		if err := ctx.Callback.Touch(0); err != nil {
			return err
		}
	}
	return nil
}

// openPaperDB builds the §5.1 workload: Rel1, Rel100 and Rel10000 with
// paperRows tuples (id, byte array of 1/100/10 000 bytes), the trivial
// Fig. 4 UDF, and the generic UDF under all five designs.
func openPaperDB(t *testing.T) *DB {
	t.Helper()
	// Durability off: the figures measure the UDF boundary, not fsync.
	db, err := Open(filepath.Join(t.TempDir(), "paper.db"),
		WithBufferPoolPages(4096), WithDurability("none"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	exec := func(q string) {
		t.Helper()
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("%.80s: %v", q, err)
		}
	}
	for _, size := range []int{1, 100, 10000} {
		exec(fmt.Sprintf(`CREATE TABLE Rel%d (id INT, ba BYTES)`, size))
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i % 251)
		}
		for i := 0; i < paperRows; i++ {
			exec(fmt.Sprintf(`INSERT INTO Rel%d VALUES (%d, X'%X')`, size, i, payload))
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.RegisterNativeUDF("trivial_cpp", []Kind{KindBytes}, KindInt,
		func(*UDFContext, []Value) (Value, error) { return NewInt(0), nil }))
	must(db.RegisterNativeUDF("gen_cpp", genericArgs, KindInt, genericNative))
	must(db.RegisterSFIUDF("gen_bcpp", genericArgs, KindInt, genericSFI))
	must(db.RegisterIsolatedNativeUDF("gen_icpp", genericArgs, KindInt))
	must(db.RegisterJaguarUDF("gen_jni", genericJaguar("gen_jni"), genericArgs, KindInt, false, false))
	must(db.RegisterJaguarUDF("gen_ijni", genericJaguar("gen_ijni"), genericArgs, KindInt, true, false))
	// One process crossing per tuple, as in the paper.
	db.Engine().SetUDFBatchRows(1)
	return db
}

// best times q repeatedly and returns the fastest run; every run must
// return one row per invocation.
func best(t *testing.T, db *DB, q string) time.Duration {
	t.Helper()
	var min, total time.Duration
	for i := 0; i < paperReps || total < paperCellTime; i++ {
		start := time.Now()
		res, err := db.Exec(q)
		d := time.Since(start)
		total += d
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(res.Rows) != paperRows {
			t.Fatalf("%s: %d rows, want %d", q, len(res.Rows), paperRows)
		}
		if i == 0 || d < min {
			min = d
		}
	}
	return min
}

// generic times the benchmark query of §5.1 for one design.
func generic(t *testing.T, db *DB, fn string, size, indep, dep, ncb int) time.Duration {
	return best(t, db, fmt.Sprintf(`SELECT %s(ba, %d, %d, %d) FROM Rel%d`, fn, indep, dep, ncb, size))
}

// sweep times every design at each point of one axis, logs the table,
// and returns the times by design label and axis value.
func sweep(t *testing.T, db *DB, title string, axis []int, point func(fn string, x int) time.Duration) map[string]map[int]time.Duration {
	t.Helper()
	out := map[string]map[int]time.Duration{}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (ms, %d invocations)\n%-8s", title, paperRows, "")
	for _, d := range paperDesigns {
		fmt.Fprintf(&b, "%9s", d.label)
		out[d.label] = map[int]time.Duration{}
	}
	for _, x := range axis {
		fmt.Fprintf(&b, "\n%-8d", x)
		for _, d := range paperDesigns {
			dur := point(d.fn, x)
			out[d.label][x] = dur
			fmt.Fprintf(&b, "%9.2f", float64(dur.Microseconds())/1000)
		}
	}
	t.Log(b.String())
	return out
}

// atLeast and atMost log one figure's ratio as "shape <name> = <ratio>"
// and fail the test when it falls outside its bound.
func atLeast(t *testing.T, name string, a, b time.Duration, bound float64) {
	t.Helper()
	r := float64(a) / float64(b)
	t.Logf("shape %s = %.3f (want >= %g)", name, r, bound)
	if r < bound {
		t.Errorf("%s = %.3f, want >= %g", name, r, bound)
	}
}

func atMost(t *testing.T, name string, a, b time.Duration, bound float64) {
	t.Helper()
	r := float64(a) / float64(b)
	t.Logf("shape %s = %.3f (want <= %g)", name, r, bound)
	if r > bound {
		t.Errorf("%s = %.3f, want <= %g", name, r, bound)
	}
}

// TestPaperShapes asserts the shapes of Figs. 4–8. Correctness and
// exact counts come first, as their own subtests; the timed figures
// run only once those pass. Each timed bound sits at least a factor of
// two from the worst ratio observed over repeated runs, plain and
// under -race (see EXPERIMENTS.md); the race detector slows in-process
// code far more than process crossings, so its runs set most of the
// bounds.
func TestPaperShapes(t *testing.T) {
	db := openPaperDB(t)

	// Correctness before timing: every design computes the same value.
	// Rel100's bytes are i%251 for i < 100, summing to 4950; two passes
	// make 9900, plus 10 independent additions.
	ok := t.Run("AllDesignsAgree", func(t *testing.T) {
		for _, d := range paperDesigns {
			res, err := db.Exec(fmt.Sprintf(`SELECT %s(ba, 10, 2, 1) FROM Rel100 WHERE id < 1`, d.fn))
			if err != nil {
				t.Fatalf("%s: %v", d.label, err)
			}
			if got := res.Rows[0][0].Int; got != 9910 {
				t.Fatalf("%s computed %d, want 9910", d.label, got)
			}
		}
	})

	// Exact counts: a WHERE clause selecting n tuples makes exactly n
	// invocations, each returning one row.
	ok = t.Run("InvocationCounts", func(t *testing.T) {
		const calls = 17
		for _, d := range paperDesigns {
			res, err := db.Exec(fmt.Sprintf(`SELECT %s(ba, 5, 1, 0) FROM Rel100 WHERE id < %d`, d.fn, calls))
			if err != nil {
				t.Fatalf("%s: %v", d.label, err)
			}
			if len(res.Rows) != calls {
				t.Errorf("%s: %d rows, want %d", d.label, len(res.Rows), calls)
			}
		}
		res, err := db.Exec(`SELECT trivial_cpp(ba) FROM Rel1 WHERE id < 9`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 9 {
			t.Errorf("base cost query: %d rows, want 9", len(res.Rows))
		}
	}) && ok

	// Exact counts: every callback reaches the server, in-process and
	// across the process boundary alike.
	ok = t.Run("CallbackCounts", func(t *testing.T) {
		for _, d := range paperDesigns {
			const calls, ncb = 7, 3
			before := db.Engine().Objects().Stats().Touches
			if _, err := db.Exec(fmt.Sprintf(`SELECT %s(ba, 0, 0, %d) FROM Rel1 WHERE id < %d`, d.fn, ncb, calls)); err != nil {
				t.Fatal(err)
			}
			if got := db.Engine().Objects().Stats().Touches - before; got != calls*ncb {
				t.Errorf("%s: %d callback touches, want %d", d.label, got, calls*ncb)
			}
		}
	}) && ok
	if !ok {
		t.Fatal("correctness or count check failed; timed figures skipped")
	}

	t.Run("Figures", func(t *testing.T) { paperFigures(t, db) })
}

// paperFigures times the sweeps of Figs. 4–8, logs their tables and
// asserts each figure's shape.
func paperFigures(t *testing.T, db *DB) {
	// Fig. 4: the table-access baseline grows with the byte array.
	base := map[int]time.Duration{}
	for _, size := range []int{1, 100, 10000} {
		base[size] = best(t, db, fmt.Sprintf(`SELECT trivial_cpp(ba) FROM Rel%d`, size))
	}
	t.Logf("Fig. 4 base cost (ms): Rel1 %.2f  Rel100 %.2f  Rel10000 %.2f",
		float64(base[1].Microseconds())/1000, float64(base[100].Microseconds())/1000,
		float64(base[10000].Microseconds())/1000)
	atLeast(t, "fig4 Rel10000/Rel1", base[10000], base[1], 1.5)

	// Fig. 5: a process crossing costs at least as much as the VM
	// boundary for a 1-byte array.
	fig5 := sweep(t, db, "Fig. 5 invocation cost vs byte-array size", []int{1, 100, 10000},
		func(fn string, size int) time.Duration { return generic(t, db, fn, size, 0, 0, 0) })
	atLeast(t, "fig5 IC++/JNI size=1", fig5["IC++"][1], fig5["JNI"][1], 1)

	// Fig. 6: pure computation; the VM stays within a small factor of
	// native at the largest computation. Figs. 6 and 8 run over Rel1
	// rather than the paper's Rel10000, so the scan does not drown the
	// effect at this scale.
	const indepMax = 50000
	fig6 := sweep(t, db, "Fig. 6 pure computation vs NumDataIndepComps, Rel1", []int{0, 1000, indepMax},
		func(fn string, indep int) time.Duration { return generic(t, db, fn, 1, indep, 0, 0) })
	atMost(t, "fig6 JNI/C++ indep=max", fig6["JNI"][indepMax], fig6["C++"][indepMax], 6)

	// Fig. 7: data access; verified VM code stays within a small factor
	// of explicitly bounds-checked native code (the paper: ~20% above).
	fig7 := sweep(t, db, "Fig. 7 data access vs NumDataDepComps, Rel10000", []int{0, 1, 10},
		func(fn string, dep int) time.Duration { return generic(t, db, fn, 10000, 0, dep, 0) })
	atMost(t, "fig7 JNI/BC++ dep=10", fig7["JNI"][10], fig7["BC++"][10], 1.5)

	// Fig. 8: each callback from an isolated UDF is a process round
	// trip, so many callbacks hurt IC++ far more than JNI.
	fig8 := sweep(t, db, "Fig. 8 callbacks vs NumCallbacks, Rel1", []int{0, 1, 10},
		func(fn string, ncb int) time.Duration { return generic(t, db, fn, 1, 0, 0, ncb) })
	atLeast(t, "fig8 IC++/JNI ncb=10", fig8["IC++"][10], fig8["JNI"][10], 2)
}
