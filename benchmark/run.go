package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"predator"
)

// runResult is one pass over one workload: end to end (Trace false) or
// traced.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Seconds   float64            `json:"seconds"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	FirstErr  string             `json:"first_error,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Absent    []string           `json:"absent,omitempty"`
	// Loadgen describes how the generator of an end-to-end pass ran;
	// none of it gates.
	Loadgen map[string]float64 `json:"loadgen,omitempty"`
}

// A full run sets the workload up several times and reports the median
// as setup_s: at least minSetUps times, then until setUpBudget is spent
// or maxSetUps are done, since a set-up takes 2 ms on one workload and
// 200 ms on another. The first serves the measurement; the others run
// after it, so that they touch neither its CPU nor its peak memory.
const (
	minSetUps   = 5
	maxSetUps   = 25
	setUpBudget = 1500 * time.Millisecond
)

// sampledSlices drops the slices in which the resident set was never
// read: the slices of a 1 s window are 83 ms long, and a tick that
// comes late skips one.
func sampledSlices(rss []float64) []float64 {
	var out []float64
	for _, r := range rss {
		if r > 0 {
			out = append(out, r)
		}
	}
	return out
}

// warmUp is the untimed lead-in of a measured window.
func warmUp(window time.Duration) time.Duration {
	return min(window/6, 2*time.Second)
}

// runEndToEnd measures one workload with tracing off, through the root
// predator package alone.
func runEndToEnd(w *workload, seed int64, window time.Duration, root string, repeatSetUp bool) (*runResult, error) {
	in := makeInputs(w, seed)
	t0 := time.Now()
	e, err := setUp(w, in, root)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	setUpTimes := []float64{time.Since(t0).Seconds()}
	defer func() { e.close() }()

	lr, err := runLoad(e, seed, warmUp(window), window)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	hwm, err := peakRSSAllMB(e.children)
	if err != nil {
		return nil, err
	}
	written := readEngineCounts(e.db).bytesWritten()
	res := &runResult{
		Workload: w.name, Seed: seed, Seconds: window.Seconds(),
		Attempted: lr.attempted, Failed: lr.failed, FirstErr: lr.firstErr,
		Metrics: make(map[string]float64), Loadgen: make(map[string]float64),
	}
	ends, lats, lates := lr.columns()
	rates := sliceRates(ends, window.Seconds(), slices)
	cpuPerStmt := make([]float64, slices)
	for i := range cpuPerStmt {
		done := rates[i] * window.Seconds() / slices
		cpuPerStmt[i] = (lr.cpu[i+1] - lr.cpu[i]) * 1e3 / done
	}
	res.Metrics["stmt_per_s"] = median(rates)
	res.Metrics["lat_p50_ms"] = slicedPercentile(ends, lats, window.Seconds(), 50)
	res.Metrics["lat_p99_ms"] = slicedPercentile(ends, lats, window.Seconds(), 99)
	res.Metrics["peak_rss_mb"] = median(sampledSlices(lr.rss))
	res.Metrics["write_amp"] = written / float64(e.userBytes+lr.userBytes)
	res.Loadgen["cpu_ms_per_stmt"] = quietQuartile(cpuPerStmt)
	res.Loadgen["hwm_mb"] = hwm
	res.Loadgen["samples"] = float64(len(lats))
	res.Loadgen["fail_frac"] = float64(lr.failed) / math.Max(float64(lr.attempted), 1)
	res.Loadgen["late_p99_ms"] = percentile(lates, 99)
	res.Loadgen["lat_p99_window_ms"] = percentile(lats, 99)
	res.Loadgen["lat_slices"] = float64(latencySlices(len(lats)))
	if w.open {
		res.Loadgen["offered_per_s"] = w.rate
	}

	if w.insert {
		// Every acknowledged insert must be there after a restart.
		n, err := e.reopenCount()
		if err != nil {
			return nil, fmt.Errorf("%s: reopen: %w", w.name, err)
		}
		res.Attempted++
		if n < lr.acked {
			res.Failed++
			if res.FirstErr == "" {
				res.FirstErr = fmt.Sprintf("after reopen COUNT(*) = %d, below the %d acknowledged inserts", n, lr.acked)
			}
		}
	}
	if err := e.close(); err != nil {
		return nil, fmt.Errorf("%s: close: %w", w.name, err)
	}
	var spent time.Duration
	for n := 1; repeatSetUp && (n < minSetUps || (n < maxSetUps && spent < setUpBudget)); n++ {
		t0 := time.Now()
		again, err := setUp(w, in, root)
		if err != nil {
			return nil, fmt.Errorf("%s: repeated set-up: %w", w.name, err)
		}
		setUpTimes = append(setUpTimes, time.Since(t0).Seconds())
		if err := again.close(); err != nil {
			return nil, err
		}
		spent += time.Since(t0)
	}
	res.Loadgen["setups"] = float64(len(setUpTimes))
	res.Metrics["setup_s"] = median(setUpTimes)
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// runTracedPass sets the workload up as runEndToEnd does and runs the
// traced pass over it, writing the spans to traceDir when it is set.
func runTracedPass(w *workload, seed int64, window time.Duration, root, traceDir string) (*runResult, error) {
	in := makeInputs(w, seed)
	e, err := setUp(w, in, root)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer e.close()
	tr, err := runTraced(e, seed, window)
	if err != nil {
		return nil, fmt.Errorf("%s: traced pass: %w", w.name, err)
	}
	if traceDir != "" {
		if err := writeTrace(filepath.Join(traceDir, "trace-"+w.name+".json"), w.name, seed, tr.spans); err != nil {
			return nil, err
		}
	}
	return &runResult{
		Workload: w.name, Seed: seed, Trace: true, Seconds: window.Seconds(),
		Correct:   tr.failed == 0 && tr.attempted > 0,
		Attempted: tr.attempted, Failed: tr.failed, FirstErr: tr.firstErr,
		Metrics: tr.metrics, Absent: tr.absent,
	}, nil
}

// reopenCount stops the server, which closes the database, opens the
// database file again and counts the rows of the insert tables.
func (e *env) reopenCount() (int64, error) {
	if err := e.srv.Close(); err != nil {
		return 0, err
	}
	e.srv, e.db = nil, nil
	db, err := predator.Open(filepath.Join(e.dir, "bench.db"), e.w.options()...)
	if err != nil {
		return 0, err
	}
	defer db.Close()
	var total int64
	for c := 0; c < loadConns; c++ {
		res, err := db.Exec("SELECT COUNT(*) FROM " + insertTable(c))
		if err != nil {
			return 0, err
		}
		if len(res.Rows) != 1 {
			return 0, fmt.Errorf("COUNT(*) returned %d rows", len(res.Rows))
		}
		total += res.Rows[0][0].Int
	}
	return total, nil
}
