package exec

import (
	"fmt"
	"time"

	"predator/internal/core"
	"predator/internal/expr"
	"predator/internal/obs"
	"predator/internal/types"
)

// This file implements the batched, pipelined evaluation loop shared by
// Filter and Project. When an operator's expression is batchable (an
// expr.BatchBound over a core.BatchUDF) and the query context allows
// batching (ec.UDFBatch > 1), the operator gathers windows of input
// rows and evaluates each window with amortized UDF crossings, instead
// of one crossing per tuple.
//
// The loop is double-buffered: while the background goroutine evaluates
// window k (which, for isolated designs, mostly blocks on the executor
// process), the operator's own goroutine gathers window k+1 from its
// input. At most one window is ever in flight, so expression scratch
// state is never touched concurrently.
//
// Window sizes adapt: they start small (so short queries never pay for
// a large batch), double up to the configured cap, shrink to fit an
// approaching statement deadline, and cut off early when a window's
// gathered bytes reach batchByteCap (so wide BYTES rows cannot balloon
// a single protocol frame).

// batchStartRows is the first window's size.
const batchStartRows = 8

// batchByteCap bounds the approximate bytes gathered into one window.
const batchByteCap = 4 << 20

// window is one gathered batch of input rows plus its evaluation
// results. Filter fills res (predicate verdicts); Project fills out
// (assembled output rows).
type window struct {
	rows  []types.Row
	arena rowArena // rows' storage: a row must outlive the input's next Next
	res   []core.BatchResult
	out   []types.Row
	base  int64 // absolute input index of rows[0], for error reporting
	err   error
	// panicked carries a panic out of the evaluation goroutine so it can
	// be re-raised on the operator's own goroutine, where the caller's
	// recovery (e.g. the server's per-request recover) sees it exactly
	// as on the scalar path.
	panicked any
	start    time.Time
	dur      time.Duration
}

// batchState drives gathering, pipelined evaluation and result
// iteration for one operator.
type batchState struct {
	ec    *expr.Ctx
	input Operator
	eval  func(w *window) error
	max   int // configured batch-size cap (ec.UDFBatch)

	size       int   // current adaptive target size
	eof        bool  // input exhausted
	stashed    error // gather-side error, surfaced after in-flight work drains
	cur        *window
	pos        int
	inflight   chan *window
	pending    int // windows launched but not yet received (0 or 1)
	spare      []*window
	absBase    int64
	lastRowDur time.Duration // per-row cost of the last window, for deadline fit

	// Retained across Close for EXPLAIN ANALYZE (reset on each Open).
	batches int64
	rowsIn  int64
}

func newBatchState(ec *expr.Ctx, input Operator, max int, eval func(w *window) error) *batchState {
	return &batchState{ec: ec, input: input, eval: retryLost(eval), max: max, inflight: make(chan *window, 1)}
}

// cLostRetries counts batch windows resubmitted after their shared
// executor died mid-crossing.
var cLostRetries = obs.Default.Counter("predator_exec_executor_lost_retries_total")

// retryLost resubmits a window once when its crossing was stranded by a
// shared-executor death (FaultExecutorLost). The class is retryable by
// construction — the window produced no partial results and the fleet
// routes the resubmission to a healthy process — so a single executor
// crash never kills the queries that merely shared its pipe. One retry
// only: a second loss means the fleet itself is unhealthy, and that is
// the client's retry decision, not ours.
func retryLost(eval func(w *window) error) func(w *window) error {
	return func(w *window) error {
		err := eval(w)
		if core.FaultClassOf(err) == core.FaultExecutorLost {
			cLostRetries.Inc()
			err = eval(w)
		}
		return err
	}
}

// next returns the window and position of the next evaluated row, or
// (nil, 0, nil) at end of stream.
func (b *batchState) next() (*window, int, error) {
	for {
		if b.cur != nil {
			if b.pos < len(b.cur.rows) {
				i := b.pos
				b.pos++
				return b.cur, i, nil
			}
			b.recycle(b.cur)
			b.cur = nil
		}
		if b.pending == 0 {
			w := b.gather()
			if w == nil {
				if err := b.stashed; err != nil {
					b.stashed = nil
					return nil, 0, err
				}
				return nil, 0, nil
			}
			b.launch(w)
		}
		// The pipeline overlap: gather window k+1 here while the
		// background goroutine evaluates window k.
		var queued *window
		if b.stashed == nil && !b.eof {
			queued = b.gather()
		}
		w := <-b.inflight
		b.pending--
		if w.panicked != nil {
			panic(w.panicked)
		}
		if n := len(w.rows); n > 0 {
			b.lastRowDur = w.dur / time.Duration(n)
		}
		if b.ec.Trace.Detailed() {
			b.ec.Trace.AddSpan(obs.SpanRecord{Name: "batch/window", Start: w.start, Dur: w.dur})
		}
		if w.err != nil {
			// The queued window dies with the query; Close drains
			// nothing because it was never launched.
			err := fmt.Errorf("batch rows %d..%d: %w",
				w.base, w.base+int64(len(w.rows))-1, w.err)
			b.recycle(w)
			return nil, 0, err
		}
		if queued != nil {
			b.launch(queued)
		}
		b.cur = w
		b.pos = 0
	}
}

// gather pulls up to the adaptive target of rows from the input. A nil
// return means no rows are available (end of input, or an input/deadline
// error stashed for later). A partial window is returned when the error
// arrives mid-gather, so rows read before it are still evaluated and
// emitted — matching the scalar path, which surfaces an input error
// only after emitting every earlier row.
func (b *batchState) gather() *window {
	if b.eof || b.stashed != nil {
		return nil
	}
	w := b.take()
	target := b.targetSize()
	bytes := 0
	for len(w.rows) < target {
		if err := b.ec.Check(); err != nil {
			b.stashed = err
			break
		}
		row, err := b.input.Next()
		if err != nil {
			b.stashed = err
			break
		}
		if row == nil {
			b.eof = true
			break
		}
		w.rows = append(w.rows, w.arena.clone(row))
		if bytes += rowFootprint(row); bytes >= batchByteCap {
			break
		}
	}
	if len(w.rows) == 0 {
		b.recycle(w)
		return nil
	}
	w.base = b.absBase
	b.absBase += int64(len(w.rows))
	return w
}

// targetSize advances the adaptive size: start small, double to the
// cap, and shrink when the statement deadline would expire before a
// full window completes at the last observed per-row cost (so a
// timeout fires between small batches instead of killing a large
// half-done one).
func (b *batchState) targetSize() int {
	switch {
	case b.size == 0:
		b.size = batchStartRows
	case b.size < b.max:
		b.size *= 2
	}
	if b.size > b.max {
		b.size = b.max
	}
	n := b.size
	if !b.ec.Deadline.IsZero() && b.lastRowDur > 0 {
		if fit := int(time.Until(b.ec.Deadline) / (2 * b.lastRowDur)); fit < n {
			n = fit
			if n < 1 {
				n = 1
			}
		}
	}
	return n
}

// launch starts background evaluation of a gathered window.
func (b *batchState) launch(w *window) {
	b.batches++
	b.rowsIn += int64(len(w.rows))
	b.pending++
	go func() {
		w.start = time.Now()
		defer func() {
			w.panicked = recover()
			w.dur = time.Since(w.start)
			b.inflight <- w
		}()
		w.err = b.eval(w)
	}()
}

// drain receives any in-flight window so no evaluation goroutine
// outlives the operator. Called from Close.
func (b *batchState) drain() {
	for b.pending > 0 {
		<-b.inflight
		b.pending--
	}
}

// recycle returns a window's slices to the spare pool for reuse. The
// rows it emitted are dead by now: the consumer's next Next got here.
func (b *batchState) recycle(w *window) {
	w.rows = w.rows[:0]
	w.err = nil
	if len(b.spare) < 2 {
		w.arena.reset()
		b.spare = append(b.spare, w)
	}
}

func (b *batchState) take() *window {
	if n := len(b.spare); n > 0 {
		w := b.spare[n-1]
		b.spare = b.spare[:n-1]
		return w
	}
	return &window{}
}

// suffix renders batch statistics for EXPLAIN ANALYZE, e.g.
// " (batched: 4 batches, mean 62.5 rows)".
func (b *batchState) suffix() string {
	if b == nil || b.batches == 0 {
		return ""
	}
	return fmt.Sprintf(" (batched: %d batches, mean %.1f rows)",
		b.batches, float64(b.rowsIn)/float64(b.batches))
}

// rowFootprint approximates a row's in-flight size (value headers plus
// variable-length payloads).
func rowFootprint(r types.Row) int {
	n := 16 * len(r)
	for _, v := range r {
		n += len(v.Bytes) + len(v.Str)
	}
	return n
}

// sizeResults returns buf resized to n entries, reallocating only on
// growth. Entries are zeroed: EvalBatch overwrites every one, but a
// stale value must never survive an implementation that does not.
func sizeResults(buf []core.BatchResult, n int) []core.BatchResult {
	if cap(buf) < n {
		buf = make([]core.BatchResult, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = core.BatchResult{}
	}
	return buf
}

// batchFilterState builds the batch driver for a Filter whose predicate
// is batchable under the context's batch cap, or returns nil for the
// legacy scalar path.
func batchFilterState(ec *expr.Ctx, input Operator, pred expr.Bound) *batchState {
	if ec == nil || ec.UDFBatch <= 1 {
		return nil
	}
	bb, ok := pred.(expr.BatchBound)
	if !ok || !bb.Batchable() {
		return nil
	}
	return newBatchState(ec, input, ec.UDFBatch, func(w *window) error {
		w.res = sizeResults(w.res, len(w.rows))
		return bb.EvalBatch(ec, w.rows, w.res)
	})
}

// batchProjectState builds the batch driver for a Project with at least
// one batchable expression, or returns nil for the legacy scalar path.
// Batchable expressions evaluate with amortized crossings; the rest
// evaluate per row inside the same window pass. Errors surface in
// row-major order (earliest row wins; within a row, earliest
// expression), matching what the scalar path would have reported.
func batchProjectState(ec *expr.Ctx, input Operator, exprs []expr.Bound) *batchState {
	if ec == nil || ec.UDFBatch <= 1 {
		return nil
	}
	any := false
	for _, e := range exprs {
		if bb, ok := e.(expr.BatchBound); ok && bb.Batchable() {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	var scratch []core.BatchResult
	rowErr := []error(nil)
	return newBatchState(ec, input, ec.UDFBatch, func(w *window) error {
		n := len(w.rows)
		if cap(w.out) < n {
			w.out = make([]types.Row, n)
		}
		w.out = w.out[:n]
		for i, row := range w.out {
			// A consumer holds an emitted row only until its next Next,
			// and a window is recycled after its last row is emitted,
			// so a recycled window's output rows are reused.
			if row == nil {
				w.out[i] = make(types.Row, len(exprs))
			} else {
				clear(row)
			}
		}
		if cap(rowErr) < n {
			rowErr = make([]error, n)
		}
		rowErr = rowErr[:n]
		for i := range rowErr {
			rowErr[i] = nil
		}
		for xi, e := range exprs {
			if bb, ok := e.(expr.BatchBound); ok && bb.Batchable() {
				scratch = sizeResults(scratch, n)
				if err := bb.EvalBatch(ec, w.rows, scratch); err != nil {
					return err
				}
				for i := 0; i < n; i++ {
					if scratch[i].Err != nil {
						if rowErr[i] == nil {
							rowErr[i] = scratch[i].Err
						}
						continue
					}
					w.out[i][xi] = scratch[i].Value
				}
				continue
			}
			for i := 0; i < n; i++ {
				if rowErr[i] != nil {
					continue
				}
				v, err := e.Eval(ec, w.rows[i])
				if err != nil {
					rowErr[i] = err
					continue
				}
				w.out[i][xi] = v
			}
		}
		for _, err := range rowErr {
			if err != nil {
				return err
			}
		}
		return nil
	})
}
