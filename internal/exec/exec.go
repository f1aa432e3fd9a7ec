// Package exec implements the Volcano-style iterator executor: each
// operator exposes Open/Next/Close and pulls rows from its children.
// UDFs are applied per tuple inside Filter/Project expressions, which
// is exactly the execution shape the paper's experiments time.
package exec

import (
	"fmt"
	"slices"
	"sort"

	"predator/internal/expr"
	"predator/internal/obs"
	"predator/internal/storage"
	"predator/internal/types"
)

// Operator is one node of a physical query plan.
//
// A row from Next, and any BYTES in it, is valid only until the next
// Next or Close on the same operator: a scan decodes every record into
// one row and one record buffer that it reuses. An operator that keeps
// rows longer (Sort, the inner side of NestedLoopJoin, Aggregate's
// group keys and extremes, a batch window, Run) clones them.
type Operator interface {
	// Schema describes the rows this operator produces.
	Schema() *types.Schema
	// Open prepares the operator for iteration.
	Open(ec *expr.Ctx) error
	// Next returns the next row, or nil at end of stream. The row is
	// valid until the next Next or Close.
	Next() (types.Row, error)
	// Close releases resources. Safe to call after a failed Open.
	Close() error
	// Explain renders this node (without children) for EXPLAIN.
	Explain() string
	// Children returns the operator's inputs.
	Children() []Operator
}

// SeqScan reads every live record of a heap file. It copies each
// record out of the page into one buffer of its own and decodes it into
// one row, both reused for the next record. The buffer is never the
// page frame: a UDF may write into a BYTES argument, and what it writes
// must not reach the buffer pool.
type SeqScan struct {
	estNote
	Table   string
	Heap    *storage.HeapFile
	Sch     *types.Schema
	scanner *storage.Scanner
	rec     []byte    // the current record
	row     types.Row // the current row, decoded from rec
	rows    int64
}

// Schema implements Operator.
func (s *SeqScan) Schema() *types.Schema { return s.Sch }

// Open implements Operator.
func (s *SeqScan) Open(*expr.Ctx) error {
	s.Close()
	s.scanner = s.Heap.Scan()
	return nil
}

// Next implements Operator.
func (s *SeqScan) Next() (types.Row, error) {
	if s.scanner == nil {
		return nil, fmt.Errorf("exec: scan of %s not opened", s.Table)
	}
	if !s.scanner.Next() {
		if err := s.scanner.Err(); err != nil {
			return nil, err
		}
		return nil, nil
	}
	s.rec = s.scanner.AppendRecord(s.rec[:0])
	row, err := types.DecodeRowInto(s.row, s.rec, s.Sch)
	if err != nil {
		return nil, fmt.Errorf("exec: decode record %s of %s: %w", s.scanner.RID(), s.Table, err)
	}
	s.row = row
	s.rows++
	return row, nil
}

// Close implements Operator. It releases the scanner's page pin.
func (s *SeqScan) Close() error {
	if s.scanner != nil {
		s.scanner.Close()
		s.scanner = nil
	}
	rowsSeqScan.Add(s.rows)
	s.rows = 0
	return nil
}

// Explain implements Operator.
func (s *SeqScan) Explain() string { return fmt.Sprintf("SeqScan(%s)", s.Table) + s.estSuffix() }

// Children implements Operator.
func (s *SeqScan) Children() []Operator { return nil }

// Filter passes through rows whose predicate evaluates to TRUE
// (NULL and FALSE are both rejected, per SQL). When the predicate is a
// batchable UDF call and the context enables batching, rows are pulled
// in windows and the predicate evaluates with amortized UDF crossings
// (see batch.go); otherwise the legacy per-tuple loop runs unchanged.
type Filter struct {
	estNote
	Input Operator
	Pred  expr.Bound
	ec    *expr.Ctx
	bs    *batchState
	rows  int64
}

// Schema implements Operator.
func (f *Filter) Schema() *types.Schema { return f.Input.Schema() }

// Open implements Operator.
func (f *Filter) Open(ec *expr.Ctx) error {
	f.ec = ec
	f.bs = batchFilterState(ec, f.Input, f.Pred)
	return f.Input.Open(ec)
}

// Next implements Operator.
func (f *Filter) Next() (types.Row, error) {
	if f.bs != nil {
		return f.nextBatched()
	}
	for {
		// Poll the statement deadline here so a selective filter over a
		// large input cancels promptly even when it emits no rows.
		if err := f.ec.Check(); err != nil {
			return nil, err
		}
		row, err := f.Input.Next()
		if err != nil || row == nil {
			return nil, err
		}
		v, err := f.Pred.Eval(f.ec, row)
		if err != nil {
			return nil, err
		}
		if !v.IsNull() && v.Bool {
			f.rows++
			return row, nil
		}
	}
}

func (f *Filter) nextBatched() (types.Row, error) {
	for {
		w, i, err := f.bs.next()
		if err != nil || w == nil {
			return nil, err
		}
		if w.res[i].Err != nil {
			return nil, w.res[i].Err
		}
		if v := w.res[i].Value; !v.IsNull() && v.Bool {
			f.rows++
			return w.rows[i], nil
		}
	}
}

// Close implements Operator.
func (f *Filter) Close() error {
	if f.bs != nil {
		f.bs.drain()
	}
	rowsFilter.Add(f.rows)
	f.rows = 0
	return f.Input.Close()
}

// Explain implements Operator.
func (f *Filter) Explain() string {
	return fmt.Sprintf("Filter(%s) [cost=%.1f]", f.Pred, f.Pred.Cost()) + f.estSuffix() + f.bs.suffix()
}

// Children implements Operator.
func (f *Filter) Children() []Operator { return []Operator{f.Input} }

// Project computes a list of expressions per input row. When at least
// one expression is a batchable UDF call and the context enables
// batching, input rows are pulled in windows and those expressions
// evaluate with amortized UDF crossings (see batch.go).
type Project struct {
	estNote
	Input Operator
	Exprs []expr.Bound
	Names []string
	ec    *expr.Ctx
	bs    *batchState
	sch   *types.Schema
	out   types.Row // the per-tuple path's output row, reused
	rows  int64
}

// Schema implements Operator.
func (p *Project) Schema() *types.Schema {
	if p.sch == nil {
		cols := make([]types.Column, len(p.Exprs))
		for i, e := range p.Exprs {
			name := p.Names[i]
			if name == "" {
				name = e.String()
			}
			cols[i] = types.Column{Name: name, Kind: e.Kind()}
		}
		p.sch = &types.Schema{Columns: cols}
	}
	return p.sch
}

// Open implements Operator.
func (p *Project) Open(ec *expr.Ctx) error {
	p.ec = ec
	p.bs = batchProjectState(ec, p.Input, p.Exprs)
	return p.Input.Open(ec)
}

// Next implements Operator.
func (p *Project) Next() (types.Row, error) {
	if p.bs != nil {
		w, i, err := p.bs.next()
		if err != nil || w == nil {
			return nil, err
		}
		p.rows++
		return w.out[i], nil
	}
	row, err := p.Input.Next()
	if err != nil || row == nil {
		return nil, err
	}
	if p.out == nil {
		p.out = make(types.Row, len(p.Exprs))
	}
	for i, e := range p.Exprs {
		v, err := e.Eval(p.ec, row)
		if err != nil {
			return nil, err
		}
		p.out[i] = v
	}
	p.rows++
	return p.out, nil
}

// Close implements Operator.
func (p *Project) Close() error {
	if p.bs != nil {
		p.bs.drain()
	}
	rowsProject.Add(p.rows)
	p.rows = 0
	return p.Input.Close()
}

// Explain implements Operator.
func (p *Project) Explain() string {
	return fmt.Sprintf("Project(%d exprs)", len(p.Exprs)) + p.estSuffix() + p.bs.suffix()
}

// Children implements Operator.
func (p *Project) Children() []Operator { return []Operator{p.Input} }

// NestedLoopJoin joins two inputs with an optional ON predicate
// (nil = cross join). The inner input is materialized once.
type NestedLoopJoin struct {
	estNote
	Left, Right Operator
	On          expr.Bound // evaluated over concatenated rows; may be nil
	ec          *expr.Ctx
	sch         *types.Schema
	inner       []types.Row
	cur         types.Row
	idx         int
	rows        int64
}

// Schema implements Operator.
func (j *NestedLoopJoin) Schema() *types.Schema {
	if j.sch == nil {
		j.sch = j.Left.Schema().Concat(j.Right.Schema())
	}
	return j.sch
}

// Open implements Operator.
func (j *NestedLoopJoin) Open(ec *expr.Ctx) error {
	j.ec = ec
	if err := j.Left.Open(ec); err != nil {
		return err
	}
	if err := j.Right.Open(ec); err != nil {
		return err
	}
	// Materialize the inner (right) side.
	j.inner = j.inner[:0]
	for {
		row, err := j.Right.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		j.inner = append(j.inner, row.Clone())
	}
	j.cur = nil
	j.idx = 0
	return nil
}

// Next implements Operator.
func (j *NestedLoopJoin) Next() (types.Row, error) {
	for {
		if j.cur == nil {
			row, err := j.Left.Next()
			if err != nil || row == nil {
				return nil, err
			}
			j.cur = row
			j.idx = 0
		}
		for j.idx < len(j.inner) {
			right := j.inner[j.idx]
			j.idx++
			combined := make(types.Row, 0, len(j.cur)+len(right))
			combined = append(combined, j.cur...)
			combined = append(combined, right...)
			if j.On != nil {
				v, err := j.On.Eval(j.ec, combined)
				if err != nil {
					return nil, err
				}
				if v.IsNull() || !v.Bool {
					continue
				}
			}
			j.rows++
			return combined, nil
		}
		j.cur = nil
	}
}

// Close implements Operator.
func (j *NestedLoopJoin) Close() error {
	rowsJoin.Add(j.rows)
	j.rows = 0
	err1 := j.Left.Close()
	err2 := j.Right.Close()
	j.inner = nil
	if err1 != nil {
		return err1
	}
	return err2
}

// Explain implements Operator.
func (j *NestedLoopJoin) Explain() string {
	if j.On == nil {
		return "NestedLoopJoin(cross)" + j.estSuffix()
	}
	return fmt.Sprintf("NestedLoopJoin(on %s)", j.On) + j.estSuffix()
}

// Children implements Operator.
func (j *NestedLoopJoin) Children() []Operator { return []Operator{j.Left, j.Right} }

// Sort materializes and orders its input.
type Sort struct {
	estNote
	Input Operator
	Keys  []SortKey
	rows  []types.Row
	pos   int
	out   int64
}

// SortKey is one ORDER BY key.
type SortKey struct {
	Expr expr.Bound
	Desc bool
}

// Schema implements Operator.
func (s *Sort) Schema() *types.Schema { return s.Input.Schema() }

// Open implements Operator.
func (s *Sort) Open(ec *expr.Ctx) error {
	if err := s.Input.Open(ec); err != nil {
		return err
	}
	s.rows = s.rows[:0]
	type keyed struct {
		row  types.Row
		keys types.Row
	}
	var all []keyed
	for {
		row, err := s.Input.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		// The keys are evaluated over the kept copy, so a BYTES key
		// does not alias the input's reused storage.
		row = row.Clone()
		keys := make(types.Row, len(s.Keys))
		for i, k := range s.Keys {
			v, err := k.Expr.Eval(ec, row)
			if err != nil {
				return err
			}
			keys[i] = v
		}
		all = append(all, keyed{row: row, keys: keys})
	}
	var sortErr error
	sort.SliceStable(all, func(a, b int) bool {
		for i, k := range s.Keys {
			c, err := all[a].keys[i].Compare(all[b].keys[i])
			if err != nil {
				sortErr = err
				return false
			}
			if c != 0 {
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	if sortErr != nil {
		return sortErr
	}
	for _, k := range all {
		s.rows = append(s.rows, k.row)
	}
	s.pos = 0
	return nil
}

// Next implements Operator.
func (s *Sort) Next() (types.Row, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	row := s.rows[s.pos]
	s.pos++
	s.out++
	return row, nil
}

// Close implements Operator.
func (s *Sort) Close() error {
	s.rows = nil
	rowsSort.Add(s.out)
	s.out = 0
	return s.Input.Close()
}

// Explain implements Operator.
func (s *Sort) Explain() string { return fmt.Sprintf("Sort(%d keys)", len(s.Keys)) + s.estSuffix() }

// Children implements Operator.
func (s *Sort) Children() []Operator { return []Operator{s.Input} }

// Limit stops after N rows.
type Limit struct {
	estNote
	Input Operator
	N     int64
	seen  int64
}

// Schema implements Operator.
func (l *Limit) Schema() *types.Schema { return l.Input.Schema() }

// Open implements Operator.
func (l *Limit) Open(ec *expr.Ctx) error {
	l.seen = 0
	return l.Input.Open(ec)
}

// Next implements Operator.
func (l *Limit) Next() (types.Row, error) {
	if l.seen >= l.N {
		return nil, nil
	}
	row, err := l.Input.Next()
	if err != nil || row == nil {
		return nil, err
	}
	l.seen++
	return row, nil
}

// Close implements Operator.
func (l *Limit) Close() error {
	rowsLimit.Add(l.seen)
	l.seen = 0
	return l.Input.Close()
}

// Explain implements Operator.
func (l *Limit) Explain() string { return fmt.Sprintf("Limit(%d)", l.N) + l.estSuffix() }

// Children implements Operator.
func (l *Limit) Children() []Operator { return []Operator{l.Input} }

// Values produces a fixed list of rows (INSERT sources, tests).
type Values struct {
	estNote
	Sch  *types.Schema
	Rows []types.Row
	pos  int
}

// Schema implements Operator.
func (v *Values) Schema() *types.Schema { return v.Sch }

// Open implements Operator.
func (v *Values) Open(*expr.Ctx) error { v.pos = 0; return nil }

// Next implements Operator.
func (v *Values) Next() (types.Row, error) {
	if v.pos >= len(v.Rows) {
		return nil, nil
	}
	row := v.Rows[v.pos]
	v.pos++
	return row, nil
}

// Close implements Operator.
func (v *Values) Close() error {
	rowsValues.Add(int64(v.pos))
	v.pos = 0
	return nil
}

// Explain implements Operator.
func (v *Values) Explain() string { return fmt.Sprintf("Values(%d rows)", len(v.Rows)) + v.estSuffix() }

// Children implements Operator.
func (v *Values) Children() []Operator { return nil }

// Run drains an operator into a materialized result. It clones every
// row, since a row from Next lives only until the next call, into a
// rowArena: one allocation per slab, not per row or BYTES value.
func Run(op Operator, ec *expr.Ctx) ([]types.Row, error) {
	if err := op.Open(ec); err != nil {
		op.Close()
		return nil, err
	}
	defer op.Close()
	var flight *obs.Execution
	if ec != nil {
		flight = ec.Exec
	}
	var out []types.Row
	var arena rowArena
	for {
		if err := ec.Check(); err != nil {
			return nil, err
		}
		row, err := op.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			return out, nil
		}
		if err := ec.Charge(int64(rowFootprint(row))); err != nil {
			return nil, err
		}
		if len(out) == cap(out) {
			// Double: append grows a long slice by a quarter, which
			// copies each row header about four times over.
			out = slices.Grow(out, max(len(out), 16))
		}
		out = append(out, arena.clone(row))
		flight.AddRows(1)
	}
}

// Slab sizes of a rowArena: a new slab is twice the last, from the
// minimum up to the maximum, and never smaller than what it must hold.
// The maximum bounds what a slab can leave unused at the end.
const (
	minSlabValues, maxSlabValues = 16, 1024
	minSlabBytes, maxSlabBytes   = 1 << 10, 64 << 10
)

// rowArena clones rows into slabs of values and of bytes. Each clone
// is capped at its own length (s[a:b:b]), so an append to one row or
// BYTES value reallocates instead of reaching the next.
type rowArena struct {
	vals  []types.Value
	bytes []byte
	// What the arena has cloned since its last reset.
	nvals, nbytes int
}

// clone returns a deep copy of row in the arena's storage.
func (a *rowArena) clone(row types.Row) types.Row {
	if a.vals == nil || len(row) > cap(a.vals)-len(a.vals) {
		a.vals = make([]types.Value, 0, max(min(2*cap(a.vals), maxSlabValues), minSlabValues, len(row)))
	}
	start := len(a.vals)
	for _, v := range row {
		if v.Kind == types.KindBytes && v.Bytes != nil {
			v.Bytes = a.cloneBytes(v.Bytes)
		}
		a.vals = append(a.vals, v)
	}
	a.nvals += len(row)
	return a.vals[start:len(a.vals):len(a.vals)]
}

func (a *rowArena) cloneBytes(b []byte) []byte {
	if len(b) == 0 {
		return b[:0:0]
	}
	if len(b) > cap(a.bytes)-len(a.bytes) {
		a.bytes = make([]byte, 0, max(min(2*cap(a.bytes), maxSlabBytes), minSlabBytes, len(b)))
	}
	start := len(a.bytes)
	a.bytes = append(a.bytes, b...)
	a.nbytes += len(b)
	return a.bytes[start:len(a.bytes):len(a.bytes)]
}

// reset lets the arena overwrite its storage: every row it has cloned
// must be dead. The slabs it keeps are sized to what it cloned since
// the last reset, so an arena that holds about as much each time, such
// as a batch window's, stops allocating.
func (a *rowArena) reset() {
	if a.nvals > cap(a.vals) {
		a.vals = make([]types.Value, 0, a.nvals)
	}
	if a.nbytes > cap(a.bytes) {
		a.bytes = make([]byte, 0, a.nbytes)
	}
	a.vals, a.bytes = a.vals[:0], a.bytes[:0]
	a.nvals, a.nbytes = 0, 0
}

// ExplainTree renders a plan tree with indentation.
func ExplainTree(op Operator) string {
	var b []byte
	var walk func(o Operator, depth int)
	walk = func(o Operator, depth int) {
		for i := 0; i < depth; i++ {
			b = append(b, ' ', ' ')
		}
		b = append(b, o.Explain()...)
		b = append(b, '\n')
		for _, c := range o.Children() {
			walk(c, depth+1)
		}
	}
	walk(op, 0)
	return string(b)
}
