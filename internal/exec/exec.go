// Package exec implements the Volcano-style iterator executor: each
// operator exposes Open/Next/Close and pulls rows from its children.
// UDFs are applied per tuple inside Filter/Project expressions, which
// is exactly the execution shape the paper's experiments time.
package exec

import (
	"fmt"
	"sort"

	"predator/internal/expr"
	"predator/internal/obs"
	"predator/internal/storage"
	"predator/internal/types"
)

// Operator is one node of a physical query plan.
type Operator interface {
	// Schema describes the rows this operator produces.
	Schema() *types.Schema
	// Open prepares the operator for iteration.
	Open(ec *expr.Ctx) error
	// Next returns the next row, or nil at end of stream.
	Next() (types.Row, error)
	// Close releases resources. Safe to call after a failed Open.
	Close() error
	// Explain renders this node (without children) for EXPLAIN.
	Explain() string
	// Children returns the operator's inputs.
	Children() []Operator
}

// SeqScan reads every live record of a heap file.
type SeqScan struct {
	estNote
	Table   string
	Heap    *storage.HeapFile
	Sch     *types.Schema
	scanner *storage.Scanner
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
	row, err := types.DecodeRow(s.scanner.Record(), s.Sch)
	if err != nil {
		return nil, fmt.Errorf("exec: decode record %s of %s: %w", s.scanner.RID(), s.Table, err)
	}
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
	out := make(types.Row, len(p.Exprs))
	for i, e := range p.Exprs {
		v, err := e.Eval(p.ec, row)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	p.rows++
	return out, nil
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
		keys := make(types.Row, len(s.Keys))
		for i, k := range s.Keys {
			v, err := k.Expr.Eval(ec, row)
			if err != nil {
				return err
			}
			keys[i] = v
		}
		all = append(all, keyed{row: row.Clone(), keys: keys})
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

// Run drains an operator into a materialized result.
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
		out = append(out, row.Clone())
		flight.AddRows(1)
	}
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
