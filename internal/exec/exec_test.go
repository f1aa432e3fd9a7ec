package exec

import (
	"fmt"
	"testing"

	"predator/internal/expr"
	"predator/internal/types"
)

// intSchema builds an (a INT, b INT) schema.
func intSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "b", Kind: types.KindInt},
	)
}

func rows(pairs ...[2]int64) []types.Row {
	out := make([]types.Row, len(pairs))
	for i, p := range pairs {
		out[i] = types.Row{types.NewInt(p[0]), types.NewInt(p[1])}
	}
	return out
}

func colA() *expr.Col { return &expr.Col{Index: 0, K: types.KindInt, Name: "a"} }
func colB() *expr.Col { return &expr.Col{Index: 1, K: types.KindInt, Name: "b"} }

func gt(l expr.Bound, n int64) expr.Bound {
	return &expr.Cmp{Op: ">", L: l, R: &expr.Const{Value: types.NewInt(n)}}
}

func TestFilterRejectsFalseAndNull(t *testing.T) {
	in := &Values{Sch: intSchema(), Rows: append(rows([2]int64{1, 10}, [2]int64{5, 50}),
		types.Row{types.Null(), types.NewInt(99)})}
	f := &Filter{Input: in, Pred: gt(colA(), 2)}
	out, err := Run(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	// a=1 fails, a=5 passes, a=NULL yields NULL -> rejected.
	if len(out) != 1 || out[0][0].Int != 5 {
		t.Errorf("out = %v", out)
	}
}

func TestProjectComputesAndNames(t *testing.T) {
	in := &Values{Sch: intSchema(), Rows: rows([2]int64{3, 4})}
	p := &Project{
		Input: in,
		Exprs: []expr.Bound{
			&expr.Arith{Op: "+", L: colA(), R: colB(), K: types.KindInt},
			colA(),
		},
		Names: []string{"total", ""},
	}
	out, err := Run(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0][0].Int != 7 || out[0][1].Int != 3 {
		t.Errorf("out = %v", out)
	}
	sch := p.Schema()
	if sch.Columns[0].Name != "total" || sch.Columns[1].Name != "a" {
		t.Errorf("schema = %s", sch)
	}
}

func TestNestedLoopJoinCrossAndOn(t *testing.T) {
	left := &Values{Sch: intSchema(), Rows: rows([2]int64{1, 0}, [2]int64{2, 0})}
	right := &Values{
		Sch: types.NewSchema(types.Column{Name: "c", Kind: types.KindInt}),
		Rows: []types.Row{
			{types.NewInt(1)}, {types.NewInt(2)}, {types.NewInt(3)},
		},
	}
	cross := &NestedLoopJoin{Left: left, Right: right}
	out, err := Run(cross, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 6 {
		t.Errorf("cross join rows = %d, want 6", len(out))
	}
	if cross.Schema().Arity() != 3 {
		t.Errorf("join schema arity = %d", cross.Schema().Arity())
	}
	// a = c equijoin.
	left2 := &Values{Sch: intSchema(), Rows: rows([2]int64{1, 0}, [2]int64{2, 0})}
	right2 := &Values{Sch: right.Sch, Rows: right.Rows}
	on := &expr.Cmp{Op: "=", L: colA(), R: &expr.Col{Index: 2, K: types.KindInt, Name: "c"}}
	join := &NestedLoopJoin{Left: left2, Right: right2, On: on}
	out, err = Run(join, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0][0].Int != out[0][2].Int {
		t.Errorf("equijoin = %v", out)
	}
}

func TestSortAscDescStable(t *testing.T) {
	in := &Values{Sch: intSchema(), Rows: rows(
		[2]int64{3, 1}, [2]int64{1, 2}, [2]int64{3, 3}, [2]int64{2, 4})}
	s := &Sort{Input: in, Keys: []SortKey{{Expr: colA()}}}
	out, err := Run(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0][0].Int != 1 || out[3][0].Int != 3 {
		t.Errorf("asc = %v", out)
	}
	// Stability: the two a=3 rows keep input order (b=1 before b=3).
	if out[2][1].Int != 1 || out[3][1].Int != 3 {
		t.Errorf("not stable: %v", out)
	}
	in2 := &Values{Sch: intSchema(), Rows: in.Rows}
	s2 := &Sort{Input: in2, Keys: []SortKey{{Expr: colA(), Desc: true}, {Expr: colB()}}}
	out, _ = Run(s2, nil)
	if out[0][0].Int != 3 || out[0][1].Int != 1 {
		t.Errorf("desc multi-key = %v", out)
	}
}

func TestLimit(t *testing.T) {
	in := &Values{Sch: intSchema(), Rows: rows([2]int64{1, 1}, [2]int64{2, 2}, [2]int64{3, 3})}
	out, err := Run(&Limit{Input: in, N: 2}, nil)
	if err != nil || len(out) != 2 {
		t.Errorf("limit 2 = %v, %v", out, err)
	}
	in2 := &Values{Sch: intSchema(), Rows: in.Rows}
	out, _ = Run(&Limit{Input: in2, N: 0}, nil)
	if len(out) != 0 {
		t.Errorf("limit 0 = %v", out)
	}
	in3 := &Values{Sch: intSchema(), Rows: in.Rows}
	out, _ = Run(&Limit{Input: in3, N: 10}, nil)
	if len(out) != 3 {
		t.Errorf("limit 10 = %v", out)
	}
}

func TestAggregateGlobal(t *testing.T) {
	in := &Values{Sch: intSchema(), Rows: append(rows([2]int64{1, 10}, [2]int64{2, 20}),
		types.Row{types.NewInt(3), types.Null()})}
	agg := &Aggregate{
		Input: in,
		Specs: []expr.AggSpec{
			{Func: expr.AggCount, Name: "COUNT(*)"},
			{Func: expr.AggCount, Arg: colB(), Name: "COUNT(b)"},
			{Func: expr.AggSum, Arg: colB(), Name: "SUM(b)"},
			{Func: expr.AggAvg, Arg: colB(), Name: "AVG(b)"},
			{Func: expr.AggMin, Arg: colB(), Name: "MIN(b)"},
			{Func: expr.AggMax, Arg: colB(), Name: "MAX(b)"},
		},
	}
	out, err := Run(agg, nil)
	if err != nil {
		t.Fatal(err)
	}
	row := out[0]
	if row[0].Int != 3 || row[1].Int != 2 || row[2].Int != 30 ||
		row[3].Float != 15 || row[4].Int != 10 || row[5].Int != 20 {
		t.Errorf("aggregates = %s", row)
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	in := &Values{Sch: intSchema()}
	agg := &Aggregate{
		Input: in,
		Specs: []expr.AggSpec{
			{Func: expr.AggCount, Name: "n"},
			{Func: expr.AggSum, Arg: colA(), Name: "s"},
		},
	}
	out, err := Run(agg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Global aggregation over empty input yields one row: COUNT=0, SUM=NULL.
	if len(out) != 1 || out[0][0].Int != 0 || !out[0][1].IsNull() {
		t.Errorf("empty agg = %v", out)
	}
	// Grouped aggregation over empty input yields zero rows.
	in2 := &Values{Sch: intSchema()}
	agg2 := &Aggregate{Input: in2, Groups: []expr.Bound{colA()},
		Specs: []expr.AggSpec{{Func: expr.AggCount, Name: "n"}}}
	out, _ = Run(agg2, nil)
	if len(out) != 0 {
		t.Errorf("grouped empty agg = %v", out)
	}
}

func TestAggregateGrouped(t *testing.T) {
	in := &Values{Sch: intSchema(), Rows: rows(
		[2]int64{1, 10}, [2]int64{2, 20}, [2]int64{1, 30}, [2]int64{2, 40}, [2]int64{1, 2})}
	agg := &Aggregate{
		Input:  in,
		Groups: []expr.Bound{colA()},
		Specs:  []expr.AggSpec{{Func: expr.AggSum, Arg: colB(), Name: "s"}},
		Names:  []string{"a", "s"},
	}
	out, err := Run(agg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("groups = %v", out)
	}
	// Groups appear in first-seen order.
	if out[0][0].Int != 1 || out[0][1].Int != 42 || out[1][0].Int != 2 || out[1][1].Int != 60 {
		t.Errorf("grouped = %v", out)
	}
}

func TestExplainTreeRendersHierarchy(t *testing.T) {
	in := &Values{Sch: intSchema(), Rows: rows([2]int64{1, 1})}
	plan := &Limit{N: 1, Input: &Filter{Input: in, Pred: gt(colA(), 0)}}
	out := ExplainTree(plan)
	want := "Limit(1)\n  Filter((a > 0)) [cost=0.3]\n    Values(1 rows)\n"
	if out != want {
		t.Errorf("explain = %q, want %q", out, want)
	}
}

func TestRunPropagatesEvalErrors(t *testing.T) {
	in := &Values{Sch: intSchema(), Rows: rows([2]int64{1, 0})}
	div := &expr.Arith{Op: "/", L: colA(), R: colB(), K: types.KindInt}
	p := &Project{Input: in, Exprs: []expr.Bound{div}, Names: []string{"q"}}
	if _, err := Run(p, nil); err == nil {
		t.Error("division by zero not propagated")
	}
}

func TestOperatorReopen(t *testing.T) {
	// Operators must be re-openable (the inner side of a nested-loop
	// join in future plans; also retried queries).
	in := &Values{Sch: intSchema(), Rows: rows([2]int64{1, 1}, [2]int64{2, 2})}
	s := &Sort{Input: in, Keys: []SortKey{{Expr: colA(), Desc: true}}}
	for i := 0; i < 2; i++ {
		out, err := Run(s, nil)
		if err != nil || len(out) != 2 || out[0][0].Int != 2 {
			t.Fatalf("reopen %d: %v, %v", i, out, err)
		}
	}
}

func TestJoinInnerMaterializedOnce(t *testing.T) {
	// countingOp counts Opens of the right side.
	right := &countingOp{inner: &Values{
		Sch:  types.NewSchema(types.Column{Name: "c", Kind: types.KindInt}),
		Rows: []types.Row{{types.NewInt(7)}},
	}}
	left := &Values{Sch: intSchema(), Rows: rows([2]int64{1, 1}, [2]int64{2, 2}, [2]int64{3, 3})}
	j := &NestedLoopJoin{Left: left, Right: right}
	out, err := Run(j, nil)
	if err != nil || len(out) != 3 {
		t.Fatalf("join = %v, %v", out, err)
	}
	if right.opens != 1 {
		t.Errorf("inner side opened %d times, want 1 (materialized)", right.opens)
	}
}

type countingOp struct {
	inner Operator
	opens int
}

func (c *countingOp) Schema() *types.Schema { return c.inner.Schema() }
func (c *countingOp) Open(ec *expr.Ctx) error {
	c.opens++
	return c.inner.Open(ec)
}
func (c *countingOp) Next() (types.Row, error) { return c.inner.Next() }
func (c *countingOp) Close() error             { return c.inner.Close() }
func (c *countingOp) Explain() string          { return fmt.Sprintf("Counting(%d)", c.opens) }
func (c *countingOp) Children() []Operator     { return []Operator{c.inner} }

// Run clones each row out of the operator's reused storage (Project
// returns one row over and over) into shared slabs, each row capped at
// its own length: an append to one row reallocates instead of writing
// over the next.
func TestRunRowsAreCappedSlabs(t *testing.T) {
	in := &Values{Sch: intSchema(), Rows: rows([2]int64{1, 10}, [2]int64{2, 20}, [2]int64{3, 30})}
	p := &Project{Input: in, Exprs: []expr.Bound{colB(), colA()}, Names: []string{"b", "a"}}
	out, err := Run(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("out = %v", out)
	}
	for i, r := range out {
		if cap(r) != len(r) {
			t.Errorf("row %d has cap %d, len %d", i, cap(r), len(r))
		}
	}
	_ = append(out[0], types.NewInt(99))
	if fmt.Sprint(out) != "[(10, 1) (20, 2) (30, 3)]" {
		t.Errorf("after an append to row 0: %v", out)
	}
}

// A rowArena's clones own their bytes and are capped at their length,
// and after a reset an arena that clones as much again allocates
// nothing: what lets a recycled batch window gather without allocating.
func TestRowArenaClonesAndReuses(t *testing.T) {
	src := types.Row{types.NewInt(1), types.NewBytes([]byte("abc")), types.NewBytes([]byte{})}
	var a rowArena
	fill := func() []types.Row {
		var kept []types.Row
		for range 100 {
			kept = append(kept, a.clone(src))
		}
		return kept
	}
	kept := fill()
	src[1].Bytes[0] = 'X'
	for _, r := range kept {
		if string(r[1].Bytes) != "abc" || cap(r[1].Bytes) != 3 || cap(r) != 3 {
			t.Fatalf("clone %v: bytes cap %d, row cap %d", r, cap(r[1].Bytes), cap(r))
		}
		if r[2].Bytes == nil || cap(r[2].Bytes) != 0 {
			t.Fatalf("empty BYTES cloned as %#v", r[2].Bytes)
		}
	}
	kept = kept[:0]
	if n := testing.AllocsPerRun(10, func() {
		a.reset()
		for range 100 {
			kept = append(kept, a.clone(src))
		}
		kept = kept[:0]
	}); n != 0 {
		t.Errorf("cloning into a reset arena made %.1f allocations, want 0", n)
	}
}
