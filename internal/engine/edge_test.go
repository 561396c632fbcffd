package engine

import (
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/tuple"
)

// Diff where only the right side has tuples: nothing to subtract from.
func TestDiffRightOnly(t *testing.T) {
	l := NewTable(tuple.NewSchema("x"))
	r := NewTable(tuple.NewSchema("x"))
	r.Append(tuple.Tuple{tuple.Int(1)}, interval.New(0, 10), 3)
	d, err := TemporalDiff(l, r)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 {
		t.Fatalf("diff = %v", d)
	}
}

// Diff of identical sides cancels exactly.
func TestDiffSelfCancels(t *testing.T) {
	l := worksTable()
	d, err := TemporalDiff(l, l)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 {
		t.Fatalf("self-diff should be empty:\n%s", d)
	}
}

// Interleaved multiplicity changes: the sweep must track partial
// cancellation per elementary segment.
func TestDiffPartialOverlaps(t *testing.T) {
	l := NewTable(tuple.NewSchema("x"))
	r := NewTable(tuple.NewSchema("x"))
	one := tuple.Tuple{tuple.Int(1)}
	l.Append(one, interval.New(0, 10), 2)
	l.Append(one, interval.New(5, 20), 1)
	r.Append(one, interval.New(3, 8), 1)
	r.Append(one, interval.New(15, 25), 2)
	d, err := TemporalDiff(l, r)
	if err != nil {
		t.Fatal(err)
	}
	rel := Coalesce(d).ToPeriodRelation(alg)
	ann := rel.Annotation(one)
	// L counts: [0,3)=2 [3,5)=2 [5,8)=3 [8,10)=3 [10,15)=1 [15,20)=1.
	// R counts: [3,8)=1, [15,25)=2.
	// L−R:      [0,3)=2 [3,5)=1 [5,8)=2 [8,10)=3 [10,15)=1 [15,20)=0.
	for tp, want := range map[int64]int64{0: 2, 3: 1, 5: 2, 8: 3, 10: 1, 15: 0, 20: 0} {
		if got := alg.Timeslice(ann, tp); got != want {
			t.Fatalf("τ_%d = %d, want %d (ann %v)", tp, got, want, ann)
		}
	}
}

// Coalescing a single row is the identity.
func TestCoalesceSingleRow(t *testing.T) {
	in := NewTable(tuple.NewSchema("x"))
	in.Append(tuple.Tuple{tuple.Int(1)}, interval.New(2, 9), 1)
	got := Coalesce(in)
	if got.Len() != 1 || got.Interval(got.Rows[0]) != interval.New(2, 9) {
		t.Fatalf("coalesce = %v", got)
	}
}

// Zero-width gaps between rows of the same tuple (end == next begin) with
// different multiplicities must produce a changepoint, not a merge.
func TestCoalesceChangepointAtTouch(t *testing.T) {
	in := NewTable(tuple.NewSchema("x"))
	one := tuple.Tuple{tuple.Int(1)}
	in.Append(one, interval.New(0, 5), 2)
	in.Append(one, interval.New(5, 9), 1)
	got := Coalesce(in)
	if got.Len() != 3 { // 2 copies on [0,5) + 1 on [5,9)
		t.Fatalf("coalesce = %v", got)
	}
}

// Aggregation over a table whose rows all share one instant of change.
func TestAggregateSimultaneousEvents(t *testing.T) {
	in := NewTable(tuple.NewSchema("v"))
	in.Append(tuple.Tuple{tuple.Int(5)}, interval.New(0, 10), 1)
	in.Append(tuple.Tuple{tuple.Int(7)}, interval.New(10, 20), 1) // swap at 10
	for _, preAgg := range []bool{true, false} {
		got, err := TemporalAggregate(in, nil, []algebra.AggSpec{{Fn: krel.Sum, Arg: "v", As: "s"}}, preAgg, dom)
		if err != nil {
			t.Fatal(err)
		}
		rel := Coalesce(got).ToPeriodRelation(alg)
		if ann := rel.Annotation(tuple.Tuple{tuple.Int(5)}); !ann.Equal(alg.Singleton(interval.New(0, 10), 1)) {
			t.Fatalf("preAgg=%v: sum 5 = %v", preAgg, ann)
		}
		if ann := rel.Annotation(tuple.Tuple{tuple.Int(7)}); !ann.Equal(alg.Singleton(interval.New(10, 20), 1)) {
			t.Fatalf("preAgg=%v: sum 7 = %v", preAgg, ann)
		}
		if ann := rel.Annotation(tuple.Tuple{tuple.Null}); !ann.Equal(alg.Singleton(interval.New(20, 24), 1)) {
			t.Fatalf("preAgg=%v: trailing gap = %v", preAgg, ann)
		}
	}
}

// Min/max sweepers must handle duplicate values entering and leaving.
func TestAggregateMinMaxDuplicates(t *testing.T) {
	in := NewTable(tuple.NewSchema("v"))
	in.Append(tuple.Tuple{tuple.Int(5)}, interval.New(0, 10), 1)
	in.Append(tuple.Tuple{tuple.Int(5)}, interval.New(2, 6), 1)
	in.Append(tuple.Tuple{tuple.Int(3)}, interval.New(4, 8), 1)
	got, err := TemporalAggregate(in, nil, []algebra.AggSpec{
		{Fn: krel.Min, Arg: "v", As: "mn"},
		{Fn: krel.Max, Arg: "v", As: "mx"},
	}, true, dom)
	if err != nil {
		t.Fatal(err)
	}
	rel := Coalesce(got).ToPeriodRelation(alg)
	// During [4,8): min 3, max 5. During [8,10): min 5 max 5. After one 5
	// leaves at 6, min stays 3 until 8.
	if ann := rel.Annotation(tuple.Tuple{tuple.Int(3), tuple.Int(5)}); !ann.Equal(alg.Singleton(interval.New(4, 8), 1)) {
		t.Fatalf("(3,5) = %v\n%v", ann, rel)
	}
	if ann := rel.Annotation(tuple.Tuple{tuple.Int(5), tuple.Int(5)}); ann.IsZero() {
		t.Fatalf("(5,5) missing: %v", rel)
	}
}

// A join whose key column contains NULLs must not match NULL to NULL
// (SQL semantics: NULL = NULL is unknown).
func TestJoinNullKeys(t *testing.T) {
	l := NewTable(tuple.NewSchema("k"))
	r := NewTable(tuple.NewSchema("k2"))
	l.Append(tuple.Tuple{tuple.Null}, interval.New(0, 10), 1)
	r.Append(tuple.Tuple{tuple.Null}, interval.New(0, 10), 1)
	got, err := TemporalJoin(l, r, algebra.Eq(algebra.Col("k"), algebra.Col("k2")))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("NULL keys must not join: %v", got)
	}
}

// Project may reference the period columns explicitly (REWR never does,
// but the operator allows it for diagnostics).
func TestProjectCanReadPeriodColumns(t *testing.T) {
	in := worksTable()
	got, err := Project(in, []algebra.NamedExpr{
		{Name: "name", E: algebra.Col("name")},
		{Name: "dur", E: algebra.Sub(algebra.Col(EndCol), algebra.Col(BeginCol))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows[0][1].AsInt() != 7 { // Ann [3,10)
		t.Fatalf("dur = %v", got.Rows[0])
	}
}

// Equality conjuncts written right-to-left (r.col = l.col) must still be
// extracted as hash keys.
func TestJoinSwappedEqualityOperands(t *testing.T) {
	got, err := TemporalJoin(worksTable(), assignTable(),
		algebra.Eq(algebra.Col("r.skill"), algebra.Col("skill")))
	if err != nil {
		t.Fatal(err)
	}
	want, err := TemporalJoin(worksTable(), assignTable(),
		algebra.Eq(algebra.Col("skill"), algebra.Col("r.skill")))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("swapped-operand join: %d rows vs %d", got.Len(), want.Len())
	}
}

// Multi-column equi-joins hash on all extracted key pairs.
func TestJoinMultiColumnKeys(t *testing.T) {
	l := NewTable(tuple.NewSchema("a", "b"))
	r := NewTable(tuple.NewSchema("c", "d"))
	l.Append(tuple.Tuple{tuple.Int(1), tuple.Int(2)}, interval.New(0, 10), 1)
	l.Append(tuple.Tuple{tuple.Int(1), tuple.Int(3)}, interval.New(0, 10), 1)
	r.Append(tuple.Tuple{tuple.Int(1), tuple.Int(2)}, interval.New(5, 15), 1)
	got, err := TemporalJoin(l, r, algebra.And(
		algebra.Eq(algebra.Col("a"), algebra.Col("c")),
		algebra.Eq(algebra.Col("b"), algebra.Col("d")),
	))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("multi-key join = %d rows:\n%s", got.Len(), got)
	}
	if got.Interval(got.Rows[0]) != interval.New(5, 10) {
		t.Fatalf("period = %v", got.Interval(got.Rows[0]))
	}
}

// Split with an empty grouping splits every row against every endpoint.
func TestSplitGlobalGroup(t *testing.T) {
	in := NewTable(tuple.NewSchema("x"))
	in.Append(tuple.Tuple{tuple.Int(1)}, interval.New(0, 10), 1)
	in.Append(tuple.Tuple{tuple.Int(2)}, interval.New(5, 15), 1)
	got := Split(in, nil)
	if got.Len() != 4 { // [0,5)[5,10) and [5,10)[10,15)
		t.Fatalf("global split = %d rows:\n%s", got.Len(), got)
	}
}
