package engine

import (
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/interval"
	"snapk/internal/tuple"
)

// joinIterFor builds the streaming join over two tables and returns the
// physical iterator chosen for the predicate.
func joinIterFor(t *testing.T, l, r *Table, pred algebra.Expr) RowIter {
	t.Helper()
	it, err := NewJoinIter(NewTableIter(l), NewTableIter(r), pred)
	if err != nil {
		t.Fatalf("NewJoinIter: %v", err)
	}
	return it
}

// A join predicate without any equality conjunct must run as the
// endpoint-sorted overlap sweep, not as a degenerate hash join whose
// build rows all collapse into one bucket.
func TestNoEquiKeyJoinUsesOverlapSweep(t *testing.T) {
	l := NewTable(tuple.NewSchema("a"))
	r := NewTable(tuple.NewSchema("b"))
	l.Append(tuple.Tuple{tuple.Int(1)}, interval.New(0, 5), 1)
	r.Append(tuple.Tuple{tuple.Int(2)}, interval.New(3, 8), 1)

	it := joinIterFor(t, l, r, algebra.BoolC(true))
	defer it.Close()
	if _, ok := it.(*overlapJoinIter); !ok {
		t.Fatalf("pure-overlap join chose %T, want *overlapJoinIter", it)
	}
	if _, ok := joinIterFor(t, l, r, algebra.Lt(algebra.Col("a"), algebra.Col("b"))).(*overlapJoinIter); !ok {
		t.Fatalf("non-equi predicate must choose the overlap sweep")
	}
	if _, ok := joinIterFor(t, l, r, algebra.Eq(algebra.Col("a"), algebra.Col("b"))).(*hashJoinIter); !ok {
		t.Fatalf("equi predicate must choose the streaming hash join")
	}
}

// The overlap sweep must produce exactly the pairs an overlap join
// defines, across begin-point ties, containment, adjacency (which is not
// overlap for half-open intervals) and duplicates.
func TestOverlapSweepEdgePatterns(t *testing.T) {
	l := NewTable(tuple.NewSchema("a"))
	r := NewTable(tuple.NewSchema("b"))
	l.Append(tuple.Tuple{tuple.Int(1)}, interval.New(0, 4), 1)
	l.Append(tuple.Tuple{tuple.Int(2)}, interval.New(0, 4), 1) // begin tie with row 1
	l.Append(tuple.Tuple{tuple.Int(3)}, interval.New(4, 8), 1) // adjacent to [0,4)
	l.Append(tuple.Tuple{tuple.Int(4)}, interval.New(1, 2), 2) // contained, duplicated
	r.Append(tuple.Tuple{tuple.Int(10)}, interval.New(0, 4), 1)
	r.Append(tuple.Tuple{tuple.Int(11)}, interval.New(3, 5), 1)
	r.Append(tuple.Tuple{tuple.Int(12)}, interval.New(8, 9), 1) // overlaps nothing

	got, err := TemporalJoin(l, r, algebra.BoolC(true))
	if err != nil {
		t.Fatal(err)
	}
	want := NewTable(tuple.NewSchema("a", "b"))
	pair := func(a, b, begin, end int64, mult int64) {
		want.Append(tuple.Tuple{tuple.Int(a), tuple.Int(b)}, interval.New(begin, end), mult)
	}
	pair(1, 10, 0, 4, 1)
	pair(1, 11, 3, 4, 1)
	pair(2, 10, 0, 4, 1)
	pair(2, 11, 3, 4, 1)
	pair(3, 11, 4, 5, 1)
	pair(4, 10, 1, 2, 2)
	assertSameRows(t, got, want)
}

func assertSameRows(t *testing.T, got, want *Table) {
	t.Helper()
	g, w := got.Clone(), want.Clone()
	g.Sort()
	w.Sort()
	if len(g.Rows) != len(w.Rows) {
		t.Fatalf("row count %d, want %d\ngot:\n%swant:\n%s", len(g.Rows), len(w.Rows), got, want)
	}
	for i := range g.Rows {
		if g.Rows[i].Key() != w.Rows[i].Key() {
			t.Fatalf("row %d = %v, want %v", i, g.Rows[i], w.Rows[i])
		}
	}
}

// Rows emitted with multiplicity > 1 must not share a backing slice: an
// in-place mutation of one output row must leave its siblings intact.
func TestCoalesceEmittedRowsDoNotAlias(t *testing.T) {
	in := NewTable(tuple.NewSchema("name"))
	in.Append(tuple.Tuple{str("Ann")}, interval.New(0, 10), 2)
	out := Coalesce(in, CoalesceNative)
	if out.Len() != 2 {
		t.Fatalf("coalesce emitted %d rows, want 2:\n%s", out.Len(), out)
	}
	out.Rows[0][0] = str("MUTATED")
	if got := out.Rows[1][0].AsString(); got != "Ann" {
		t.Fatalf("mutating row 0 corrupted its sibling: row 1 = %q, want \"Ann\"", got)
	}
}

func TestDiffEmittedRowsDoNotAlias(t *testing.T) {
	l := NewTable(tuple.NewSchema("name"))
	r := NewTable(tuple.NewSchema("name"))
	l.Append(tuple.Tuple{str("Ann")}, interval.New(0, 10), 3)
	r.Append(tuple.Tuple{str("Ann")}, interval.New(0, 10), 1)
	out, err := TemporalDiff(l, r)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("diff emitted %d rows, want 2:\n%s", out.Len(), out)
	}
	out.Rows[0][0] = str("MUTATED")
	if got := out.Rows[1][0].AsString(); got != "Ann" {
		t.Fatalf("mutating row 0 corrupted its sibling: row 1 = %q, want \"Ann\"", got)
	}
}

func TestAppendedRowsDoNotAlias(t *testing.T) {
	tbl := NewTable(tuple.NewSchema("name"))
	tbl.Append(tuple.Tuple{str("Ann")}, interval.New(0, 10), 2)
	tbl.Rows[0][0] = str("MUTATED")
	if got := tbl.Rows[1][0].AsString(); got != "Ann" {
		t.Fatalf("mutating row 0 corrupted its sibling: row 1 = %q, want \"Ann\"", got)
	}
}

// Def 8.2 edge cases of the coalescing sweep: the trailing segment of a
// group closes only at the final endpoint, and interior points whose net
// delta is zero keep the current segment open.
func TestCoalesceTrailingSegment(t *testing.T) {
	// Net count returns to zero only at the final endpoint 10: the sweep
	// must emit the changepoints [0,2) ×1, [2,8) ×2 and the trailing
	// segment [8,10) ×1.
	in := NewTable(tuple.NewSchema("name"))
	in.Append(tuple.Tuple{str("Ann")}, interval.New(0, 10), 1)
	in.Append(tuple.Tuple{str("Ann")}, interval.New(2, 8), 1)
	want := NewTable(tuple.NewSchema("name"))
	want.Append(tuple.Tuple{str("Ann")}, interval.New(0, 2), 1)
	want.Append(tuple.Tuple{str("Ann")}, interval.New(2, 8), 2)
	want.Append(tuple.Tuple{str("Ann")}, interval.New(8, 10), 1)
	assertSameRows(t, Coalesce(in, CoalesceNative), want)
	assertSameRows(t, Coalesce(in, CoalesceAnalytic), want)
}

func TestCoalesceZeroDeltaInteriorPointKeepsSegmentOpen(t *testing.T) {
	// One row ends exactly where another begins: at t=5 the deltas cancel
	// (−1 + 1 = 0), so no changepoint — the group coalesces to [0,10).
	in := NewTable(tuple.NewSchema("name"))
	in.Append(tuple.Tuple{str("Ann")}, interval.New(0, 5), 1)
	in.Append(tuple.Tuple{str("Ann")}, interval.New(5, 10), 1)
	want := NewTable(tuple.NewSchema("name"))
	want.Append(tuple.Tuple{str("Ann")}, interval.New(0, 10), 1)
	assertSameRows(t, Coalesce(in, CoalesceNative), want)
	assertSameRows(t, Coalesce(in, CoalesceAnalytic), want)

	// Same shape with an extra open row: at t=5 the count stays 2 with
	// delta 0, so the segment [0,10) ×2 survives intact.
	in.Append(tuple.Tuple{str("Ann")}, interval.New(0, 10), 1)
	want2 := NewTable(tuple.NewSchema("name"))
	want2.Append(tuple.Tuple{str("Ann")}, interval.New(0, 10), 2)
	assertSameRows(t, Coalesce(in, CoalesceNative), want2)
}
