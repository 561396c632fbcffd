package engine

import (
	"math"
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

// equiKeyEdgeValues are the values around which "Equal ⇒ same Key" used
// to break: integers beyond 2⁵³ (where int→float64 rounds), integral
// floats at and beyond 1e15 (where the key encoding used to switch from
// the integer to the float form), the int64 limits, −0.0, NULL and
// strings that print like numbers.
func equiKeyEdgeValues() []tuple.Value {
	const two53 = int64(1) << 53
	vals := []tuple.Value{
		tuple.Null,
		tuple.Int(0), tuple.Float(0), tuple.Float(math.Copysign(0, -1)),
		tuple.Int(1), tuple.Float(1), tuple.Float(1.5),
		tuple.String_("1"), tuple.String_("1e+15"), tuple.String_(""),
		tuple.Int(math.MaxInt64), tuple.Int(math.MinInt64),
		tuple.Float(9223372036854775808.0), tuple.Float(-9223372036854775808.0),
	}
	for _, base := range []int64{two53, 1e15, -two53, -1e15} {
		for d := int64(-2); d <= 2; d++ {
			vals = append(vals, tuple.Int(base+d), tuple.Float(float64(base+d)))
		}
	}
	return vals
}

// TestEquiKeyAgreesWithFilter: an equality promoted from a Filter to a
// hash key must not change the answer. A Filter decides a = b with
// tuple.Compare, a hash join with Tuple.AppendKey; for every pair of
// edge values σ[a=b](L ⋈[true] R) and L ⋈[a=b] R must be the same
// multiset.
func TestEquiKeyAgreesWithFilter(t *testing.T) {
	vals := equiKeyEdgeValues()
	l := NewTable(tuple.NewSchema("a"))
	r := NewTable(tuple.NewSchema("b"))
	for _, v := range vals {
		l.Append(tuple.Tuple{v}, interval.New(0, 10), 1)
		r.Append(tuple.Tuple{v}, interval.New(5, 15), 1)
	}
	eq := algebra.Eq(algebra.Col("a"), algebra.Col("b"))
	cross, err := TemporalJoin(l, r, algebra.BoolC(true))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Filter(cross, eq)
	if err != nil {
		t.Fatal(err)
	}
	it := joinIterFor(t, l, r, eq)
	defer it.Close()
	if _, ok := it.(*hashJoinIter); !ok {
		t.Fatalf("a = b chose %T, want the hash join", it)
	}
	got := Materialize(it)
	want.Sort()
	got.Sort()
	if got.String() != want.String() {
		t.Fatalf("hash key and filter disagree on a = b:\nhash join:\n%s\nfiltered cross join:\n%s", got, want)
	}
	// Every non-NULL value equals at least itself.
	if got.Len() < len(vals)-1 {
		t.Fatalf("only %d matches over %d values", got.Len(), len(vals))
	}
	// And pairwise, without a join: Equal ⇔ same Key.
	for _, a := range vals {
		for _, b := range vals {
			sameKey := tuple.Tuple{a}.Key() == tuple.Tuple{b}.Key()
			if tuple.Equal(a, b) != sameKey {
				t.Errorf("Equal(%v %s, %v %s) = %v but same key = %v", a, a.Kind(), b, b.Kind(), tuple.Equal(a, b), sameKey)
			}
		}
	}
}

// TestEquiKeyExtraction: every cross-side column equality becomes a hash
// key — in either operand order — literal TRUEs vanish, and what is left
// is the residual; a predicate that is all keys has none.
func TestEquiKeyExtraction(t *testing.T) {
	l, r := tuple.NewSchema("a", "b"), tuple.NewSchema("c", "d")
	col := algebra.Col
	prep, err := PrepareJoin(l, r, algebra.And(algebra.BoolC(true), algebra.Eq(col("a"), col("c")), algebra.Eq(col("d"), col("b"))))
	if err != nil {
		t.Fatal(err)
	}
	if len(prep.lIdx) != 2 || prep.lIdx[0] != 0 || prep.rIdx[0] != 0 || prep.lIdx[1] != 1 || prep.rIdx[1] != 1 {
		t.Fatalf("keys = %v / %v, want (a,c) and (b,d)", prep.lIdx, prep.rIdx)
	}
	if prep.res != nil {
		t.Fatal("an all-keys predicate must leave no residual")
	}
	prep, err = PrepareJoin(l, r, algebra.And(algebra.Eq(col("a"), col("c")), algebra.Eq(col("a"), col("b")), algebra.Lt(col("b"), col("d"))))
	if err != nil {
		t.Fatal(err)
	}
	if len(prep.lIdx) != 1 || prep.res == nil {
		t.Fatalf("keys = %v, residual = %v; want one key (a = b is one-sided) and a residual", prep.lIdx, prep.res != nil)
	}
}

// TestHashJoinAllocatesOnlyEmittedRows: the probe tests overlap and the
// residual before it allocates, so a join whose residual rejects every
// pair allocates per output batch, not per candidate pair — and a
// surviving row is its own allocation, never the scratch row the
// residual ran on.
func TestHashJoinAllocatesOnlyEmittedRows(t *testing.T) {
	const n = 200 // one bucket: n×n = 40000 candidate pairs
	l := NewTable(tuple.NewSchema("k", "a"))
	r := NewTable(tuple.NewSchema("k2", "b"))
	for i := 0; i < n; i++ {
		l.Append(tuple.Tuple{tuple.Int(1), tuple.Int(int64(i))}, interval.New(0, 10), 1)
		r.Append(tuple.Tuple{tuple.Int(1), tuple.Int(int64(i))}, interval.New(0, 10), 1)
	}
	col := algebra.Col
	prep, err := PrepareJoin(l.DataSchema(), r.DataSchema(), algebra.And(algebra.Eq(col("k"), col("k2")), algebra.Lt(col("a"), algebra.IntC(0))))
	if err != nil {
		t.Fatal(err)
	}
	build := prep.Build(NewTableIter(r), false, 0)
	batch := NewRowBatch(DefaultBatchSize)
	allocs := testing.AllocsPerRun(5, func() {
		it := build.Probe(NewTableIter(l))
		for it.NextBatch(batch) {
			t.Fatal("the residual rejects every pair")
		}
		it.Close()
	})
	// The probe iterator, its scratch row and its key buffer: a handful
	// per run, against 40000 candidate pairs.
	if allocs > 16 {
		t.Fatalf("all-rejecting hash join made %.0f allocations for %d pairs", allocs, n*n)
	}

	// Surviving rows: one per pair, none sharing backing with another.
	prep, err = PrepareJoin(l.DataSchema(), r.DataSchema(), algebra.And(algebra.Eq(col("k"), col("k2")), algebra.Eq(col("a"), algebra.IntC(7))))
	if err != nil {
		t.Fatal(err)
	}
	out := Materialize(prep.Build(NewTableIter(r), false, 0).Probe(NewTableIter(l)))
	if out.Len() != n {
		t.Fatalf("%d rows, want %d", out.Len(), n)
	}
	for i, row := range out.Rows {
		if row[3].AsInt() != int64(i) || row[1].AsInt() != 7 {
			t.Fatalf("row %d = %v: rows emitted after it overwrote it (aliased scratch?)", i, row)
		}
	}
}
