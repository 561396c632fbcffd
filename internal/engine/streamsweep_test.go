package engine

import (
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/tuple"
)

// The streaming sweep tests live in the engine package (not
// engine_test) so they can pin down internal invariants — emission
// timing and panic behavior — that the black-box equivalence suite
// cannot name.

func sweepTable(rows ...[3]int64) *Table {
	t := NewTable(tuple.NewSchema("v"))
	for _, r := range rows {
		t.Append(tuple.Tuple{tuple.Int(r[0])}, interval.New(r[1], r[2]), 1)
	}
	return t
}

func materializeSorted(t *Table) []string {
	c := t.Clone()
	c.Sort()
	keys := make([]string, len(c.Rows))
	for i, row := range c.Rows {
		keys[i] = row.Key()
	}
	return keys
}

func assertSameTable(t *testing.T, got, want *Table) {
	t.Helper()
	g, w := materializeSorted(got), materializeSorted(want)
	if len(g) != len(w) {
		t.Fatalf("row counts differ: got %d, want %d\ngot:\n%s\nwant:\n%s", len(g), len(w), got, want)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("row %d differs: got %s, want %s\ngot:\n%s\nwant:\n%s", i, g[i], w[i], got, want)
		}
	}
}

// An interval ending exactly where another of the same group begins
// must coalesce into one maximal interval — the same-instant events
// cancel and no boundary may be emitted.
func TestStreamCoalesceAdjacentIntervalsMerge(t *testing.T) {
	in := sweepTable([3]int64{1, 0, 4}, [3]int64{1, 4, 8})
	got := Materialize(NewStreamCoalesceIter(NewTableIter(in)))
	if len(got.Rows) != 1 {
		t.Fatalf("adjacent intervals did not merge: %s", got)
	}
	if iv := got.Interval(got.Rows[0]); iv != interval.New(0, 8) {
		t.Fatalf("merged interval = %v, want [0, 8)", iv)
	}
}

// Two ends and one begin at the same instant with a second begin
// arriving later at that instant: the net delta is zero, so the segment
// must run through unbroken. This is the case an eager (non-deferred)
// commit gets wrong by emitting a spurious boundary.
func TestStreamCoalesceSameInstantCancellation(t *testing.T) {
	in := sweepTable(
		[3]int64{1, 0, 4}, [3]int64{1, 0, 4}, // two rows ending at 4
		[3]int64{1, 4, 8}, [3]int64{1, 4, 8}, // two rows beginning at 4
	)
	got := Materialize(NewStreamCoalesceIter(NewTableIter(in)))
	want := Coalesce(in)
	assertSameTable(t, got, want)
	if len(got.Rows) != 2 {
		t.Fatalf("expected the two-copy segment [0,8)x2, got %s", got)
	}
	for _, row := range got.Rows {
		if iv := got.Interval(row); iv != interval.New(0, 8) {
			t.Fatalf("spurious boundary: row interval %v, want [0, 8)", iv)
		}
	}
}

// Multiplicity steps up and down across overlaps must match the
// blocking sweep exactly.
func TestStreamCoalesceOverlapSteps(t *testing.T) {
	in := sweepTable([3]int64{7, 0, 10}, [3]int64{7, 5, 15}, [3]int64{7, 5, 7})
	got := Materialize(NewStreamCoalesceIter(NewTableIter(in)))
	assertSameTable(t, got, Coalesce(in))
}

// Interval ends beyond any practical sweep position must still be
// flushed at end of input (regression: the drain used a 1<<62 sentinel
// and silently dropped segments ending at or above it).
func TestStreamCoalesceFlushesHugeEnds(t *testing.T) {
	huge := int64(1) << 62
	in := sweepTable([3]int64{1, 0, huge}, [3]int64{1, 0, huge + 5})
	got := Materialize(NewStreamCoalesceIter(NewTableIter(in)))
	assertSameTable(t, got, Coalesce(in))
	if len(got.Rows) != 3 {
		t.Fatalf("want segments [0,huge)x2 and [huge,huge+5), got %s", got)
	}
}

// The streaming coalesce must reject out-of-order input loudly: silent
// acceptance would mean silently wrong results on a planner bug.
func TestStreamCoalescePanicsOnUnsortedInput(t *testing.T) {
	in := sweepTable([3]int64{1, 5, 9}, [3]int64{1, 0, 4})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unsorted input")
		}
	}()
	Materialize(NewStreamCoalesceIter(NewTableIter(in)))
}

// The streaming sweeps must evict fully-closed groups as the sweep
// passes them: state is O(active groups + open intervals), not
// O(distinct values). Feed n disjoint single-interval groups in begin
// order and watch the live-group count of the one-input difference sweep
// stay small.
func TestStreamCoalesceEvictsClosedGroups(t *testing.T) {
	const n = 1000
	in := NewTable(tuple.NewSchema("v"))
	for i := int64(0); i < n; i++ {
		in.Append(tuple.Tuple{tuple.Int(i)}, interval.New(i, i+1), 1)
	}
	it := NewStreamCoalesceIter(NewTableIter(in)).(*countSweep)
	defer it.Close()
	rows, maxLive := 0, 0
	b := NewRowBatch(1) // sample the live groups after every output row
	for it.NextBatch(b) {
		rows += b.Len()
		maxLive = max(maxLive, it.live)
	}
	if rows != n {
		t.Fatalf("coalesce of disjoint singletons must be the identity: %d rows, want %d", rows, n)
	}
	if maxLive > 8 {
		t.Fatalf("live groups grew to %d; closed groups are not being evicted", maxLive)
	}
}

// Groups still open at end of input are flushed in first-seen order,
// so two runs over the same input stream rows in the same order — not
// in map iteration order.
func TestStreamCoalesceFlushOrderIsDeterministic(t *testing.T) {
	const n = 200
	in := NewTable(tuple.NewSchema("v"))
	for i := int64(0); i < n; i++ {
		in.Append(tuple.Tuple{tuple.Int(i)}, interval.New(i, 10*n), 1)
	}
	run := func() []string {
		out := Materialize(NewStreamCoalesceIter(NewTableIter(in)))
		keys := make([]string, len(out.Rows))
		for i, row := range out.Rows {
			keys[i] = row.Key()
		}
		return keys
	}
	first, second := run(), run()
	if len(first) != n {
		t.Fatalf("coalesce of %d distinct open rows emitted %d rows", n, len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("row %d differs between runs: %s vs %s", i, first[i], second[i])
		}
		if want := (tuple.Tuple{tuple.Int(int64(i)), tuple.Int(int64(i)), tuple.Int(10 * n)}).Key(); first[i] != want {
			t.Fatalf("row %d = %s, want %s (first-seen order)", i, first[i], want)
		}
	}
}

func TestStreamAggEvictsClosedGroups(t *testing.T) {
	const n = 1000
	in := NewTable(tuple.NewSchema("v"))
	for i := int64(0); i < n; i++ {
		in.Append(tuple.Tuple{tuple.Int(i)}, interval.New(i, i+1), 1)
	}
	aggs := []algebra.AggSpec{{Fn: krel.CountStar, As: "cnt"}}
	raw, err := NewStreamAggIter(NewTableIter(in), []string{"v"}, aggs, interval.NewDomain(0, n+1))
	if err != nil {
		t.Fatal(err)
	}
	it := raw.(*aggStream)
	defer it.Close()
	rows, maxLive := 0, 0
	b := NewRowBatch(1) // sample the live groups after every output row
	for it.NextBatch(b) {
		rows += b.Len()
		maxLive = max(maxLive, it.live)
	}
	if rows != n {
		t.Fatalf("grouped count over disjoint singletons: %d rows, want %d", rows, n)
	}
	if maxLive > 8 {
		t.Fatalf("live groups grew to %d; closed groups are not being evicted", maxLive)
	}
}

// Eviction must not break group re-opening: a value whose group was
// evicted and later reappears must still produce the exact blocking
// result (separate maximal segments).
func TestStreamCoalesceGroupReopensAfterEviction(t *testing.T) {
	in := sweepTable(
		[3]int64{1, 0, 2},
		[3]int64{2, 3, 20}, // keeps the sweep moving past group 1
		[3]int64{1, 10, 12},
		[3]int64{2, 21, 22},
		[3]int64{1, 21, 30},
	)
	got := Materialize(NewStreamCoalesceIter(NewTableIter(in)))
	assertSameTable(t, got, Coalesce(in))
}

// Endpoint comparison must not overflow on extreme timestamps
// (regression: begin was compared via int64 subtraction).
func TestCompareEndpointsExtremeTimes(t *testing.T) {
	lo := tuple.Tuple{tuple.Int(0), tuple.Int(-1 << 63), tuple.Int(0)}
	hi := tuple.Tuple{tuple.Int(0), tuple.Int(1<<63 - 2), tuple.Int(1<<63 - 1)}
	if CompareEndpoints(lo, hi) != -1 || CompareEndpoints(hi, lo) != 1 {
		t.Fatal("extreme begins compare wrongly (subtraction overflow)")
	}
	if CompareEndpoints(lo, lo) != 0 {
		t.Fatal("equal rows must compare equal")
	}
}

// Streaming grouped aggregation must evaluate at every endpoint, merge
// adjacent equal segments and skip gaps, exactly like the blocking
// pre-aggregated sweep.
func TestStreamAggMatchesBlockingGrouped(t *testing.T) {
	dom := interval.NewDomain(0, 24)
	in := NewTable(tuple.NewSchema("g", "x"))
	add := func(g, x, b, e int64) {
		in.Append(tuple.Tuple{tuple.Int(g), tuple.Int(x)}, interval.New(b, e), 1)
	}
	add(1, 10, 0, 10)
	add(1, 20, 5, 15)
	add(2, 7, 2, 4)
	add(2, 9, 8, 12) // gap inside group 2: no output rows over [4, 8)
	in.SortByEndpoints()
	aggs := []algebra.AggSpec{
		{Fn: krel.Sum, Arg: "x", As: "s"},
		{Fn: krel.Min, Arg: "x", As: "lo"},
		{Fn: krel.CountStar, As: "cnt"},
	}
	want, err := TemporalAggregate(in, []string{"g"}, aggs, true, dom)
	if err != nil {
		t.Fatal(err)
	}
	it, err := NewStreamAggIter(NewTableIter(in), []string{"g"}, aggs, dom)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	assertSameTable(t, Materialize(it), want)
}

// Global streaming aggregation emits neutral rows over gaps and over
// the whole domain when the input is empty — the AG-bug fix.
func TestStreamAggGlobalGapsAndEmptyInput(t *testing.T) {
	dom := interval.NewDomain(0, 20)
	aggs := []algebra.AggSpec{{Fn: krel.CountStar, As: "cnt"}}

	empty := NewTable(tuple.NewSchema("x"))
	it, err := NewStreamAggIter(NewTableIter(empty), nil, aggs, dom)
	if err != nil {
		t.Fatal(err)
	}
	got := Materialize(it)
	it.Close()
	want, err := TemporalAggregate(empty, nil, aggs, true, dom)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTable(t, got, want)
	if got.Len() != 1 {
		t.Fatalf("empty input must produce one neutral row over the domain, got %s", got)
	}

	in := NewTable(tuple.NewSchema("x"))
	in.Append(tuple.Tuple{tuple.Int(1)}, interval.New(3, 7), 1)
	in.Append(tuple.Tuple{tuple.Int(2)}, interval.New(12, 18), 1)
	it2, err := NewStreamAggIter(NewTableIter(in), nil, aggs, dom)
	if err != nil {
		t.Fatal(err)
	}
	defer it2.Close()
	want2, err := TemporalAggregate(in, nil, aggs, true, dom)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTable(t, Materialize(it2), want2)
}

// Streaming sweeps must not alias emitted duplicate rows (the
// regression class fixed for the blocking emitters in PR 1).
func TestStreamCoalesceDuplicatesDoNotAlias(t *testing.T) {
	in := sweepTable([3]int64{1, 0, 8}, [3]int64{1, 0, 8})
	got := Materialize(NewStreamCoalesceIter(NewTableIter(in)))
	if len(got.Rows) != 2 {
		t.Fatalf("want two duplicate rows, got %s", got)
	}
	got.Rows[0][0] = tuple.Int(99)
	if got.Rows[1][0].AsInt() == 99 {
		t.Fatal("duplicate output rows share a backing slice")
	}
}

// Size-based build-side selection must not change join results or
// column order when it flips the build side.
func TestBuildLeftProbeRightJoin(t *testing.T) {
	l := NewTable(tuple.NewSchema("a", "x"))
	l.Append(tuple.Tuple{tuple.Int(1), tuple.Int(10)}, interval.New(0, 5), 1)
	r := NewTable(tuple.NewSchema("b", "y"))
	r.Append(tuple.Tuple{tuple.Int(1), tuple.Int(20)}, interval.New(2, 8), 1)
	r.Append(tuple.Tuple{tuple.Int(1), tuple.Int(30)}, interval.New(6, 9), 1)
	pred := algebra.Eq(algebra.Col("a"), algebra.Col("b"))

	std, err := NewJoinIter(NewTableIter(l), NewTableIter(r), pred)
	if err != nil {
		t.Fatal(err)
	}
	want := Materialize(std)
	std.Close()

	prep, err := PrepareJoin(l.DataSchema(), r.DataSchema(), pred)
	if err != nil {
		t.Fatal(err)
	}
	swp := prep.Build(NewTableIter(l), true, 0).Probe(NewTableIter(r))
	defer swp.Close()
	got := Materialize(swp)
	assertSameTable(t, got, want)
	if got.Len() != 1 {
		t.Fatalf("want exactly the overlapping pair, got %s", got)
	}
	if got.Rows[0][1].AsInt() != 10 || got.Rows[0][3].AsInt() != 20 {
		t.Fatalf("swapped build side changed column order: %v", got.Rows[0])
	}
}
