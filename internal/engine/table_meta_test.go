package engine

// Tests for the cached table metadata invariants documented in the
// package comment: who sets sortedness/coalescedness, who invalidates,
// and — the acceptance property — that the planner's sortedness probe
// is answered from metadata (a cache HIT) rather than an O(n) rescan on
// the load and sort paths.

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"snapk/internal/algebra"
	"snapk/internal/interval"
	"snapk/internal/tuple"
)

func metaTable(begins ...int64) *Table {
	t := NewTable(tuple.NewSchema("x"))
	for i, b := range begins {
		t.Append(tuple.Tuple{tuple.Int(int64(i % 3))}, interval.New(b, b+5), 1)
	}
	return t
}

func TestAppendMaintainsSortedMetadata(t *testing.T) {
	tb := metaTable(1, 3, 3, 7)
	if tb.meta.sorted != propTrue {
		t.Fatalf("ascending loads must stay known-sorted, got state %d", tb.meta.sorted)
	}
	if !tb.BeginSorted() {
		t.Fatal("BeginSorted() = false on a sorted load")
	}
	tb.Append(tuple.Tuple{tuple.Int(9)}, interval.New(2, 6), 1) // out of order
	if tb.meta.sorted != propFalse {
		t.Fatalf("out-of-order append must make the table known-unsorted, got state %d", tb.meta.sorted)
	}
	if tb.BeginSorted() {
		t.Fatal("BeginSorted() = true after an out-of-order append")
	}
}

// The metadata HIT path: after a sorted load, BeginSorted answers from
// the cache. We prove no rescan happens by corrupting Rows behind the
// metadata's back — the documented invariant is that direct writers
// must call InvalidateMeta/SetRows, so the stale answer demonstrates
// the cache was trusted.
func TestBeginSortedAnswersFromMetadata(t *testing.T) {
	tb := metaTable(1, 2, 3, 4)
	tb.Rows[0], tb.Rows[3] = tb.Rows[3], tb.Rows[0] // direct write, no invalidation
	if !tb.BeginSorted() {
		t.Fatal("metadata miss: BeginSorted rescanned the rows instead of using the cache")
	}
	tb.InvalidateMeta()
	if tb.BeginSorted() {
		t.Fatal("after InvalidateMeta, BeginSorted must rescan and see the corruption")
	}
}

// The order rule's scan case must take the same hit path for stored
// tables.
func TestScanBeginSortedUsesMetadata(t *testing.T) {
	db := NewDB(interval.NewDomain(0, 100))
	tb := db.CreateTable("t", tuple.NewSchema("x"))
	for i := int64(0); i < 10; i++ {
		tb.Append(tuple.Tuple{tuple.Int(i)}, interval.New(i, i+2), 1)
	}
	tb.Rows[0], tb.Rows[9] = tb.Rows[9], tb.Rows[0] // direct write, no invalidation
	if ordered, _ := db.BeginOrder(ScanP{Name: "t"}); !ordered {
		t.Fatal("BeginOrder rescanned instead of answering from table metadata")
	}
	tb.InvalidateMeta()
	if ordered, _ := db.BeginOrder(ScanP{Name: "t"}); ordered {
		t.Fatal("BeginOrder must see the corruption once metadata is invalidated")
	}
	if ordered, _ := db.BeginOrder(ScanP{Name: "missing"}); ordered {
		t.Fatal("an unknown table must not be called ordered")
	}
}

func TestSortByEndpointsSetsMetadata(t *testing.T) {
	tb := metaTable(5, 1, 3)
	if tb.meta.sorted != propFalse {
		t.Fatalf("descending load should be known-unsorted, got %d", tb.meta.sorted)
	}
	tb.SortByEndpoints()
	if tb.meta.sorted != propTrue || !tb.BeginSorted() {
		t.Fatal("SortByEndpoints must establish known-sorted metadata")
	}
	// Further in-order appends extend the sorted run.
	tb.Append(tuple.Tuple{tuple.Int(8)}, interval.New(9, 12), 1)
	if tb.meta.sorted != propTrue {
		t.Fatal("in-order append after SortByEndpoints must stay known-sorted")
	}
}

func TestSortDropsSortednessToUnknown(t *testing.T) {
	tb := metaTable(1, 2, 3)
	tb.Sort()
	if tb.meta.sorted != propUnknown {
		t.Fatalf("Sort (data-major) must drop sortedness to unknown, got %d", tb.meta.sorted)
	}
	// Unknown falls back to the honest rescan.
	if got, want := tb.BeginSorted(), RowsBeginSorted(tb.Rows); got != want {
		t.Fatalf("unknown state must rescan: BeginSorted %v, rows %v", got, want)
	}
}

func TestSetRowsInvalidates(t *testing.T) {
	tb := metaTable(1, 2, 3)
	rows := []tuple.Tuple{tb.Rows[2], tb.Rows[0]}
	tb.SetRows(rows)
	if tb.meta.sorted != propUnknown {
		t.Fatal("SetRows must drop metadata")
	}
	if tb.BeginSorted() {
		t.Fatal("SetRows with unsorted rows must rescan to false")
	}
}

// SetRowsMerging merges rows that begin later into begin-sorted rows:
// the table holds both, in begin order, and knows it without a rescan,
// and it drops the cached key codes like every writer.
func TestSetRowsMergingKeepsBeginOrder(t *testing.T) {
	tb := metaTable(1, 2, 2, 6, 9)
	tb.KeyCodes([]int{0})
	later := metaTable(9, 0, 4, 2, 12).Rows
	tb.SetRowsMerging(tb.Rows, later)
	var got []int64
	for _, row := range tb.Rows {
		got = append(got, rowInterval(row).Begin)
	}
	if want := []int64{0, 1, 2, 2, 2, 4, 6, 9, 9, 12}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("merged begins %v, want %v", got, want)
	}
	if tb.meta.sorted != propTrue || tb.meta.lastBegin != 12 {
		t.Fatalf("SetRowsMerging must record begin order, got state %d, last begin %d", tb.meta.sorted, tb.meta.lastBegin)
	}
	if tb.codes.Load() != nil {
		t.Fatal("SetRowsMerging kept the cached key codes")
	}
}

func TestCloneCopiesMetadata(t *testing.T) {
	tb := metaTable(1, 2, 3)
	c := tb.Clone()
	if c.meta.sorted != propTrue {
		t.Fatal("Clone must carry the metadata of the shared rows")
	}
}

// Operators that build result tables with direct Rows writes must not
// inherit NewTable's known-sorted/coalesced empty state (regression:
// Project once did, making unsorted projections claim begin order).
func TestOperatorOutputsStartWithUnknownMetadata(t *testing.T) {
	in := metaTable(9, 4, 1) // descending begins: known-unsorted input
	out, err := Project(in, []algebra.NamedExpr{{Name: "x", E: algebra.Col("x")}})
	if err != nil {
		t.Fatal(err)
	}
	if out.meta.sorted != propUnknown || out.meta.coalesced != propUnknown {
		t.Fatalf("Project output metadata must be unknown, got sorted=%d coalesced=%d",
			out.meta.sorted, out.meta.coalesced)
	}
	if out.BeginSorted() {
		t.Fatal("Project of a descending table must not report begin-sorted")
	}
}

func TestCoalescedMetadata(t *testing.T) {
	tb := metaTable(1, 1, 2, 8)
	if tb.KnownCoalesced() {
		t.Fatal("a raw load must not claim coalescedness")
	}
	out := Coalesce(tb)
	if !out.KnownCoalesced() {
		t.Fatal("Coalesce output must be marked coalesced")
	}
	// A permutation preserves the multiset property...
	out.Sort()
	if !out.KnownCoalesced() {
		t.Fatal("Sort must keep coalescedness (multiset property)")
	}
	// ...but an append can break it.
	out.Append(tuple.Tuple{tuple.Int(0)}, interval.New(0, 50), 1)
	if out.KnownCoalesced() {
		t.Fatal("Append must drop coalescedness to unknown")
	}
}

// TestApproxRowBytesMatchesAllocator pins the memory governor's per-row
// charge to what a stored row really costs: the bytes Table.Append
// allocates per row, plus the row's slice header in the (pre-sized,
// so uncounted) Rows slice.
func TestApproxRowBytesMatchesAllocator(t *testing.T) {
	const rows = 10_000
	for arity := 3; arity <= 8; arity++ {
		cols := make([]string, arity-2)
		data := make(tuple.Tuple, arity-2)
		for i := range cols {
			cols[i] = fmt.Sprintf("c%d", i)
			data[i] = tuple.Int(int64(i))
		}
		tb := NewTable(tuple.NewSchema(cols...))
		tb.Rows = make([]tuple.Tuple, 0, rows)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range rows {
			tb.Append(data, interval.New(int64(i), int64(i)+1), 1)
		}
		runtime.ReadMemStats(&after)
		real := float64(after.TotalAlloc-before.TotalAlloc)/rows + float64(unsafe.Sizeof(tuple.Tuple{}))
		est := float64(ApproxRowBytes(arity))
		if real < 0.9*est || real > 1.1*est {
			t.Errorf("arity %d: a stored row costs %.1f bytes, ApproxRowBytes charges %.0f", arity, real, est)
		}
	}
}
