package engine

// Tests for the timeslice operator τ_T: the materializing clip
// (ClipWindow), the streaming iterator (NewWindowIter, both drive
// protocols), the zone-map scan prune (PruneWindowScan) and the shared
// prefix view it selects. The three forms must agree row-for-row — the
// prune is a pure access-path optimization.

import (
	"fmt"
	"testing"

	"snapk/internal/interval"
	"snapk/internal/tuple"
)

// windowTable loads one row per (begin, end) pair, tagging each with its
// index so clipped rows stay identifiable.
func windowTable(ivs ...interval.Interval) *Table {
	t := NewTable(tuple.NewSchema("id"))
	for i, iv := range ivs {
		t.Append(tuple.Tuple{tuple.Int(int64(i))}, iv, 1)
	}
	return t
}

func TestClipWindowSemantics(t *testing.T) {
	in := windowTable(
		interval.New(0, 5),   // left of the window: dropped
		interval.New(3, 12),  // straddles the left edge: clipped to [10, 12)
		interval.New(11, 14), // inside: unchanged
		interval.New(5, 30),  // covers the window: clipped to [10, 20)
		interval.New(18, 25), // straddles the right edge: clipped to [18, 20)
		interval.New(20, 26), // adjacent on the right: dropped (end-exclusive)
	)
	got := ClipWindow(in, interval.New(10, 20))
	want := []struct {
		id   int64
		b, e int64
	}{{1, 10, 12}, {2, 11, 14}, {3, 10, 20}, {4, 18, 20}}
	if got.Len() != len(want) {
		t.Fatalf("clip kept %d rows, want %d:\n%s", got.Len(), len(want), got)
	}
	for i, w := range want {
		row := got.Rows[i]
		iv := rowInterval(row)
		if row[0].AsInt() != w.id || iv.Begin != w.b || iv.End != w.e {
			t.Fatalf("row %d = id=%d %s, want id=%d [%d, %d)", i, row[0].AsInt(), iv, w.id, w.b, w.e)
		}
	}
	// Stored rows are immutable engine-wide: clipping must not have
	// written through the input's backing arrays.
	if iv := rowInterval(in.Rows[3]); iv != interval.New(5, 30) {
		t.Fatalf("ClipWindow mutated its input row: %s", iv)
	}
	// A row whose interval is unchanged is passed through, not copied.
	if &got.Rows[1][0] != &in.Rows[2][0] {
		t.Fatal("unclipped row must be shared, not reallocated")
	}
}

// An invalid (zero) window clips everything: "no window" is expressed by
// not applying the operator, never by a zero T.
func TestClipWindowZeroWindowClipsAll(t *testing.T) {
	in := windowTable(interval.New(0, 5), interval.New(3, 9))
	if got := ClipWindow(in, interval.Interval{}); got.Len() != 0 {
		t.Fatalf("zero window kept %d rows, want 0", got.Len())
	}
}

// Clipping maps begin to max(begin, T.Begin) — monotone — so a
// begin-sorted input stays begin-sorted and the metadata must say so
// without a rescan.
func TestClipWindowPreservesSortedMetadata(t *testing.T) {
	sorted := windowTable(interval.New(1, 6), interval.New(3, 9), interval.New(7, 15))
	if sorted.meta.sorted != propTrue {
		t.Fatal("fixture must load known-sorted")
	}
	out := ClipWindow(sorted, interval.New(4, 12))
	if out.meta.sorted != propTrue || !out.BeginSorted() {
		t.Fatalf("clip of a known-sorted table must stay known-sorted, got state %d", out.meta.sorted)
	}
	// Appending in begin order must extend the recorded run: lastBegin
	// has to reflect the clipped begins, not the input's.
	out.Append(tuple.Tuple{tuple.Int(99)}, interval.New(7, 9), 1)
	if out.meta.sorted != propTrue {
		t.Fatal("in-order append after clip must stay known-sorted")
	}
	unsorted := windowTable(interval.New(7, 15), interval.New(1, 6))
	if got := ClipWindow(unsorted, interval.New(0, 20)); got.meta.sorted != propUnknown {
		t.Fatalf("clip of an unsorted table must not claim order, got state %d", got.meta.sorted)
	}
}

// The streaming iterator must agree with ClipWindow at every batch
// capacity.
func TestWindowIterMatchesClipWindow(t *testing.T) {
	in := windowTable(
		interval.New(0, 5), interval.New(3, 12), interval.New(11, 14),
		interval.New(5, 30), interval.New(18, 25), interval.New(20, 26),
	)
	T := interval.New(10, 20)
	want := ClipWindow(in, T)

	for _, size := range []int{1, 2, DefaultBatchSize} {
		it := NewWindowIter(NewTableIter(in), T)
		batch := NewRowBatch(size) // below the survivor count: multiple batches
		var rows []tuple.Tuple
		for it.NextBatch(batch) {
			rows = append(rows, batch.Rows...)
		}
		it.Close()
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		assertWindowRows(t, fmt.Sprintf("capacity-%d drive", size), rows, want)
	}
}

func assertWindowRows(t *testing.T, drive string, rows []tuple.Tuple, want *Table) {
	t.Helper()
	if len(rows) != want.Len() {
		t.Fatalf("%s: %d rows, want %d", drive, len(rows), want.Len())
	}
	for i, row := range rows {
		if row.Key() != want.Rows[i].Key() {
			t.Fatalf("%s: row %d = %v, want %v", drive, i, row, want.Rows[i])
		}
	}
}

func TestPruneWindowScan(t *testing.T) {
	sorted := windowTable(
		interval.New(0, 4), interval.New(2, 9), interval.New(5, 7),
		interval.New(12, 20), interval.New(30, 35),
	)
	if !sorted.BeginSorted() {
		t.Fatal("fixture must be begin-sorted")
	}

	// Sorted prefix: rows with begin ≥ T.End can never overlap. For
	// T=[3, 6) the first such row is index 3 (begin 12).
	hi, skip := PruneWindowScan(sorted, interval.New(3, 6))
	if skip || hi != 3 {
		t.Fatalf("prune(sorted, [3,6)) = (%d, %v), want (3, false)", hi, skip)
	}
	// The prefix bound loses no rows: clipping the prefix equals clipping
	// the whole table.
	T := interval.New(3, 6)
	if a, b := ClipWindow(sorted.Prefix(hi), T), ClipWindow(sorted, T); a.Len() != b.Len() {
		t.Fatalf("prefix clip kept %d rows, full clip %d", a.Len(), b.Len())
	}

	// Window before every begin: nothing can overlap, whole scan skipped.
	if _, skip := PruneWindowScan(sorted, interval.New(-10, 0)); !skip {
		t.Fatal("window left of every interval must skip the scan")
	}
	// Envelope-disjoint window on the right: skipped via the zone map.
	if _, skip := PruneWindowScan(sorted, interval.New(40, 50)); !skip {
		t.Fatal("window right of the endpoint envelope must skip the scan")
	}
	// Invalid window and empty table always skip.
	if _, skip := PruneWindowScan(sorted, interval.Interval{}); !skip {
		t.Fatal("invalid window must skip")
	}
	if _, skip := PruneWindowScan(NewTable(tuple.NewSchema("id")), interval.New(0, 1)); !skip {
		t.Fatal("empty table must skip")
	}

	// Unsorted table inside the envelope: no prefix bound, scan it all.
	unsorted := windowTable(interval.New(12, 20), interval.New(0, 4))
	hi, skip = PruneWindowScan(unsorted, interval.New(1, 3))
	if skip || hi != unsorted.Len() {
		t.Fatalf("prune(unsorted) = (%d, %v), want (%d, false)", hi, skip, unsorted.Len())
	}
	// ...but the envelope check still applies without order.
	if _, skip := PruneWindowScan(unsorted, interval.New(25, 30)); !skip {
		t.Fatal("envelope-disjoint window must skip even unsorted tables")
	}
}

func TestTablePrefix(t *testing.T) {
	tb := windowTable(interval.New(1, 5), interval.New(2, 8), interval.New(6, 9))
	p := tb.Prefix(2)
	if p.Len() != 2 {
		t.Fatalf("Prefix(2) has %d rows", p.Len())
	}
	// Shared backing, not a copy.
	if &p.Rows[0][0] != &tb.Rows[0][0] {
		t.Fatal("Prefix must share the backing rows")
	}
	// The capped slice must not allow appends to clobber row 2.
	p.Append(tuple.Tuple{tuple.Int(9)}, interval.New(7, 10), 1)
	if got := tb.Rows[2][0].AsInt(); got != 2 {
		t.Fatalf("append to prefix overwrote the parent's row: id=%d", got)
	}
	if p.meta.sorted != propTrue || !p.BeginSorted() {
		t.Fatal("prefix of a begin-sorted table must stay known-sorted")
	}
	if got := tb.Prefix(99); got != tb {
		t.Fatal("an over-long prefix must return the table itself")
	}
}
