package engine

import (
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"snapk/internal/algebra"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/tuple"
)

// assertRowsIndependent checks the row invariant of the slab builders:
// every row is cut with len == cap, so an append to one row reallocates
// instead of writing into its neighbour, and writing a cell of one row
// never shows in the next.
func assertRowsIndependent(t *testing.T, rows []tuple.Tuple) {
	t.Helper()
	for i, row := range rows {
		if len(row) != cap(row) {
			t.Fatalf("row %d has len %d, cap %d: an append would write into its neighbour", i, len(row), cap(row))
		}
	}
	for i := 0; i+1 < len(rows); i++ {
		next := rows[i+1].Clone()
		grown := append(rows[i], tuple.Int(-1))
		grown[0] = str("MUTATED")
		rows[i][len(rows[i])-1] = tuple.Int(-2)
		if rows[i+1].Key() != next.Key() {
			t.Fatalf("writing through row %d changed row %d: %v, want %v", i, i+1, rows[i+1], next)
		}
	}
}

// drainRows drains it through batches of the given capacity into a
// private slice and closes it.
func drainRows(t *testing.T, it RowIter, capacity int) []tuple.Tuple {
	t.Helper()
	defer it.Close()
	var rows []tuple.Tuple
	b := NewRowBatch(capacity)
	for it.NextBatch(b) {
		rows = append(rows, b.Rows...)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// backingOverlaps reports whether a and b share any element of their
// backing arrays, up to capacity.
func backingOverlaps(a, b tuple.Tuple) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	size := unsafe.Sizeof(tuple.Value{})
	as := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
	bs := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return as < bs+uintptr(cap(b))*size && bs < as+uintptr(cap(a))*size
}

// churnTable builds a begin-sorted single-column table whose keys close
// and reappear: rows come in bursts of overlapping intervals, and a gap
// longer than any interval follows every burst, so every group is
// evicted there and the next burst starts its keys afresh, in recycled
// group state.
func churnTable(rng *rand.Rand, keys, rows, burst int) *Table {
	tbl := NewTable(tuple.NewSchema("k"))
	var begin int64
	for i := 0; i < rows; i++ {
		// A key recurs about every keys time units within a burst, and
		// its intervals are up to 4·keys long: it mostly stays open
		// until the gap.
		span := int64(4 * keys)
		begin += rng.Int63n(3)
		if i%burst == burst-1 {
			begin += span
		}
		k := int64(rng.Intn(keys))
		tbl.Append(tuple.Tuple{tuple.Int(k)}, interval.New(begin, begin+1+rng.Int63n(span)), 1+rng.Int63n(2))
	}
	tbl.SortByEndpoints()
	return tbl
}

// TestSortRowsByEndpointsIsStable pins the key sort to sort.SliceStable
// over EndpointLess on rows with many equal endpoints: the payload
// column tells equal-endpoint rows apart, so any reordering among them
// shows.
func TestSortRowsByEndpointsIsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 17, 1000} {
		rows := make([]tuple.Tuple, n)
		for i := range rows {
			b := rng.Int63n(5)
			rows[i] = tuple.Tuple{tuple.Int(int64(i)), tuple.Int(b), tuple.Int(b + 1 + rng.Int63n(3))}
		}
		want := append([]tuple.Tuple(nil), rows...)
		sort.SliceStable(want, func(i, j int) bool { return EndpointLess(want[i], want[j]) })
		SortRowsByEndpoints(rows)
		for i := range rows {
			if rows[i].Key() != want[i].Key() {
				t.Fatalf("n=%d: row %d = %v, want %v (the stable order)", n, i, rows[i], want[i])
			}
		}
	}
}

// TestProjectRowsAreIndependent: projected rows are carved from shared
// slabs, yet each one is its own row — across batch boundaries and
// across slab boundaries (a wide projection puts few rows in a slab).
func TestProjectRowsAreIndependent(t *testing.T) {
	in := NewTable(tuple.NewSchema("a", "b"))
	for i := int64(0); i < 1000; i++ {
		in.Append(tuple.Tuple{tuple.Int(i), str("x")}, interval.New(i, i+3), 1)
	}
	for _, width := range []int{1, 600} {
		exprs := make([]algebra.NamedExpr, width)
		for i := range exprs {
			exprs[i] = algebra.NamedExpr{Name: "c" + string(rune('a'+i%26)) + string(rune('a'+i/26)), E: algebra.Col("a")}
		}
		it, err := NewProjectIter(NewTableIter(in), in.Schema, nil, exprs)
		if err != nil {
			t.Fatal(err)
		}
		rows := drainRows(t, it, 100)
		if len(rows) != in.Len() {
			t.Fatalf("width %d: %d rows, want %d", width, len(rows), in.Len())
		}
		for i, row := range rows {
			if row[0].AsInt() != int64(i) || row[width-1].AsInt() != int64(i) || rowInterval(row) != interval.New(int64(i), int64(i)+3) {
				t.Fatalf("width %d: row %d = %v", width, i, row[:1])
			}
		}
		assertRowsIndependent(t, rows)
	}
}

// TestStreamSweepRowsAreIndependent: the streaming coalesce's output
// rows come from its growing arena, including the duplicate rows of one
// segment, which are adjacent in the same slab.
func TestStreamSweepRowsAreIndependent(t *testing.T) {
	in := churnTable(rand.New(rand.NewSource(3)), 5, 3000, 20)
	rows := drainRows(t, NewStreamCoalesceIter(NewTableIter(in)), 64)
	assertSameRows(t, &Table{Schema: in.Schema, Rows: rows}, Coalesce(in))
	assertRowsIndependent(t, rows)
}

// TestDiffSweepChunkRowsAreIndependent: the blocking difference carves
// its known total in capped slabs; rows at and around a slab boundary
// stay independent.
func TestDiffSweepChunkRowsAreIndependent(t *testing.T) {
	l := NewTable(tuple.NewSchema("name"))
	r := NewTable(tuple.NewSchema("name"))
	// 2,000 rows of width 3: four slabs of at most 682 rows.
	for i := int64(0); i < 1000; i++ {
		l.Append(tuple.Tuple{tuple.Int(i)}, interval.New(0, 10), 3)
		r.Append(tuple.Tuple{tuple.Int(i)}, interval.New(0, 10), 1)
	}
	out, err := TemporalDiff(l, r)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2000 {
		t.Fatalf("diff emitted %d rows, want 2000", out.Len())
	}
	assertRowsIndependent(t, out.Rows)
}

// TestStreamGroupDataIsOwned: a streaming coalesce group keeps its own
// copy of the representative, never a sub-slice of an input row, so a
// long-lived group cannot pin an input slab.
func TestStreamGroupDataIsOwned(t *testing.T) {
	in := churnTable(rand.New(rand.NewSource(5)), 8, 400, 20)
	it := NewStreamCoalesceIter(NewTableIter(in))
	defer it.Close()
	sd := it.(*countSweep)
	b := NewRowBatch(1)
	checked := 0
	for it.NextBatch(b) {
		for _, g := range liveGroups(sd) {
			for _, row := range in.Rows {
				if backingOverlaps(g.key, row) {
					t.Fatalf("group %v shares its data with input row %v", g.key, row)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no live group was ever checked")
	}
}

// TestStreamAggStateIsOwned: the streaming aggregation keeps copies of
// what it holds while rows are open — each group's key, and in the
// argument slab the argument values of every row whose end is queued —
// never a sub-slice of an input row, so no sweep state pins an input
// slab.
func TestStreamAggStateIsOwned(t *testing.T) {
	keys := churnTable(rand.New(rand.NewSource(7)), 8, 200, 20)
	in := NewTable(tuple.NewSchema("k", "x"))
	for i, row := range keys.Rows {
		in.Append(tuple.Tuple{row[0], tuple.Int(int64(i % 7))}, rowInterval(row), 1)
	}
	aggs := []algebra.AggSpec{{Fn: krel.Sum, Arg: "x", As: "s"}, {Fn: krel.Min, Arg: "x", As: "lo"}}
	raw, err := NewStreamAggIter(NewTableIter(in), []string{"k"}, aggs, interval.NewDomain(0, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	it := raw.(*aggStream)
	b := NewRowBatch(1)
	checked := 0
	for it.NextBatch(b) {
		for _, g := range liveGroups(it) {
			for _, row := range in.Rows {
				if backingOverlaps(g.key, row) {
					t.Fatalf("group %v shares its key with input row %v", g.key, row)
				}
			}
		}
		it.events.each(func(e endEvent) {
			args := it.slot(e.slot)
			for _, row := range in.Rows {
				if backingOverlaps(args, row) {
					t.Fatalf("queued arguments %v share input row %v", args, row)
				}
			}
			checked++
		})
	}
	if checked == 0 {
		t.Fatal("no queued argument was ever checked")
	}
}

// TestStreamDiffChurnMatchesBlocking: keys are evicted and reappear, so
// groups are recycled with the previous key's buffers; the result must
// stay the blocking sweep's, with and without a right input.
func TestStreamDiffChurnMatchesBlocking(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := churnTable(rng, 1+rng.Intn(6), 300, 20)
		r := churnTable(rng, 1+rng.Intn(6), 200, 20)

		co := NewStreamCoalesceIter(NewTableIter(l))
		sd := co.(*countSweep)
		rows := drainRows(t, co, 8)
		// Every group state ever handed out is live or on the free list.
		if live := len(liveGroups(sd)); live+len(sd.free) != int(sd.slots) {
			t.Fatalf("seed %d: %d live + %d free group states, %d handed out", seed, live, len(sd.free), sd.slots)
		}
		if int(sd.slots) >= sd.nextSeq {
			t.Fatalf("seed %d: %d group states for %d group lifetimes: nothing was recycled", seed, sd.slots, sd.nextSeq)
		}
		assertSameRows(t, &Table{Schema: l.Schema, Rows: rows}, Coalesce(l))

		di, err := NewStreamDiffIter(NewTableIter(l), NewTableIter(r))
		if err != nil {
			t.Fatal(err)
		}
		want, err := TemporalDiff(l, r)
		if err != nil {
			t.Fatal(err)
		}
		assertSameRows(t, &Table{Schema: l.Schema, Rows: drainRows(t, di, 8)}, want)
	}
}

// TestProjectAllocatesPerBatch guards the projection's slab carving:
// projecting N rows allocates about once per batch, not once per row.
func TestProjectAllocatesPerBatch(t *testing.T) {
	const n = 20 * DefaultBatchSize
	in := NewTable(tuple.NewSchema("a", "b"))
	for i := int64(0); i < n; i++ {
		in.Append(tuple.Tuple{tuple.Int(i), tuple.Int(-i)}, interval.New(i, i+1), 1)
	}
	exprs := []algebra.NamedExpr{{Name: "b", E: algebra.Col("b")}, {Name: "a", E: algebra.Col("a")}}
	b := NewRowBatch(DefaultBatchSize)
	allocs := testing.AllocsPerRun(5, func() {
		it, err := NewProjectIter(NewTableIter(in), in.Schema, nil, exprs)
		if err != nil {
			t.Fatal(err)
		}
		for it.NextBatch(b) {
		}
		it.Close()
	})
	if limit := float64(n/DefaultBatchSize + 16); allocs > limit {
		t.Fatalf("projecting %d rows made %.0f allocations, want at most %.0f (one slab per batch plus setup)", n, allocs, limit)
	}
}

// TestStreamCoalesceAllocatesPerSlab guards the streaming sweep's
// memory: over groups that close and reappear, output rows come from
// the arena and group state from the free list, so the sweep allocates
// well under one object per input row. Group keys are hashed, so no
// key is materialized per group lifetime either.
func TestStreamCoalesceAllocatesPerSlab(t *testing.T) {
	in := churnTable(rand.New(rand.NewSource(11)), 4, 5000, 40)
	b := NewRowBatch(DefaultBatchSize)
	allocs := testing.AllocsPerRun(5, func() {
		it := NewStreamCoalesceIter(NewTableIter(in))
		for it.NextBatch(b) {
		}
		it.Close()
	})
	if limit := float64(in.Len()) / 4; allocs > limit {
		t.Fatalf("streaming coalesce of %d rows made %.0f allocations, want at most %.0f", in.Len(), allocs, limit)
	}
}
