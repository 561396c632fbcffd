// Edge tests of the batch protocol itself: ragged final batches, empty
// inputs, size-1 batches, zero-capacity consumer batches, the two
// adapter directions, and per-row drive of the executor root. The operator
// equivalence grids (rewrite package) cover semantics; these pin the
// mechanics of the NextBatch contract at every boundary case.
package engine_test

import (
	"sort"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/interval"
	"snapk/internal/tuple"
)

// batchDB builds a table with n rows whose begin points ascend.
func batchDB(n int) *engine.DB {
	db := engine.NewDB(interval.NewDomain(0, 1000))
	tb := db.CreateTable("t", tuple.NewSchema("v"))
	for i := 0; i < n; i++ {
		b := int64(i % 100)
		tb.Append(tuple.Tuple{tuple.Int(int64(i))}, interval.New(b, b+3), 1)
	}
	return db
}

// drainBatches drains bi with a capacity-cap batch, asserting the
// NextBatch contract (true iff at least one row) and the cap bound at
// every step, and returns the delivered batch lengths plus all rows.
func drainBatches(t *testing.T, bi engine.BatchIter, cap_ int) ([]int, []tuple.Tuple) {
	t.Helper()
	b := engine.NewRowBatch(cap_)
	var lens []int
	var rows []tuple.Tuple
	for {
		ok := bi.NextBatch(b)
		if ok != (b.Len() > 0) {
			t.Fatalf("NextBatch contract broken: ok=%v with %d rows", ok, b.Len())
		}
		if !ok {
			// Exhaustion must be stable.
			if bi.NextBatch(b) || b.Len() != 0 {
				t.Fatal("NextBatch after exhaustion must keep returning false with an empty batch")
			}
			return lens, rows
		}
		if b.Len() > cap_ {
			t.Fatalf("batch overfilled: %d rows with capacity %d", b.Len(), cap_)
		}
		lens = append(lens, b.Len())
		rows = append(rows, b.Rows...)
	}
}

// sortedKeys renders rows to strings and sorts them, for multiset
// comparison.
func sortedRowKeys(rows []tuple.Tuple) []string {
	keys := make([]string, len(rows))
	for i, row := range rows {
		keys[i] = row.String()
	}
	sort.Strings(keys)
	return keys
}

func scanIter(t *testing.T, db *engine.DB) engine.RowIter {
	t.Helper()
	return execSeq(t, db, engine.ScanP{Name: "t"}, nil)
}

// A 10-row scan drained with capacity 4 must deliver 4+4+2 — the ragged
// final batch — and with capacity 1 one row per call.
func TestNextBatchRaggedAndSizeOne(t *testing.T) {
	db := batchDB(10)
	it := scanIter(t, db)
	defer it.Close()
	lens, rows := drainBatches(t, it.(engine.BatchIter), 4)
	if len(rows) != 10 || len(lens) != 3 || lens[0] != 4 || lens[1] != 4 || lens[2] != 2 {
		t.Fatalf("capacity-4 drain of 10 rows: lens=%v rows=%d, want [4 4 2]/10", lens, len(rows))
	}

	it2 := scanIter(t, db)
	defer it2.Close()
	lens2, rows2 := drainBatches(t, it2.(engine.BatchIter), 1)
	if len(rows2) != 10 || len(lens2) != 10 {
		t.Fatalf("size-1 drain of 10 rows: %d batches, %d rows", len(lens2), len(rows2))
	}
}

// An empty input must return false on the FIRST NextBatch call, with
// the batch left empty.
func TestNextBatchEmptyInput(t *testing.T) {
	db := batchDB(0)
	plans := []engine.Plan{
		engine.ScanP{Name: "t"},
		engine.CoalesceP{In: engine.SortP{In: engine.ScanP{Name: "t"}}, Streaming: true},
	}
	for _, p := range plans {
		it := execSeq(t, db, p, nil)
		lens, rows := drainBatches(t, it.(engine.BatchIter), 8)
		if len(lens) != 0 || len(rows) != 0 {
			t.Fatalf("plan %T: empty input delivered %v batches", p, lens)
		}
		it.Close()
	}
}

// A zero-capacity consumer batch selects DefaultBatchSize, so a fresh
// RowBatch zero value works as a drain target.
func TestNextBatchZeroCapacityBatch(t *testing.T) {
	db := batchDB(engine.DefaultBatchSize + 7)
	it := scanIter(t, db)
	defer it.Close()
	var b engine.RowBatch
	bi := it.(engine.BatchIter)
	total := 0
	for bi.NextBatch(&b) {
		if b.Len() > engine.DefaultBatchSize {
			t.Fatalf("zero-capacity batch overfilled: %d rows", b.Len())
		}
		total += b.Len()
	}
	if total != engine.DefaultBatchSize+7 {
		t.Fatalf("drained %d rows, want %d", total, engine.DefaultBatchSize+7)
	}
}

// Mixed drive: per-row pulls interleaved with NextBatch calls on the
// same iterator must deliver every row exactly once.
func TestNextBatchMixedWithPerRowPulls(t *testing.T) {
	db := batchDB(20)
	it := scanIter(t, db)
	defer it.Close()
	bi := it.(engine.BatchIter)
	seen := make(map[int64]bool)
	record := func(rows ...tuple.Tuple) {
		for _, row := range rows {
			v := row[0].AsInt()
			if seen[v] {
				t.Fatalf("row %d delivered twice", v)
			}
			seen[v] = true
		}
	}
	b := engine.NewRowBatch(3)
	for i := 0; ; i++ {
		if i%2 == 0 {
			row, ok := it.Next()
			if !ok {
				break
			}
			record(row)
		} else {
			if !bi.NextBatch(b) {
				break
			}
			record(b.Rows...)
		}
	}
	if len(seen) != 20 {
		t.Fatalf("mixed drive delivered %d distinct rows, want 20", len(seen))
	}
}

// The two adapters must round-trip: per-row → batch → per-row preserves
// the stream, including through a deliberately batch-only source.
func TestAdapterRoundTrip(t *testing.T) {
	db := batchDB(17)
	it := scanIter(t, db)
	defer it.Close()
	// Embedding the interface exposes RowIter's method set only, hiding
	// the root's batch capability.
	var pr engine.RowIter = struct{ engine.RowIter }{it}
	if _, ok := pr.(engine.BatchIter); ok {
		t.Fatal("the embedded form must hide NextBatch")
	}
	// AsBatchIter over the per-row form, then a row adapter back.
	back := engine.NewRowAdapter(engine.AsBatchIter(pr, 5), 5)
	n := 0
	for {
		if _, ok := back.Next(); !ok {
			break
		}
		n++
	}
	if n != 17 {
		t.Fatalf("adapter round-trip delivered %d rows, want 17", n)
	}
}

// Batch drive of the streaming sweeps must match per-row drive of the
// same root (its Next) as a multiset (the sweeps' end-of-input flush walks a map, so tail
// order is unspecified) at awkward batch sizes — 1 and a non-divisor
// of the internal queue lengths.
func TestSweepBatchDriveMatchesPerRow(t *testing.T) {
	db := batchDB(137)
	plans := []engine.Plan{
		engine.CoalesceP{In: engine.SortP{In: engine.ScanP{Name: "t"}}, Streaming: true},
		engine.DiffP{
			L:         engine.SortP{In: engine.ScanP{Name: "t"}},
			R:         engine.SortP{In: engine.FilterP{Pred: algebra.Lt(algebra.Col("v"), algebra.IntC(40)), In: engine.ScanP{Name: "t"}}},
			Streaming: true,
		},
	}
	for _, p := range plans {
		ref := execSeq(t, db, p, nil)
		var want []tuple.Tuple
		for row, ok := ref.Next(); ok; row, ok = ref.Next() {
			want = append(want, row)
		}
		ref.Close()
		wantKeys := sortedRowKeys(want)
		for _, size := range []int{1, 7} {
			it := execSeq(t, db, p, nil)
			_, rows := drainBatches(t, it.(engine.BatchIter), size)
			it.Close()
			gotKeys := sortedRowKeys(rows)
			if len(gotKeys) != len(wantKeys) {
				t.Fatalf("plan %T size %d: batch drive delivered %d rows, per-row %d", p, size, len(gotKeys), len(wantKeys))
			}
			for i := range gotKeys {
				if gotKeys[i] != wantKeys[i] {
					t.Fatalf("plan %T size %d: multiset differs at %d: %s vs %s", p, size, i, gotKeys[i], wantKeys[i])
				}
			}
		}
	}
}
