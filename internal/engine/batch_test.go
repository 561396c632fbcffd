// Edge tests of the batch protocol itself: ragged final batches, empty
// inputs, size-1 batches, zero-capacity consumer batches, and batch-size
// independence of the sweeps. The operator equivalence grids (rewrite
// package) cover semantics; these pin the mechanics of the NextBatch
// contract at every boundary case.
package engine_test

import (
	"context"
	"sort"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
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
func drainBatches(t *testing.T, bi engine.RowIter, cap_ int) ([]int, []tuple.Tuple) {
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
	lens, rows := drainBatches(t, it, 4)
	if len(rows) != 10 || len(lens) != 3 || lens[0] != 4 || lens[1] != 4 || lens[2] != 2 {
		t.Fatalf("capacity-4 drain of 10 rows: lens=%v rows=%d, want [4 4 2]/10", lens, len(rows))
	}

	it2 := scanIter(t, db)
	defer it2.Close()
	lens2, rows2 := drainBatches(t, it2, 1)
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
		lens, rows := drainBatches(t, it, 8)
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
	total := 0
	for it.NextBatch(&b) {
		if b.Len() > engine.DefaultBatchSize {
			t.Fatalf("zero-capacity batch overfilled: %d rows", b.Len())
		}
		total += b.Len()
	}
	if total != engine.DefaultBatchSize+7 {
		t.Fatalf("drained %d rows, want %d", total, engine.DefaultBatchSize+7)
	}
}

// Batch drive of the streaming sweeps and of the overlap-join sweep
// must not depend on the batch size: every capacity delivers the same
// multiset as capacity 1 (the sweeps' end-of-input flush walks a map,
// so tail order is unspecified), at one worker and at two. Capacity 7
// is a non-divisor of the internal queue lengths; 256 is the default.
// The morsel size follows the capacity, so exchange producers pull
// their fragments at it too (and no transport batch overfills it).
func TestSweepBatchDriveMatchesPerRow(t *testing.T) {
	db := batchDB(137)
	plans := []engine.Plan{
		engine.CoalesceP{In: engine.SortP{In: engine.ScanP{Name: "t"}}, Streaming: true},
		engine.DiffP{
			L:         engine.SortP{In: engine.ScanP{Name: "t"}},
			R:         engine.SortP{In: engine.FilterP{Pred: algebra.Lt(algebra.Col("v"), algebra.IntC(40)), In: engine.ScanP{Name: "t"}}},
			Streaming: true,
		},
		// No equi-key: the join runs as the interval-overlap sweep.
		engine.JoinP{L: engine.ScanP{Name: "t"}, R: engine.ScanP{Name: "t"}, Pred: algebra.Lt(algebra.Col("v"), algebra.Col("r.v"))},
	}
	for _, p := range plans {
		for _, w := range []int{1, 2} {
			exec := func(size int) engine.RowIter {
				it, err := parallel.Exec(context.Background(), db, p, parallel.Options{Workers: w, MorselSize: size})
				if err != nil {
					t.Fatalf("parallel.Exec(%s): %v", p, err)
				}
				return it
			}
			ref := exec(1)
			_, want := drainBatches(t, ref, 1)
			ref.Close()
			if len(want) == 0 {
				t.Fatalf("plan %T W=%d: empty reference", p, w)
			}
			wantKeys := sortedRowKeys(want)
			for _, size := range []int{7, 256} {
				it := exec(size)
				_, rows := drainBatches(t, it, size)
				it.Close()
				gotKeys := sortedRowKeys(rows)
				if len(gotKeys) != len(wantKeys) {
					t.Fatalf("plan %T W=%d size %d: delivered %d rows, capacity 1 %d", p, w, size, len(gotKeys), len(wantKeys))
				}
				for i := range gotKeys {
					if gotKeys[i] != wantKeys[i] {
						t.Fatalf("plan %T W=%d size %d: multiset differs at %d: %s vs %s", p, w, size, i, gotKeys[i], wantKeys[i])
					}
				}
			}
		}
	}
}
