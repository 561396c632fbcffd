// Cursor-vs-batch drive differential over the qgen grid: the Rows
// cursor is the one per-row consumer of a query root, so its Next must
// deliver exactly the row multiset a NextBatch drain of the same plan
// delivers, at every batch capacity, for every sweep × parallelism ×
// sortedness configuration.
package snapk

import (
	"context"
	"sort"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/qgen"
	"snapk/internal/rewrite"
)

// streamKeys streams q under opt and returns the result rows as a
// sorted multiset of row strings. With batchSize > 0 the root is
// drained through NextBatch with that capacity; otherwise through the
// Rows cursor's Next.
func streamKeys(t *testing.T, db *engine.DB, q algebra.Query, opt rewrite.Options, batchSize int) []string {
	t.Helper()
	it, err := rewrite.Stream(context.Background(), db, q, opt)
	if err != nil {
		t.Fatalf("stream: %v (%s)", err, q)
	}
	var keys []string
	if batchSize > 0 {
		defer it.Close()
		b := engine.NewRowBatch(batchSize)
		for it.NextBatch(b) {
			// No capacity assertion: exchange consumers may adopt a whole
			// transport batch, legally exceeding the requested capacity.
			for _, row := range b.Rows {
				keys = append(keys, row.String())
			}
		}
		err = it.Err()
	} else {
		rows := newRows(context.Background(), it)
		defer rows.Close()
		for rows.Next() {
			keys = append(keys, rows.cur.String())
		}
		err = rows.Err()
	}
	if err != nil {
		t.Fatalf("stream error: %v (opt %+v, query %s)", err, opt, q)
	}
	sort.Strings(keys)
	return keys
}

// TestBatchRowDriveDifferential runs every generated (database, query)
// pair over the physical grid, once through the Rows cursor and once
// per batch capacity {1, 7, 256}, and requires identical result
// multisets.
func TestBatchRowDriveDifferential(t *testing.T) {
	g := qgen.New(911)
	var opts []rewrite.Options
	for _, par := range []int{0, 2, 4} {
		for _, sw := range []rewrite.SweepMode{rewrite.SweepAuto, rewrite.SweepStreaming, rewrite.SweepBlocking} {
			opts = append(opts, rewrite.Options{Mode: rewrite.ModeOptimized, Sweep: sw, Parallelism: par})
		}
	}
	for i := 0; i < 15; i++ {
		spec := g.GenDB()
		q := g.GenQuery()
		for _, sorted := range []bool{false, true} {
			s := spec
			if sorted {
				s = spec.SortedByBegin()
			}
			edb := s.ToEngineDB()
			for _, opt := range opts {
				want := streamKeys(t, edb, q, opt, 0)
				for _, bs := range []int{1, 7, 256} {
					got := streamKeys(t, edb, q, opt, bs)
					if len(got) != len(want) {
						t.Fatalf("iteration %d, sorted %v, opt %+v, batch %d: %d rows, cursor %d\nquery: %s",
							i, sorted, opt, bs, len(got), len(want), q)
					}
					for j := range got {
						if got[j] != want[j] {
							t.Fatalf("iteration %d, sorted %v, opt %+v, batch %d: batch drive diverges from the cursor at row %d\nquery: %s",
								i, sorted, opt, bs, j, q)
						}
					}
				}
			}
		}
	}
}
