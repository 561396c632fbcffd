// Batch-vs-row drive differential over the qgen grid: the query root
// speaks both protocols, so driving the same plan through NextBatch (at
// several capacities, including the degenerate size 1) must produce
// exactly the row multiset its Next delivers, for every sweep ×
// parallelism × sortedness configuration.
package rewrite_test

import (
	"context"
	"sort"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/qgen"
	"snapk/internal/rewrite"
)

// drainKeys streams q under opt and returns the result rows as a sorted
// multiset of row strings. With batchSize > 0 the root is driven through
// NextBatch with that capacity; otherwise through Next.
func drainKeys(t *testing.T, db *engine.DB, q algebra.Query, opt rewrite.Options, batchSize int) []string {
	t.Helper()
	it, err := rewrite.Stream(context.Background(), db, q, opt)
	if err != nil {
		t.Fatalf("stream: %v (%s)", err, q)
	}
	defer it.Close()
	var keys []string
	if batchSize > 0 {
		bi, ok := it.(engine.BatchIter)
		if !ok {
			t.Fatalf("root is not batch-capable (%T, opt %+v, query %s)", it, opt, q)
		}
		b := engine.NewRowBatch(batchSize)
		for bi.NextBatch(b) {
			// No capacity assertion: exchange consumers may adopt a whole
			// transport batch, legally exceeding the requested capacity.
			for _, row := range b.Rows {
				keys = append(keys, row.String())
			}
		}
	} else {
		for {
			row, ok := it.Next()
			if !ok {
				break
			}
			keys = append(keys, row.String())
		}
	}
	if err := engine.IterErr(it); err != nil {
		t.Fatalf("stream error: %v (opt %+v, query %s)", err, opt, q)
	}
	sort.Strings(keys)
	return keys
}

func sameKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBatchRowDriveDifferential runs every generated (database, query)
// pair over the physical grid, once through the root's Next and once per
// batch capacity {1, 7, 256}, and requires identical result multisets.
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
				want := drainKeys(t, edb, q, opt, 0)
				for _, bs := range []int{1, 7, 256} {
					got := drainKeys(t, edb, q, opt, bs)
					if !sameKeys(want, got) {
						t.Fatalf("iteration %d, sorted %v, opt %+v, batch %d: batch drive diverges from row drive (%d vs %d rows)\nquery: %s",
							i, sorted, opt, bs, len(got), len(want), q)
					}
				}
			}
		}
	}
}
