// EXPLAIN ANALYZE tests at the rewrite layer: the acceptance criterion
// that analyzed row counts exactly match what the cursor observed,
// across the qgen equivalence grid, and goroutine hygiene when an
// analyzed parallel pipeline is closed early.
package rewrite_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/qgen"
	"snapk/internal/rewrite"
	"snapk/internal/tuple"
)

// checkStatsSane asserts the per-node counter invariants that hold for
// any drained ObsIter: every NextBatch call delivers at most one batch,
// a node that delivered rows delivered batches, and every node is
// labeled.
func checkStatsSane(t *testing.T, st *engine.OpStats, q algebra.Query) {
	t.Helper()
	if st.Label == "" {
		t.Fatalf("unlabeled stats node (query %s)", q)
	}
	if st.Batches() > 0 {
		// Each pull call delivers a whole batch, so nexts tracks batches
		// (plus the exhausting call), not rows. Exchange nodes count
		// batches from the producer side without an ObsIter pull counter,
		// so only nodes that saw pulls are held to it.
		if st.Nexts() > 0 && st.Nexts() < st.Batches() {
			t.Fatalf("node %s: nexts=%d < batches=%d (query %s)", st.Label, st.Nexts(), st.Batches(), q)
		}
	} else if st.Rows() > 0 {
		t.Fatalf("node %s: rows=%d in no batches (query %s)", st.Label, st.Rows(), q)
	}
	for _, c := range st.Children() {
		checkStatsSane(t, c, q)
	}
}

// TestAnalyzeRowCountsMatchCursor pins the EXPLAIN ANALYZE acceptance
// criterion over the qgen grid (parallelism × sortedness, which picks
// the sweep form): the root operator's measured row count must equal the
// number of rows the cursor actually pulled, exactly, for every
// configuration — the stats tree observes the same stream the client
// does, whether it is pulled as rows or, as the Rows cursor pulls it,
// as runs.
func TestAnalyzeRowCountsMatchCursor(t *testing.T) {
	g := qgen.New(733)
	var opts []rewrite.Options
	for _, par := range []int{0, 2, 4} {
		opts = append(opts, rewrite.Options{Mode: rewrite.ModeOptimized, Parallelism: par})
	}
	for i := 0; i < 25; i++ {
		spec := g.GenDB()
		q := g.GenQuery()
		for _, sorted := range []bool{false, true} {
			s := spec
			if sorted {
				s = spec.SortedByBegin()
			}
			edb := s.ToEngineDB()
			for j, opt := range append(opts, opts...) {
				runs := j >= len(opts)
				opt.Collect = engine.NewCollector()
				it, err := rewrite.Stream(context.Background(), edb, q, opt)
				if err != nil {
					t.Fatalf("stream: %v (%s)", err, q)
				}
				var drained int64
				b, mult := engine.NewRowBatch(engine.DefaultBatchSize), []int64(nil)
				for runs && it.(engine.RunIter).NextRuns(b, &mult) {
					for _, k := range mult {
						drained += k
					}
				}
				for !runs && it.NextBatch(b) {
					drained += int64(b.Len())
				}
				if err := it.Err(); err != nil {
					t.Fatalf("stream error: %v (%s)", err, q)
				}
				it.Close()
				root := opt.Collect.RootOp()
				if root == nil {
					t.Fatalf("no stats collected (opt %+v, query %s)", opt, q)
				}
				if root.Rows() != drained {
					t.Fatalf("iteration %d, sorted %v, runs %v, opt %+v: analyze root rows=%d, cursor observed %d\nquery: %s\n%s",
						i, sorted, runs, opt, root.Rows(), drained, q, opt.Collect.Render())
				}
				checkStatsSane(t, root, q)
			}
		}
	}
}

// analyzeLeakDB builds a table large enough that a parallel pipeline is
// still in flight when the cursor closes early. Its begins cycle, so
// sweeps over it block; sorted stores it begin-sorted, so they stream.
func analyzeLeakDB(sorted bool) *engine.DB {
	db := engine.NewDB(dom)
	tb := db.CreateTable("big", tuple.NewSchema("g", "v"))
	for i := 0; i < 20000; i++ {
		b := int64(i % 20)
		tb.Append(tuple.Tuple{tuple.Int(int64(i % 7)), tuple.Int(int64(i))}, interval.New(b, b+2), 1)
	}
	if sorted {
		tb.SortByEndpoints()
	}
	return db
}

// waitForGoroutines polls until the goroutine count drops back to at
// most base, tolerating runtime background goroutines.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d running, want <= %d\n%s",
		runtime.NumGoroutine(), base, buf[:n])
}

// Attaching a collector must not change pipeline teardown: closing an
// analyzed parallel query right after the first batch (the early
// Rows.Close path) must reap every fragment and exchange goroutine, for
// both the hash-partitioned and the order-preserving exchanges.
func TestAnalyzeEarlyCloseReapsFragments(t *testing.T) {
	q := algebra.Agg{
		GroupBy: []string{"g"},
		Aggs:    []algebra.AggSpec{{Fn: krel.CountStar, As: "cnt"}},
		In:      algebra.Rel{Name: "big"},
	}
	base := runtime.NumGoroutine()
	for _, sorted := range []bool{false, true} {
		col := engine.NewCollector()
		it, err := rewrite.Stream(context.Background(), analyzeLeakDB(sorted), q,
			rewrite.Options{Mode: rewrite.ModeOptimized, Parallelism: 4, Collect: col})
		if err != nil {
			t.Fatal(err)
		}
		b := engine.NewRowBatch(1)
		if !it.NextBatch(b) {
			t.Fatal("empty pipeline")
		}
		it.Close()
		it.Close() // idempotent
		// A merge exchange may hand over a whole transport batch, so the
		// first pull can deliver more than the capacity asked for.
		if col.RootOp() == nil || col.RootOp().Rows() != int64(b.Len()) {
			t.Fatalf("sorted %v: analyzed row count after early close = %v, want %d", sorted, col.RootOp().Rows(), b.Len())
		}
		waitForGoroutines(t, base)
	}
}
