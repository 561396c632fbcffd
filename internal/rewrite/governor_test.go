// Resource-governor tests at the rewrite layer: each limit (row count,
// memory budget, deadline) must terminate the query with its typed
// error through the error-carrying iterator protocol, at one worker
// and at four.
package rewrite_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/krel"
	"snapk/internal/rewrite"
)

// drainGoverned pulls the stream per-row to end-of-stream, returning
// the row count and terminal error.
func drainGoverned(t *testing.T, db *engine.DB, q algebra.Query, opt rewrite.Options) (int64, error) {
	t.Helper()
	it, err := rewrite.Stream(context.Background(), db, q, opt)
	if err != nil {
		return 0, err
	}
	defer it.Close()
	var n int64
	for {
		if _, ok := it.Next(); !ok {
			return n, engine.IterErr(it)
		}
		n++
	}
}

// The row limit is exact under per-row drive (the root's Next): the
// governor counts at the root, so exactly RowLimit rows come out before
// ErrRowLimit — at one worker and at four alike.
func TestRowLimitExactPerRow(t *testing.T) {
	db := analyzeLeakDB()
	q := algebra.Rel{Name: "big"}
	for _, par := range []int{0, 4} {
		n, err := drainGoverned(t, db, q, rewrite.Options{
			Mode:        rewrite.ModeOptimized,
			Parallelism: par,
			Limits:      engine.Limits{RowLimit: 7},
		})
		if !errors.Is(err, engine.ErrRowLimit) {
			t.Fatalf("par=%d: err = %v, want ErrRowLimit", par, err)
		}
		if n != 7 {
			t.Fatalf("par=%d: %d rows delivered before the limit, want exactly 7", par, n)
		}
	}
}

// Under batch drive the limit still terminates the query with the typed
// error; delivery stops within one batch of the limit.
func TestRowLimitBatchDrive(t *testing.T) {
	db := analyzeLeakDB()
	q := algebra.Rel{Name: "big"}
	for _, par := range []int{0, 4} {
		n, err := drainGoverned(t, db, q, rewrite.Options{
			Mode:        rewrite.ModeOptimized,
			Parallelism: par,
			Limits:      engine.Limits{RowLimit: 100},
		})
		if !errors.Is(err, engine.ErrRowLimit) {
			t.Fatalf("par=%d: err = %v, want ErrRowLimit", par, err)
		}
		if n > 100 {
			t.Fatalf("par=%d: %d rows delivered past the limit", par, n)
		}
	}
}

// A one-byte memory budget must trip on the streaming sweep's tracked
// state (the max_state accounting) with ErrMemBudget — at build time or
// mid-stream, but never as a clean complete result.
func TestMemBudgetTripsStreamingSweep(t *testing.T) {
	db := analyzeLeakDB()
	q := algebra.Agg{
		GroupBy: []string{"g"},
		Aggs:    []algebra.AggSpec{{Fn: krel.CountStar, As: "cnt"}},
		In:      algebra.Rel{Name: "big"},
	}
	for _, par := range []int{0, 4} {
		_, err := drainGoverned(t, db, q, rewrite.Options{
			Mode:        rewrite.ModeOptimized,
			Sweep:       rewrite.SweepStreaming,
			Parallelism: par,
			Limits:      engine.Limits{MemBudget: 1},
		})
		if !errors.Is(err, engine.ErrMemBudget) {
			t.Fatalf("par=%d: err = %v, want ErrMemBudget", par, err)
		}
	}
}

// A blocking sweep materializes its partitions on the first pull; a
// one-byte budget must trip on those materialized inputs with
// ErrMemBudget — at one worker (one partition pair) and at two (one per
// worker) — and the unlimited query must still complete.
func TestMemBudgetTripsBlockingDiff(t *testing.T) {
	db := analyzeLeakDB()
	q := algebra.Diff{
		L: algebra.Rel{Name: "big"},
		R: algebra.Select{Pred: algebra.Lt(algebra.Col("v"), algebra.IntC(100)), In: algebra.Rel{Name: "big"}},
	}
	for _, par := range []int{1, 2} {
		opt := rewrite.Options{Mode: rewrite.ModeOptimized, Sweep: rewrite.SweepBlocking, Parallelism: par}
		if _, err := drainGoverned(t, db, q, opt); err != nil {
			t.Fatalf("par=%d: ungoverned blocking diff failed: %v", par, err)
		}
		opt.Limits = engine.Limits{MemBudget: 1}
		if _, err := drainGoverned(t, db, q, opt); !errors.Is(err, engine.ErrMemBudget) {
			t.Fatalf("par=%d: err = %v, want ErrMemBudget", par, err)
		}
	}
}

// An already-expired deadline surfaces as context.DeadlineExceeded —
// either refusing to build or ending the stream — at either width.
func TestDeadlineSurfaces(t *testing.T) {
	db := analyzeLeakDB()
	q := algebra.Rel{Name: "big"}
	for _, par := range []int{0, 4} {
		n, err := drainGoverned(t, db, q, rewrite.Options{
			Mode:        rewrite.ModeOptimized,
			Parallelism: par,
			Limits:      engine.Limits{Timeout: time.Nanosecond},
		})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("par=%d: err = %v (%d rows), want DeadlineExceeded", par, err, n)
		}
	}
}
