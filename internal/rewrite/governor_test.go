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

// drainGoverned pulls the stream batch-at-a-time to end-of-stream,
// returning the row count and terminal error.
func drainGoverned(t *testing.T, db *engine.DB, q algebra.Query, opt rewrite.Options) (int64, error) {
	t.Helper()
	it, err := rewrite.Stream(context.Background(), db, q, opt)
	if err != nil {
		return 0, err
	}
	defer it.Close()
	var n int64
	b := engine.NewRowBatch(engine.DefaultBatchSize)
	for it.NextBatch(b) {
		n += int64(b.Len())
	}
	return n, it.Err()
}

// The row limit is exact: the governor counts at the root and cuts the
// batch that crosses the limit, so exactly RowLimit rows come out before
// ErrRowLimit — at one worker and at four alike, with the limit inside
// the first batch.
func TestRowLimitExactPerRow(t *testing.T) {
	db := analyzeLeakDB(false)
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

// A limit that is not a multiple of the batch size is still exact.
func TestRowLimitBatchDrive(t *testing.T) {
	db := analyzeLeakDB(false)
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
		if n != 100 {
			t.Fatalf("par=%d: %d rows delivered before the limit, want exactly 100", par, n)
		}
	}
}

// A one-byte memory budget must trip on the streaming sweep's tracked
// state (the max_state accounting) with ErrMemBudget — at build time or
// mid-stream, but never as a clean complete result.
func TestMemBudgetTripsStreamingSweep(t *testing.T) {
	db := analyzeLeakDB(true)
	q := algebra.Agg{
		GroupBy: []string{"g"},
		Aggs:    []algebra.AggSpec{{Fn: krel.CountStar, As: "cnt"}},
		In:      algebra.Rel{Name: "big"},
	}
	if p, err := rewrite.Rewrite(q, db, rewrite.Options{}); err != nil || db.ExplainPlan(p).Mode != "streaming" {
		t.Fatalf("the aggregation over a begin-sorted table must stream: %v %v", p, err)
	}
	for _, par := range []int{0, 4} {
		_, err := drainGoverned(t, db, q, rewrite.Options{
			Mode:        rewrite.ModeOptimized,
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
	db := analyzeLeakDB(false)
	q := algebra.Diff{
		L: algebra.Rel{Name: "big"},
		R: algebra.Select{Pred: algebra.Lt(algebra.Col("v"), algebra.IntC(100)), In: algebra.Rel{Name: "big"}},
	}
	if p, err := rewrite.Rewrite(q, db, rewrite.Options{}); err != nil || db.ExplainPlan(p).Mode != "blocking" {
		t.Fatalf("the difference over an unsorted table must block: %v %v", p, err)
	}
	for _, par := range []int{1, 2} {
		opt := rewrite.Options{Mode: rewrite.ModeOptimized, Parallelism: par}
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
	db := analyzeLeakDB(false)
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
