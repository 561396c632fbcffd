package parallel

import (
	"errors"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/tuple"
)

// errAfterIter yields n rows and then ends with err — a minimal
// error-carrying input for exercising the lazy sweep iterator's
// failure path (which replaced the old mustValidated panic sites).
type errAfterIter struct {
	schema tuple.Schema
	rows   []tuple.Tuple
	i      int
	err    error
}

func (it *errAfterIter) Schema() tuple.Schema { return it.schema }

func (it *errAfterIter) NextBatch(b *engine.RowBatch) bool {
	b.Reset()
	for ; it.i < len(it.rows) && b.Len() < b.Cap(); it.i++ {
		b.Append(it.rows[it.i])
	}
	return b.Len() > 0
}

func (it *errAfterIter) Err() error { return it.err }

func (it *errAfterIter) Close() {}

func periodSchema2() tuple.Schema {
	return tuple.Schema{Cols: []string{"v", "ts", "te"}}
}

// TestLazySweepPropagatesDrainError pins the behavior that replaced the
// mustValidated panic: a failed partition drain yields NO rows from the
// lazy sweep (a sweep over a truncated partition would be a silently
// wrong multiset) and the drain error surfaces through Err.
func TestLazySweepPropagatesDrainError(t *testing.T) {
	boom := errors.New("boom")
	in := &errAfterIter{schema: periodSchema2(), rows: []tuple.Tuple{
		{tuple.Int(1), tuple.Int(0), tuple.Int(10)},
	}, err: boom}
	it := newLazySweepIter(nil, periodSchema2(), func(ts ...*engine.Table) (engine.RowIter, error) {
		return engine.NewTableIter(ts[0]), nil
	}, nil, in)
	defer it.Close()
	if pull(it) {
		t.Fatal("lazy sweep over a failed partition must yield no rows")
	}
	if err := it.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err = %v, want %v", err, boom)
	}
}

// TestLazySweepPropagatesFnError pins that a failing sweep function —
// an executor bug by construction, since build validates against an
// empty input — propagates as a query error instead of panicking or
// yielding an empty partition.
func TestLazySweepPropagatesFnError(t *testing.T) {
	boom := errors.New("sweep bug")
	in := &errAfterIter{schema: periodSchema2()}
	it := newLazySweepIter(nil, periodSchema2(), func(...*engine.Table) (engine.RowIter, error) {
		return nil, boom
	}, nil, in)
	defer it.Close()
	if pull(it) {
		t.Fatal("lazy sweep with a failing fn must yield no rows")
	}
	if err := it.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err = %v, want %v", err, boom)
	}
}

// TestLazyDiffPropagatesDrainError pins the two-input form: a failure
// on either side fails the whole partition diff.
func TestLazyDiffPropagatesDrainError(t *testing.T) {
	boom := errors.New("right side boom")
	l := &errAfterIter{schema: periodSchema2()}
	r := &errAfterIter{schema: periodSchema2(), err: boom}
	it := newLazySweepIter(nil, periodSchema2(), func(ts ...*engine.Table) (engine.RowIter, error) {
		return engine.NewBlockDiffIter(ts[0], ts[1])
	}, nil, l, r)
	defer it.Close()
	if pull(it) {
		t.Fatal("lazy diff over a failed partition must yield no rows")
	}
	if err := it.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err = %v, want %v", err, boom)
	}
}

// TestLazySweepChargesHeldRuns pins that the runs a blocking difference
// holds until Close are query state: under a budget that fits the
// materialized input but not the input plus the held runs, the first
// pull fails with ErrMemBudget; under one that fits both, every run is
// delivered. The input's charge ends when the sweep has run — nothing
// references the drained rows then — and Close releases every byte
// either way. A blocking aggregation's result is charged until Close
// as well.
func TestLazySweepChargesHeldRuns(t *testing.T) {
	const n = 100 // distinct values: the coalesce holds one run per row
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		rows[i] = tuple.Tuple{tuple.Int(int64(i)), tuple.Int(0), tuple.Int(10)}
	}
	input := n * engine.ApproxRowBytes(3)
	held := n * (engine.ApproxRowBytes(3) + runBytes)
	for _, tc := range []struct {
		budget int64
		fits   bool
	}{{input + 100, false}, {3 * input, true}} {
		gov := engine.NewGovernor(engine.Limits{MemBudget: tc.budget})
		it := newLazySweepIter(gov, periodSchema2(), func(ts ...*engine.Table) (engine.RowIter, error) {
			return engine.NewBlockDiffIter(ts[0], nil)
		}, nil, &errAfterIter{schema: periodSchema2(), rows: rows})
		b, mult := engine.NewRowBatch(n), []int64(nil)
		ok := it.(engine.RunIter).NextRuns(b, &mult)
		if tc.fits {
			if !ok || b.Len() != n || it.Err() != nil {
				t.Fatalf("budget %d: %d runs, Err %v; want %d runs and no error", tc.budget, b.Len(), it.Err(), n)
			}
			if got := gov.MemInUse(); got != held {
				t.Fatalf("budget %d: %d bytes charged while the runs stream, want the held runs' %d", tc.budget, got, held)
			}
		} else if ok || !errors.Is(it.Err(), engine.ErrMemBudget) {
			t.Fatalf("budget %d: ok=%v, Err %v; want ErrMemBudget", tc.budget, ok, it.Err())
		}
		it.Close()
		if got := gov.MemInUse(); got != 0 {
			t.Fatalf("budget %d: %d bytes still charged after Close", tc.budget, got)
		}
	}

	// The blocking aggregation's result, which the iterator also holds
	// until Close, is charged the same way: one row per group here.
	const groups = 30
	for i := range rows {
		rows[i] = tuple.Tuple{tuple.Int(int64(i % groups)), tuple.Int(0), tuple.Int(10)}
	}
	aggs := []algebra.AggSpec{{Fn: krel.CountStar, As: "c"}}
	gov := engine.NewGovernor(engine.Limits{MemBudget: 1 << 30})
	it := newLazySweepIter(gov, engine.PeriodSchema(tuple.NewSchema("v", "c")), func(ts ...*engine.Table) (engine.RowIter, error) {
		return engine.NewBlockAggIter(nil, ts[0], tuple.NewSchema("v"), nil, []string{"v"}, aggs, true, interval.NewDomain(0, 10))
	}, nil, &errAfterIter{schema: periodSchema2(), rows: rows})
	b := engine.NewRowBatch(n)
	if !it.NextBatch(b) || b.Len() != groups {
		t.Fatalf("%d rows, Err %v; want %d", b.Len(), it.Err(), groups)
	}
	if got, want := gov.MemInUse(), groups*(engine.ApproxRowBytes(4)+runBytes); got != want {
		t.Fatalf("%d bytes charged while the result streams, want the result's %d", got, want)
	}
	it.Close()
	if got := gov.MemInUse(); got != 0 {
		t.Fatalf("%d bytes still charged after Close", got)
	}
}

// TestLazySweepChargesSweepScratch pins that a blocking sweep's scratch
// — its event array, radix buffer and group index — is charged beside
// the drained input: a budget that fits the input and less than one
// event per row refuses the coalesce and the aggregation alike, and one
// that fits both runs them and leaves no scratch charged.
func TestLazySweepChargesSweepScratch(t *testing.T) {
	const n = 100
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		rows[i] = tuple.Tuple{tuple.Int(int64(i % 10)), tuple.Int(int64(i)), tuple.Int(int64(i + 5))}
	}
	input := n * engine.ApproxRowBytes(3)
	aggs := []algebra.AggSpec{{Fn: krel.CountStar, As: "c"}}
	sweeps := map[string]struct {
		schema tuple.Schema
		run    func(*engine.Governor, *engine.Table) (engine.RowIter, error)
	}{
		"coalesce": {periodSchema2(), func(gov *engine.Governor, in *engine.Table) (engine.RowIter, error) {
			return engine.NewBlockCountIter(gov, in.Schema, in, []int{0}, nil, nil)
		}},
		"aggregation": {engine.PeriodSchema(tuple.NewSchema("v", "c")), func(gov *engine.Governor, in *engine.Table) (engine.RowIter, error) {
			return engine.NewBlockAggIter(gov, in, tuple.NewSchema("v"), nil, []string{"v"}, aggs, true, interval.NewDomain(0, 200))
		}},
	}
	for name, sweep := range sweeps {
		for _, tc := range []struct {
			budget int64
			fits   bool
		}{{input + n*8, false}, {4 * input, true}} {
			gov := engine.NewGovernor(engine.Limits{MemBudget: tc.budget})
			it := newLazySweepIter(gov, sweep.schema, func(ts ...*engine.Table) (engine.RowIter, error) {
				return sweep.run(gov, ts[0])
			}, nil, &errAfterIter{schema: periodSchema2(), rows: rows})
			b := engine.NewRowBatch(4 * n)
			ok := it.NextBatch(b)
			if tc.fits {
				if !ok || it.Err() != nil {
					t.Fatalf("%s, budget %d: %d rows, Err %v; want rows and no error", name, tc.budget, b.Len(), it.Err())
				}
				if got, held := gov.MemInUse(), int64(b.Len())*(engine.ApproxRowBytes(sweep.schema.Arity())+runBytes); got != held {
					t.Fatalf("%s, budget %d: %d bytes charged while the result streams, want the result's %d", name, tc.budget, got, held)
				}
			} else if ok || !errors.Is(it.Err(), engine.ErrMemBudget) {
				t.Fatalf("%s, budget %d: ok=%v, Err %v; want ErrMemBudget", name, tc.budget, ok, it.Err())
			}
			it.Close()
			if got := gov.MemInUse(); got != 0 {
				t.Fatalf("%s, budget %d: %d bytes still charged after Close", name, tc.budget, got)
			}
		}
	}
}
