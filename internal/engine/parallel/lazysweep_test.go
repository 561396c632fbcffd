package parallel

import (
	"errors"
	"testing"

	"snapk/internal/engine"
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

func (it *errAfterIter) Next() (tuple.Tuple, bool) {
	if it.i < len(it.rows) {
		row := it.rows[it.i]
		it.i++
		return row, true
	}
	return nil, false
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
	it := newLazySweepIter(nil, periodSchema2(), func(ts ...*engine.Table) (*engine.Table, error) {
		return ts[0], nil
	}, in)
	defer it.Close()
	if _, ok := it.Next(); ok {
		t.Fatal("lazy sweep over a failed partition must yield no rows")
	}
	if err := engine.IterErr(it); !errors.Is(err, boom) {
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
	it := newLazySweepIter(nil, periodSchema2(), func(...*engine.Table) (*engine.Table, error) {
		return nil, boom
	}, in)
	defer it.Close()
	if _, ok := it.Next(); ok {
		t.Fatal("lazy sweep with a failing fn must yield no rows")
	}
	if err := engine.IterErr(it); !errors.Is(err, boom) {
		t.Fatalf("Err = %v, want %v", err, boom)
	}
}

// TestLazyDiffPropagatesDrainError pins the two-input form: a failure
// on either side fails the whole partition diff.
func TestLazyDiffPropagatesDrainError(t *testing.T) {
	boom := errors.New("right side boom")
	l := &errAfterIter{schema: periodSchema2()}
	r := &errAfterIter{schema: periodSchema2(), err: boom}
	it := newLazySweepIter(nil, periodSchema2(), func(ts ...*engine.Table) (*engine.Table, error) {
		return engine.TemporalDiff(ts[0], ts[1])
	}, l, r)
	defer it.Close()
	if _, ok := it.Next(); ok {
		t.Fatal("lazy diff over a failed partition must yield no rows")
	}
	if err := engine.IterErr(it); !errors.Is(err, boom) {
		t.Fatalf("Err = %v, want %v", err, boom)
	}
}
