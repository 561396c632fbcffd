package parallel

import (
	"snapk/internal/engine"
	"snapk/internal/tuple"
)

// lazySweepIter runs one blocking operator — a blocking sweep over one
// hash partition (or partition pair, for difference), or the sort
// enforcer — inside the fragment that drains it: the inputs are
// materialized on the first pull (concurrently across fragments when
// each runs in its own merge-producer goroutine), fn runs on them, and
// the result streams out. For the sweeps the partitioning key is the
// group key, so the per-partition sweeps are independent and their
// merged outputs form exactly the one-fragment result multiset. The
// ordered exchange + per-fragment streaming sweeps supersede this on
// begin-sorted input.
//
// A failed input drain or a failing fn ends the stream with NO rows — a
// sweep over a truncated partition would be a silently wrong multiset —
// and the error propagates through Err per the error-carrying iterator
// protocol. The materialized inputs are query state: they are charged
// to the memory budget when drained and released on Close.
type lazySweepIter struct {
	ins     []engine.RowIter
	schema  tuple.Schema
	fn      func(...*engine.Table) (*engine.Table, error)
	gov     *engine.Governor
	charged int64          // bytes of materialized input charged to gov
	out     engine.RowIter // scan of fn's result, once run
	err     error
}

// newLazySweepIter wraps the inputs of one fragment with a blocking
// function over their materializations; schema is fn's output schema
// and gov (nil for none) the budget the inputs are charged to.
func newLazySweepIter(gov *engine.Governor, schema tuple.Schema, fn func(...*engine.Table) (*engine.Table, error), ins ...engine.RowIter) engine.RowIter {
	return &lazySweepIter{ins: ins, schema: schema, fn: fn, gov: gov}
}

func (it *lazySweepIter) Schema() tuple.Schema { return it.schema }

// run materializes the inputs and applies fn on the first pull; it
// reports whether the result stream is available.
func (it *lazySweepIter) run() bool {
	if it.out != nil || it.err != nil {
		return it.err == nil
	}
	ts := make([]*engine.Table, len(it.ins))
	for i, in := range it.ins {
		var err error
		ts[i], err = engine.MaterializeErr(in)
		it.err = engine.FirstErr(it.err, err)
	}
	// The drained inputs are released now, not at Close: in a
	// single-fragment pipeline they are the whole upstream operator
	// chain, hash-join build tables included, which must not stay
	// reachable while fn runs and its result streams out.
	closeAll(it.ins)
	it.ins = nil
	if it.err != nil {
		return false
	}
	for _, t := range ts {
		it.charged += int64(t.Len()) * engine.ApproxRowBytes(t.Schema.Arity())
	}
	if it.err = it.gov.ChargeMem(it.charged); it.err != nil {
		return false
	}
	var t *engine.Table
	if t, it.err = it.fn(ts...); it.err != nil {
		return false
	}
	it.out = engine.NewTableIter(t)
	return true
}

func (it *lazySweepIter) NextBatch(b *engine.RowBatch) bool {
	if !it.run() {
		b.Reset()
		return false
	}
	return it.out.NextBatch(b)
}

// Err reports the input drain or fn failure; before the first pull it
// delegates to the inputs (which may have recorded an error this
// iterator never observed because it was closed first).
func (it *lazySweepIter) Err() error {
	err := it.err
	for _, in := range it.ins {
		err = engine.FirstErr(err, in.Err())
	}
	return err
}

// Close releases the inputs when no pull drained them, and the budget
// charged for them when one did; the result is a table scan holding no
// other resources.
func (it *lazySweepIter) Close() {
	closeAll(it.ins)
	it.gov.ReleaseMem(it.charged)
	it.charged = 0
}
