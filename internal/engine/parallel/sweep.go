package parallel

import (
	"snapk/internal/engine"
	"snapk/internal/tuple"
)

// lazySweepIter runs one blocking sweep — over one hash partition (or
// partition pair, for difference) — inside the fragment that drains it:
// the inputs are materialized on the first pull (concurrently across
// fragments when each runs in its own merge-producer goroutine), fn runs
// on them, and its result streams out: a run iterator, whose runs it
// forwards for the difference and the coalesce, and whose rows are the
// aggregation's. The partitioning key is the group key, so the
// per-partition sweeps are independent and their merged outputs form
// exactly the one-fragment result multiset. On begin-sorted input the
// scan partition and per-fragment streaming sweeps supersede this.
//
// A failed input drain or a failing fn ends the stream with NO rows — a
// sweep over a truncated partition would be a silently wrong multiset —
// and the error propagates through Err per the error-carrying iterator
// protocol. The materialized inputs are query state while fn runs, and
// the result fn returns is query state until Close: each is charged to
// the memory budget for as long as it is held.
type lazySweepIter struct {
	ins     []engine.RowIter
	hints   []int64 // the rows each input is expected to drain, or nil
	schema  tuple.Schema
	fn      func(...*engine.Table) (engine.RowIter, error)
	gov     *engine.Governor
	charged int64          // bytes of the held result charged to gov
	out     engine.RowIter // fn's result, once run
	err     error
}

// newLazySweepIter wraps the inputs of one fragment with a blocking
// function over their materializations; schema is fn's output schema,
// gov (nil for none) the budget the inputs are charged to, and hints
// (nil for none) the rows each input's drain reserves room for.
func newLazySweepIter(gov *engine.Governor, schema tuple.Schema, fn func(...*engine.Table) (engine.RowIter, error), hints []int64, ins ...engine.RowIter) engine.RowIter {
	return &lazySweepIter{ins: ins, hints: hints, schema: schema, fn: fn, gov: gov}
}

func (it *lazySweepIter) Schema() tuple.Schema { return it.schema }

// runBytes prices one held run beyond its row: its int64 count.
const runBytes = 8

// run materializes the inputs and applies fn on the first pull; it
// reports whether the result stream is available.
func (it *lazySweepIter) run() bool {
	if it.out != nil || it.err != nil {
		return it.err == nil
	}
	ts := make([]*engine.Table, len(it.ins))
	for i, in := range it.ins {
		var hint int64
		if it.hints != nil {
			hint = it.hints[i]
		}
		var err error
		ts[i], err = engine.MaterializeSized(in, hint)
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
	var in int64
	for _, t := range ts {
		in += int64(t.Len()) * engine.ApproxRowBytes(t.Schema.Arity())
	}
	if it.err = it.gov.ChargeMem(in); it.err == nil {
		it.out, it.err = it.fn(ts...)
	}
	// Nothing references the inputs once fn has run: the result holds
	// rows of its own.
	it.gov.ReleaseMem(in)
	if it.err != nil {
		return false
	}
	// The result holds every run, or every aggregate row, until Close.
	if s, ok := it.out.(engine.StateSizer); ok {
		it.charged = s.MaxState() * (engine.ApproxRowBytes(it.schema.Arity()) + runBytes)
		it.err = it.gov.ChargeMem(it.charged)
	}
	return it.err == nil
}

func (it *lazySweepIter) NextBatch(b *engine.RowBatch) bool {
	if !it.run() {
		b.Reset()
		return false
	}
	return it.out.NextBatch(b)
}

func (it *lazySweepIter) NextRuns(b *engine.RowBatch, mult *[]int64) bool {
	if !it.run() {
		b.Reset()
		*mult = (*mult)[:0]
		return false
	}
	return engine.NextRuns(it.out, b, mult)
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

// Close releases the inputs when no pull drained them, and when one did
// the result and the budget charged for it.
func (it *lazySweepIter) Close() {
	closeAll(it.ins)
	if it.out != nil {
		it.out.Close()
	}
	it.gov.ReleaseMem(it.charged)
	it.charged = 0
}
