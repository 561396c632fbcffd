package parallel

import (
	"cmp"
	"fmt"
	"slices"

	"snapk/internal/engine"
	"snapk/internal/interval"
	"snapk/internal/tuple"
)

// This file is the time partition of a global aggregation. A global
// aggregation has one group, so no key partitions it; but the timeslice
// commutes with every operator of the rewriting (Thm 6.3/7.2), so
// τ_T(Agg(In)) = τ_T(Agg(τ_T(In))), and the coalesced encoding is
// unique. The aggregation therefore runs as W fragments over the time
// ranges T_1 … T_W that the W − 1 splits cut (engine.DB.TimeSplits):
// fragment i is the aggregation's input built at one worker, read
// through a rangeIter that keeps the rows overlapping T_i, under a sweep
// over the domain T_i, which folds each row over its part inside T_i and
// emits gap rows over T_i only. No row is clipped, so none is copied.
// The fragments run on the merge producers, and the boundary merge
// (boundaryIter) joins the segments that meet at a split with equal
// values — the one encoding one sweep over the whole domain emits.

// timeSplits returns the split instants of plan node p run at the given
// worker count: those of a global aggregation that engine.DB.TimeSplits
// cuts, and none for any other node or where it cuts none.
func timeSplits(db *engine.DB, p engine.Plan, workers int) []interval.Time {
	n, ok := p.(engine.AggP)
	if !ok {
		return nil
	}
	return db.TimeSplits(n, workers)
}

// fragmentRange returns the time range of fragment i of a partition of
// the domain dom cut at splits.
func fragmentRange(dom interval.Domain, splits []interval.Time, i int) interval.Interval {
	T := dom.All()
	if i > 0 {
		T.Begin = splits[i-1]
	}
	if i < len(splits) {
		T.End = splits[i]
	}
	return T
}

// buildTimeAgg compiles global aggregation n as a time partition cut at
// splits, under its stats node st: the fragments' inputs, an
// Exchange:time-partition node counting the rows each fragment's sweep
// reads, one fragment node per sweep, and the boundary merge above them.
func (e *executor) buildTimeAgg(n engine.AggP, splits []interval.Time, st *engine.OpStats) (*pstream, error) {
	dom := e.db.Domain()
	ins := make([]*pstream, 0, len(splits)+1)
	closeIns := func() {
		for _, in := range ins {
			if in != nil {
				in.close()
			}
		}
	}
	for range len(splits) + 1 {
		in, err := e.buildAt(1, n.In, st)
		if err != nil {
			closeIns()
			return nil, err
		}
		ins = append(ins, in)
	}
	data := ins[0].dataSchema()
	_, schema, err := engine.AggregateShape(data, nil, n.Aggs)
	if err != nil {
		closeIns()
		return nil, err
	}
	// TimeSplits cuts only over a begin-sorted table, so every fragment
	// streams, and no blocking sweep needs a drain hint.
	_, streams := place(e.db, n, 1, false, ins[0].shape())
	aggForm(st, n, streams)
	xst := st.Child("Exchange:time-partition", fmt.Sprintf("fanin=%d splits=%v", len(ins), splits))
	xst.InitParts(len(ins))
	parts := make([]engine.RowIter, len(ins))
	for i, in := range ins {
		T := fragmentRange(dom, splits, i)
		part := &rangeIter{in: in.parts[0], t: T, st: xst, part: i}
		ins[i] = nil // the sweep owns part now, and closes it on error
		it, err := e.aggSweep(n, part, data, in.cols, schema, streams, interval.Domain{Min: T.Begin, Max: T.End}, 0, 0)
		if err != nil {
			closeAll(parts[:i])
			closeIns()
			return nil, err
		}
		parts[i] = it
	}
	parts = e.finish("agg", &pstream{parts: parts, schema: schema}, st).parts
	merged := e.mergeOn("exchange:time-partition", parts, xst)
	b := &boundaryIter{in: merged, e: e, splits: splits, rowBytes: engine.ApproxRowBytes(schema.Arity())}
	return &pstream{parts: []engine.RowIter{b}, schema: schema}, nil
}

// rangeIter is the input of the fragment over range t: the rows of its
// begin-sorted input that overlap t, unclipped, counted on the
// Exchange:time-partition node st. It ends at the first row that begins
// at or past t's end, so a fragment reads its input only up to there.
type rangeIter struct {
	in   engine.RowIter
	t    interval.Interval
	st   *engine.OpStats
	part int
	done bool
}

func (it *rangeIter) Schema() tuple.Schema { return it.in.Schema() }

func (it *rangeIter) NextBatch(b *engine.RowBatch) bool {
	for !it.done && it.in.NextBatch(b) {
		kept := b.Rows[:0]
		for _, row := range b.Rows {
			n := len(row)
			if row[n-2].AsInt() >= it.t.End {
				it.done = true
				break
			}
			if row[n-1].AsInt() > it.t.Begin {
				//lint:ignore rowretain compacts the batch in place; the row passes on unmodified
				kept = append(kept, row)
			}
		}
		if b.Rows = kept; b.Len() > 0 {
			it.st.AddPartRows(it.part, b.Len())
			return true
		}
	}
	b.Reset()
	return false
}

func (it *rangeIter) Err() error { return it.in.Err() }

func (it *rangeIter) Close() { it.in.Close() }

// boundaryIter is the boundary merge of a time partition. Every row of
// the merged fragments that neither begins nor ends at a split passes
// straight through. A global aggregation emits exactly one row per
// instant, so at each split one row ends and one begins: those are held,
// at most two per split, and charged to the governor. Once every
// fragment has ended the held rows are joined: rows that meet at a split
// with SameKey-equal data columns — the equality the sweep's settle
// merges adjacent segments by — become one segment, across as many
// splits as they chain. A failed or canceled input emits no held row.
type boundaryIter struct {
	in       engine.RowIter
	e        *executor
	splits   []interval.Time
	rowBytes int64
	held     []tuple.Tuple
	charged  int64
	joined   []tuple.Tuple // the joined rows, handed out once in has ended
	ended    bool
	err      error
}

func (it *boundaryIter) Schema() tuple.Schema { return it.in.Schema() }

// split reports whether t is a split instant.
func (it *boundaryIter) split(t interval.Time) bool {
	_, found := slices.BinarySearch(it.splits, t)
	return found
}

func (it *boundaryIter) NextBatch(b *engine.RowBatch) bool {
	for !it.ended && it.err == nil {
		if !it.in.NextBatch(b) {
			it.ended = true
			if it.err = engine.FirstErr(it.in.Err(), it.e.errOf(), it.e.ctx.Err()); it.err == nil {
				it.joined = it.join()
			}
			break
		}
		kept := b.Rows[:0]
		for _, row := range b.Rows {
			n := len(row)
			if !it.split(row[n-2].AsInt()) && !it.split(row[n-1].AsInt()) {
				//lint:ignore rowretain compacts the batch in place; the row passes on unmodified
				kept = append(kept, row)
				continue
			}
			// The charge sticks even when refused (Governor.ChargeMem).
			if err := it.e.gov.ChargeMem(it.rowBytes); err != nil {
				it.err = err
			}
			it.charged += it.rowBytes
			//lint:ignore rowretain a sweep's output rows are never reused, and the held ones are at most two per split
			it.held = append(it.held, row)
		}
		if it.err != nil {
			break
		}
		if b.Rows = kept; b.Len() > 0 {
			return true
		}
	}
	b.Reset()
	k := min(len(it.joined), b.Cap())
	b.Rows = append(b.Rows, it.joined[:k]...)
	it.joined = it.joined[k:]
	return k > 0
}

// join joins the held rows at the splits, in begin order, and releases
// their charge.
func (it *boundaryIter) join() []tuple.Tuple {
	slices.SortFunc(it.held, func(a, b tuple.Tuple) int {
		return cmp.Compare(a[len(a)-2].AsInt(), b[len(b)-2].AsInt())
	})
	var out []tuple.Tuple
	for _, row := range it.held {
		if k := len(out) - 1; k >= 0 && it.meet(out[k], row) {
			// A fresh row: the fragments' rows are never written.
			joined := slices.Clone(out[k])
			joined[len(joined)-1] = row[len(row)-1]
			out[k] = joined
			continue
		}
		out = append(out, row)
	}
	it.release()
	return out
}

// meet reports whether a ends at a split where b begins with the same
// data columns.
func (it *boundaryIter) meet(a, b tuple.Tuple) bool {
	n := len(a)
	if end := a[n-1].AsInt(); end != b[n-2].AsInt() || !it.split(end) {
		return false
	}
	for j := range n - 2 {
		if !tuple.SameKey(a[j], b[j]) {
			return false
		}
	}
	return true
}

// release returns the held rows' charge to the governor.
func (it *boundaryIter) release() {
	it.e.gov.ReleaseMem(it.charged)
	it.charged, it.held = 0, nil
}

func (it *boundaryIter) Err() error { return engine.FirstErr(it.err, it.in.Err()) }

func (it *boundaryIter) Close() {
	it.release()
	it.joined = nil
	it.in.Close()
}
