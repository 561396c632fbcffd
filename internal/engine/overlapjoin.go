package engine

import "snapk/internal/tuple"

// overlapJoinIter is the temporal join fallback for predicates without
// any equality conjunct. The previous implementation collapsed all build
// rows into one hash bucket, degenerating into a bare cartesian loop;
// this iterator instead sorts both inputs by interval begin once and
// runs a forward-scan plane sweep, so pure-overlap joins cost
// O(n log n + output) instead of O(n·m).
//
// Sweep invariant: each overlapping pair (l, r) is reported exactly once
// by whichever row begins first (ties go to the left input). When row x
// is the reference, the opposite input is scanned forward from its
// cursor while the scanned rows begin before x ends; every such row is
// guaranteed to overlap x, because it begins at or after x does.
type overlapJoinIter struct {
	schema tuple.Schema
	l, r   []tuple.Tuple // sorted ascending by interval begin
	pairs  pairComposer
	i, j   int  // sweep cursors into l and r
	k      int  // forward-scan cursor into the non-reference input
	refL   bool // current reference row is l[i] (else r[j])
	active bool // a forward scan is in progress
}

// newOverlapJoinIter drains both inputs, sorts them by interval begin
// and returns the lazy sweep iterator; prep is the join predicate
// analysed over the inputs' data schemas. Both inputs are fully consumed
// and closed here; the sweep holds no child resources.
func newOverlapJoinIter(l, r RowIter, prep *JoinPrep) (RowIter, error) {
	lRows, lErr := drainRowsErr(l)
	rRows, rErr := drainRowsErr(r)
	l.Close()
	r.Close()
	// A sweep over a truncated input would silently drop join pairs:
	// surface the drain error as a construction error instead.
	if err := FirstErr(lErr, rErr); err != nil {
		return nil, err
	}
	SortRowsByEndpoints(lRows)
	SortRowsByEndpoints(rRows)
	return &overlapJoinIter{
		schema: prep.Schema(),
		l:      lRows,
		r:      rRows,
		pairs:  prep.composer(),
	}, nil
}

// drainRowsErr drains it into a private slice and reports the error
// that ended the stream early, nil on a natural end. It does not Close
// it.
func drainRowsErr(it RowIter) ([]tuple.Tuple, error) {
	var rows []tuple.Tuple
	if bi, ok := it.(BatchIter); ok {
		// Batch drain into a private slice: the batch's row slice is
		// copied out before the producer reuses it.
		b := NewRowBatch(DefaultBatchSize)
		for bi.NextBatch(b) {
			rows = append(rows, b.Rows...)
		}
		return rows, IterErr(it)
	}
	for {
		row, ok := it.Next()
		if !ok {
			return rows, IterErr(it)
		}
		//lint:ignore rowretain blocking drain into a private slice; the rows are only ever read (engine producers never reuse yielded backing arrays)
		rows = append(rows, row)
	}
}

func (it *overlapJoinIter) Schema() tuple.Schema { return it.schema }

func (it *overlapJoinIter) Next() (tuple.Tuple, bool) {
	for {
		if it.active {
			if it.refL {
				lrow := it.l[it.i]
				end := rowInterval(lrow).End
				for it.k < len(it.r) {
					rrow := it.r[it.k]
					if rowInterval(rrow).Begin >= end {
						break
					}
					it.k++
					if out, ok := it.pairs.compose(lrow, rrow); ok {
						return out, true
					}
				}
				it.active = false
				it.i++
			} else {
				rrow := it.r[it.j]
				end := rowInterval(rrow).End
				for it.k < len(it.l) {
					lrow := it.l[it.k]
					if rowInterval(lrow).Begin >= end {
						break
					}
					it.k++
					if out, ok := it.pairs.compose(lrow, rrow); ok {
						return out, true
					}
				}
				it.active = false
				it.j++
			}
			continue
		}
		if it.i >= len(it.l) || it.j >= len(it.r) {
			return nil, false
		}
		if rowInterval(it.l[it.i]).Begin <= rowInterval(it.r[it.j]).Begin {
			it.refL = true
			it.k = it.j
		} else {
			it.refL = false
			it.k = it.i
		}
		it.active = true
	}
}

func (it *overlapJoinIter) Close() {}
