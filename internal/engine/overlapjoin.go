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

// NewOverlapJoinIter drains both inputs, sorts them by interval begin
// and returns the lazy sweep iterator; prep is the join predicate
// analysed over the inputs' data schemas. Both inputs are fully consumed
// and closed here; the sweep holds no child resources.
func NewOverlapJoinIter(l, r RowIter, prep *JoinPrep) (RowIter, error) {
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
	// The batch's row slice is copied out before the producer reuses it.
	b := NewRowBatch(DefaultBatchSize)
	for it.NextBatch(b) {
		rows = append(rows, b.Rows...)
	}
	return rows, it.Err()
}

func (it *overlapJoinIter) Schema() tuple.Schema { return it.schema }

// NextBatch runs the sweep until out is full or both inputs are swept.
// A forward scan cut short by a full batch resumes on the next call. The
// surviving pairs are staged in out and flushed to their output rows at
// the end.
func (it *overlapJoinIter) NextBatch(out *RowBatch) bool {
	out.Reset()
	limit := out.Cap()
	for out.Len() < limit {
		if !it.active {
			if it.i >= len(it.l) || it.j >= len(it.r) {
				it.pairs.flush(out)
				it.pairs.release()
				return out.Len() > 0
			}
			it.refL = rowInterval(it.l[it.i]).Begin <= rowInterval(it.r[it.j]).Begin
			if it.refL {
				it.k = it.j
			} else {
				it.k = it.i
			}
			it.active = true
		}
		ref, other := it.r[it.j], it.l
		if it.refL {
			ref, other = it.l[it.i], it.r
		}
		end := rowInterval(ref).End
		for out.Len() < limit && it.k < len(other) && rowInterval(other[it.k]).Begin < end {
			lrow, rrow := other[it.k], ref
			if it.refL {
				lrow, rrow = ref, other[it.k]
			}
			it.k++
			it.pairs.stage(out, lrow, rrow)
		}
		if it.k < len(other) && rowInterval(other[it.k]).Begin < end {
			continue // batch full mid-scan
		}
		it.active = false
		if it.refL {
			it.i++
		} else {
			it.j++
		}
	}
	it.pairs.flush(out)
	return out.Len() > 0
}

// Err reports no error: both inputs were drained and checked at
// construction.
func (it *overlapJoinIter) Err() error { return nil }

func (it *overlapJoinIter) Close() {}
