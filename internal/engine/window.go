package engine

import (
	"sort"

	"snapk/internal/interval"
	"snapk/internal/tuple"
)

// This file implements the timeslice operator τ_T (plan node WindowP):
// clipping every row's validity interval to a window T and dropping the
// rows that do not overlap it. The materializing form (ClipWindow), the
// streaming form (NewWindowIter) and the zone-map scan prune
// (PruneWindowScan) all share the same clip-or-drop semantics; pruning
// is a pure access-path optimization layered underneath.

// clipRow returns row with its validity interval replaced by iv. When
// the interval is unchanged the input row is returned as-is; otherwise a
// fresh row is carved from a — stored rows are immutable engine-wide, so
// the clip must never write through the input's backing array.
func clipRow(a *rowArena, row tuple.Tuple, iv interval.Interval) tuple.Tuple {
	n := len(row)
	if row[n-2].AsInt() == iv.Begin && row[n-1].AsInt() == iv.End {
		return row
	}
	out := a.row(n)
	copy(out, row[:n-2])
	out[n-2] = tuple.Int(iv.Begin)
	out[n-1] = tuple.Int(iv.End)
	return out
}

// ClipWindow materializes τ_T over t: rows overlapping T survive with
// their intervals intersected with T, everything else is dropped. An
// invalid T clips everything (empty result) — "no window" is expressed
// by not applying the operator at all. Clipping maps begin to
// max(begin, T.Begin), which is monotone, so a begin-sorted input stays
// begin-sorted and the metadata records it.
func ClipWindow(t *Table, T interval.Interval) *Table {
	out := &Table{Schema: t.Schema}
	var arena rowArena
	for _, row := range t.Rows {
		iv, ok := rowInterval(row).Intersect(T)
		if !ok {
			continue
		}
		out.Rows = append(out.Rows, clipRow(&arena, row, iv))
	}
	if t.BeginSorted() {
		out.meta.sorted = propTrue
		if n := len(out.Rows); n > 0 {
			out.meta.lastBegin = rowInterval(out.Rows[n-1]).Begin
		}
	}
	return out
}

// windowIter streams τ_T over its input — the pipelined form of
// ClipWindow, shaped like filterIter. The rows it clips are carved from
// its arena: they share slabs but never alias, like a sweep's output.
type windowIter struct {
	in    RowIter
	cur   batchCursor
	t     interval.Interval
	arena rowArena
}

// NewWindowIter returns the streaming form of τ_T over in. It takes
// ownership of in; the caller only closes the returned iterator.
func NewWindowIter(in RowIter, T interval.Interval) RowIter {
	return &windowIter{in: in, cur: batchCursor{in: in}, t: T}
}

func (it *windowIter) Schema() tuple.Schema { return it.in.Schema() }

// NextBatch clips whole child chunks with a plain range loop, emitting
// as soon as one chunk yields any surviving rows (a ragged batch is
// legal anywhere in the stream). A clip keeps the data columns, so a
// surviving row keeps its key code.
func (it *windowIter) NextBatch(out *RowBatch) bool {
	out.Reset()
	for out.Len() == 0 {
		rows, codes, ok := it.cur.nextCodedChunk(out.Cap())
		if !ok {
			break
		}
		for j, row := range rows {
			if iv, over := rowInterval(row).Intersect(it.t); over {
				out.Append(clipRow(&it.arena, row, iv))
				if codes != nil {
					out.Codes = append(out.Codes, codes[j])
				}
			}
		}
	}
	return out.Len() > 0
}

func (it *windowIter) Close() { it.in.Close() }

// Err delegates the terminal error to the input stream.
func (it *windowIter) Err() error { return it.in.Err() }

// PruneWindowScan is the zone-map check for a windowed scan of a stored
// table: it reports how much of t a τ_T directly above the scan can
// possibly keep. skip means the whole scan is provably empty under T
// (invalid window, empty table, or the table's endpoint envelope is
// disjoint from T). Otherwise hi is the number of leading rows worth
// scanning: for a begin-sorted table every row at index ≥ hi has
// begin ≥ T.End and cannot overlap T, so the scan stops there; for an
// unsorted table hi is len(t.Rows) (no prefix bound, envelope check
// only). The check is a pure optimization — scanning past hi only
// yields rows the window drops anyway.
func PruneWindowScan(t *Table, T interval.Interval) (hi int, skip bool) {
	if !T.Valid() || len(t.Rows) == 0 {
		return 0, true
	}
	if env, ok := t.EndpointBounds(); ok {
		if _, over := env.Intersect(T); !over {
			return 0, true
		}
	}
	if !t.BeginSorted() {
		return len(t.Rows), false
	}
	hi = sort.Search(len(t.Rows), func(i int) bool {
		return rowInterval(t.Rows[i]).Begin >= T.End
	})
	if hi == 0 {
		return 0, true
	}
	return hi, false
}

// Prefix returns a view of the first n rows sharing t's backing slice —
// the scan range PruneWindowScan selects. Rows are immutable engine-wide
// so the shared backing is safe; a prefix of a begin-sorted table stays
// begin-sorted and the metadata carries that over.
func (t *Table) Prefix(n int) *Table {
	if n >= len(t.Rows) {
		return t
	}
	out := &Table{Schema: t.Schema, Rows: t.Rows[:n:n]}
	if t.BeginSorted() {
		out.meta.sorted = propTrue
		if n > 0 {
			out.meta.lastBegin = rowInterval(out.Rows[n-1]).Begin
		}
	}
	return out
}
