package engine

import (
	"cmp"
	"fmt"
	"slices"

	"snapk/internal/algebra"
	"snapk/internal/interval"
	"snapk/internal/tuple"
)

// This file implements the sort-aware streaming form of the
// pre-aggregated split of §9, and the heap and output plumbing shared
// with the streaming difference and coalesce (streamdiff.go). The
// streaming sweeps consume input ordered by ascending interval begin —
// a begin-sorted base table under order-preserving operators — and keep
// only O(active groups + open intervals) state instead of materializing
// the whole input: once the sweep position passes a time point, no later
// row can contribute an event before it, so segments up to that point
// are final and can be emitted.
//
// The input-order precondition is the executor's responsibility (it
// runs a streaming sweep only over input BeginOrder calls ordered); the
// iterators verify it and panic on violation, which turns an order-rule
// bug into a loud failure instead of silently wrong results.

// minHeap is the one binary min-heap behind every streaming sweep —
// the difference's end-event queue, and the aggregation's pending row
// exits and group expiry registry — so the sift logic cannot drift
// between them. Elements carry their sort key inline (hItem), so every
// sift comparison is a direct int64 compare: no closure or method
// indirection on the per-row hot path.
type minHeap[T any] struct {
	items []hItem[T]
}

// hItem is one heap element: the sort key and its payload (struct{}
// for bare endpoint heaps).
type hItem[T any] struct {
	t interval.Time
	v T
}

func (h *minHeap[T]) len() int           { return len(h.items) }
func (h *minHeap[T]) min() interval.Time { return h.items[0].t }

func (h *minHeap[T]) push(t interval.Time, v T) {
	h.items = append(h.items, hItem[T]{t: t, v: v})
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.items[p].t <= h.items[i].t {
			break
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
}

func (h *minHeap[T]) pop() hItem[T] {
	top := h.items[0]
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	h.items[n] = hItem[T]{} // release any row reference for the GC
	h.items = h.items[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && h.items[l].t < h.items[s].t {
			s = l
		}
		if r < n && h.items[r].t < h.items[s].t {
			s = r
		}
		if s == i {
			break
		}
		h.items[i], h.items[s] = h.items[s], h.items[i]
		i = s
	}
	return top
}

// copyOut resets out and fills it with up to out.Cap() rows of a sweep's
// output queue, from position *qi on, calling fill whenever the queue
// runs dry; fill reports whether rows are available and may reset the
// queue. Copying (rather than handing out the queue slice) keeps the
// queue's backing array private, so its reuse on the next fill cannot
// alias a delivered batch. It is the NextBatch of every streaming sweep.
func copyOut(out *RowBatch, queue *[]tuple.Tuple, qi *int, fill func(capacity int) bool) bool {
	out.Reset()
	limit := out.Cap()
	for out.Len() < limit && fill(limit) {
		n := min(len(*queue)-*qi, limit-out.Len())
		out.Rows = append(out.Rows, (*queue)[*qi:*qi+n]...)
		*qi += n
	}
	return out.Len() > 0
}

// aggGroup is the per-group state of the streaming pre-aggregated
// split: incremental accumulators, the rows whose intervals are still
// open at the sweep position (pending row exits keyed by interval end),
// and the group's last output row, held back so an adjacent segment
// with equal aggregates can extend it (aggSegment).
type aggGroup struct {
	key      string
	group    tuple.Tuple
	pending  minHeap[tuple.Tuple]
	sweepers []*aggSweeper
	alive    int64
	segStart interval.Time
	started  bool
	held     tuple.Tuple
	seq      int // first-seen order, for a deterministic end-of-input flush
	// reg/regT: the group's single live registration in the iterator's
	// expiry heap (grouped aggregation only; the global group never
	// registers, since its gap rows need a continuous segStart).
	reg  bool
	regT interval.Time
}

// streamAggIter is the streaming form of the §9 pre-aggregated split:
// one incremental endpoint sweep per group over begin-sorted input,
// without materializing the input. Aggregates are evaluated at every
// endpoint of the group (the split semantics N_G, Def 8.3), exactly as
// in the blocking aggregateSweep, and adjacent segments with equal
// results leave as one row, so the output is the unique coalesced
// encoding. A group's held row is released on a different value, on a
// gap, when the group is evicted, and at end of input.
type streamAggIter struct {
	in      RowIter
	cur     batchCursor
	prep    *aggPrep
	aggs    []algebra.AggSpec
	dom     interval.Domain
	global  bool
	groups  map[string]*aggGroup
	expiry  minHeap[*aggGroup] // group wake-ups keyed by earliest pending exit
	queue   []tuple.Tuple
	qi      int
	last    interval.Time
	seen    bool
	drained bool
	scratch []byte // reusable group-key buffer (one key string per distinct group, not per row)
	nextSeq int
	// peak sweep state, reported through MaxState for EXPLAIN ANALYZE.
	maxGroups int
	maxOpen   int
}

// MaxState reports the observed peak sweep state (live groups plus the
// largest per-group pending-exit heap) — the engine.StateSizer hook.
func (it *streamAggIter) MaxState() int64 {
	return int64(it.maxGroups + it.maxOpen)
}

// NewStreamAggIter returns the streaming pre-aggregated split over in,
// taking ownership of it. The input must be ordered by ascending
// interval begin; violations panic. On a prep error the child is
// closed, matching the other constructors' contract.
func NewStreamAggIter(in RowIter, groupBy []string, aggs []algebra.AggSpec, dom interval.Domain) (RowIter, error) {
	in = CheckOrdered("streaming aggregation input", in)
	data := tuple.Schema{Cols: in.Schema().Cols[:in.Schema().Arity()-2]}
	prep, err := prepareAggregate(data, groupBy, aggs)
	if err != nil {
		in.Close()
		return nil, err
	}
	it := &streamAggIter{
		in:     in,
		cur:    batchCursor{in: in},
		prep:   prep,
		aggs:   aggs,
		dom:    dom,
		global: len(groupBy) == 0,
		groups: make(map[string]*aggGroup),
	}
	if it.global {
		// Global aggregation sweeps the whole domain (the Fig 4 union
		// with {(null, Tmin, Tmax)}), so gaps produce neutral rows even
		// with zero input rows.
		g := it.newGroup(tuple.Tuple{}, "")
		g.started = true
		g.segStart = dom.Min
	}
	return it, nil
}

// newGroup registers a new sweep group under key, the canonical
// AppendKey encoding of group (the empty string for the global group).
func (it *streamAggIter) newGroup(group tuple.Tuple, key string) *aggGroup {
	g := &aggGroup{key: key, group: group, sweepers: make([]*aggSweeper, len(it.aggs)), seq: it.nextSeq}
	it.nextSeq++
	for i, a := range it.aggs {
		g.sweepers[i] = newAggSweeper(a.Fn)
	}
	it.groups[g.key] = g
	return g
}

// track (re-)registers a grouped aggregation group at its earliest
// pending exit, or evicts it when no intervals remain open: segments of
// one group are bounded by its own endpoints only, so a group with an
// empty pending heap can never emit again until a new row arrives (and
// grouped aggregation emits nothing over gaps). Global aggregation
// never registers.
func (it *streamAggIter) track(g *aggGroup) {
	if it.global {
		return
	}
	if g.pending.len() == 0 {
		it.release(g)
		delete(it.groups, g.key)
		return
	}
	g.reg, g.regT = true, g.pending.min()
	it.expiry.push(g.regT, g)
}

// release enqueues g's held output row, if any: nothing can extend it
// any more.
func (it *streamAggIter) release(g *aggGroup) {
	if g.held != nil {
		it.queue = append(it.queue, g.held)
		g.held = nil
	}
}

// retire drains every group whose registered exit lies strictly before
// the sweep position b — emitting segments bounded by the group's own
// endpoints, never at b itself — and evicts groups left with no open
// intervals.
func (it *streamAggIter) retire(b interval.Time) {
	for it.expiry.len() > 0 && it.expiry.min() < b {
		e := it.expiry.pop()
		if !e.v.reg || e.v.regT != e.t {
			continue // superseded registration
		}
		e.v.reg = false
		for e.v.pending.len() > 0 && e.v.pending.min() < b {
			et := e.v.pending.min()
			it.boundary(e.v, et)
			it.exitAt(e.v, et)
		}
		it.track(e.v)
	}
}

func (it *streamAggIter) Schema() tuple.Schema { return it.prep.schema }

// boundary closes the segment [segStart, t) of g: it extends g's held
// row with the current accumulator values, or releases the held row and
// holds a new one. Empty segments of grouped aggregation (alive == 0)
// produce nothing and release the held row; global aggregation emits
// neutral rows over gaps.
func (it *streamAggIter) boundary(g *aggGroup, t interval.Time) {
	if !g.started {
		g.started = true
		g.segStart = t
		return
	}
	if t <= g.segStart {
		return
	}
	if g.alive > 0 || it.global {
		if row := aggSegment(g.held, g.group, g.sweepers, interval.Interval{Begin: g.segStart, End: t}); row != nil {
			it.release(g)
			g.held = row
		}
	} else {
		it.release(g)
	}
	g.segStart = t
}

// exitAt pops every pending exit of g at time et and removes those rows
// from the accumulators.
func (it *streamAggIter) exitAt(g *aggGroup, et interval.Time) {
	for g.pending.len() > 0 && g.pending.min() == et {
		ev := g.pending.pop()
		for j, sw := range g.sweepers {
			var arg tuple.Value
			if it.prep.argIdx[j] >= 0 {
				arg = ev.v[it.prep.argIdx[j]]
			}
			sw.update(arg, false)
		}
		g.alive--
	}
}

// advance moves g's sweep position to t, emitting a boundary at every
// pending exit before t and at t itself.
func (it *streamAggIter) advance(g *aggGroup, t interval.Time) {
	for g.pending.len() > 0 && g.pending.min() <= t {
		et := g.pending.min()
		it.boundary(g, et)
		it.exitAt(g, et)
	}
	it.boundary(g, t)
}

// fill runs the sweep until the output queue holds at least one emitted
// row or the stream is fully drained, reporting whether rows are
// available; capacity sizes the cursor's reads of the input.
func (it *streamAggIter) fill(capacity int) bool {
	for {
		if it.qi < len(it.queue) {
			return true
		}
		it.queue = it.queue[:0]
		it.qi = 0
		if it.drained {
			return false
		}
		row, ok := it.cur.next(capacity)
		if !ok {
			// Flush the live groups in first-seen order, not map order, so
			// repeated runs stream identical row order.
			live := make([]*aggGroup, 0, len(it.groups))
			for _, g := range it.groups {
				live = append(live, g)
			}
			slices.SortFunc(live, func(a, b *aggGroup) int { return cmp.Compare(a.seq, b.seq) })
			for _, g := range live {
				// Drain the remaining exits; then global aggregation closes
				// the final segment at the domain end.
				for g.pending.len() > 0 {
					et := g.pending.min()
					it.boundary(g, et)
					it.exitAt(g, et)
				}
				if it.global {
					it.boundary(g, it.dom.Max)
				}
				it.release(g)
			}
			it.drained = true
			continue
		}
		iv := rowInterval(row)
		if it.seen && iv.Begin < it.last {
			panic(fmt.Sprintf("engine: streaming aggregation input not begin-sorted (begin %d after %d); planner must stream only over ordered input", iv.Begin, it.last))
		}
		it.last, it.seen = iv.Begin, true
		it.retire(iv.Begin)
		it.scratch = row.AppendKey(it.scratch[:0], it.prep.groupIdx)
		g, ok2 := it.groups[string(it.scratch)]
		if !ok2 {
			g = it.newGroup(row.Project(it.prep.groupIdx), string(it.scratch))
		}
		it.advance(g, iv.Begin)
		for j, sw := range g.sweepers {
			var arg tuple.Value
			if it.prep.argIdx[j] >= 0 {
				arg = row[it.prep.argIdx[j]]
			}
			sw.update(arg, true)
		}
		g.alive++
		g.pending.push(iv.End, row)
		if n := len(it.groups); n > it.maxGroups {
			it.maxGroups = n
		}
		if n := g.pending.len(); n > it.maxOpen {
			it.maxOpen = n
		}
		if !g.reg {
			it.track(g)
		}
	}
}

func (it *streamAggIter) NextBatch(out *RowBatch) bool {
	return copyOut(out, &it.queue, &it.qi, it.fill)
}

func (it *streamAggIter) Close() { it.in.Close() }

// Err delegates the terminal error to the input stream; see
// streamDiffIter.Err for why the sweep's flushed output is only valid
// when this reports nil.
func (it *streamAggIter) Err() error { return it.in.Err() }
