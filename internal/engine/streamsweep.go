package engine

import (
	"fmt"

	"snapk/internal/algebra"
	"snapk/internal/interval"
	"snapk/internal/tuple"
)

// This file implements the sort-aware streaming forms of the sweep
// operators (coalesce, Def 8.2, and the pre-aggregated split of §9).
// Both consume input ordered by ascending interval begin — established
// by a begin-sorted base table or the SortP enforcer — and keep only
// O(active groups + open intervals) state instead of materializing the
// whole input: once the sweep position passes a time point, no later
// row can contribute an event before it, so segments up to that point
// are final and can be emitted.
//
// The input-order precondition is the planner's responsibility (package
// rewrite inserts SortP when the order is not already available); the
// iterators verify it and panic on violation, which turns a planner bug
// into a loud failure instead of silently wrong results.

// minHeap is the one binary min-heap behind both streaming sweeps —
// pending interval ends, pending row exits and the group expiry
// registries — so the sift logic cannot drift between them. Elements
// carry their sort key inline (hItem), so every sift comparison is a
// direct int64 compare: no closure or method indirection on the
// per-row hot path.
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

// coalesceGroup is the per-value-equivalent-group sweep state of the
// streaming coalesce: the pending interval ends not yet passed by the
// sweep, the multiplicity committed through curT, and the uncommitted
// multiplicity change accumulated at curT. Deltas at one time point are
// only committed when the sweep moves strictly past it, so cancelling
// events at the same instant (an interval ending exactly where another
// begins) never produce a spurious segment boundary.
type coalesceGroup struct {
	key      string
	data     tuple.Tuple
	ends     minHeap[struct{}] // bare endpoint heap: keys only
	count    int64
	segStart interval.Time
	curT     interval.Time
	curDelta int64
	// reg/regT: the group's single live registration in the iterator's
	// expiry heap (the global-sweep eviction machinery).
	reg  bool
	regT interval.Time
}

// nextTime reports when the group next needs the sweep's attention.
// ok=false means the group is fully closed and committed: evictable.
// The earliest open end is preferred over the uncommitted delta at
// curT: advance() commits pending deltas on the way to any later wake
// time, so waking at the end event is equally correct — and it avoids
// registering a wake at the current sweep position on EVERY row
// arrival, which the very next row would pop again (two expiry-heap
// operations per input row instead of per end event).
func (g *coalesceGroup) nextTime() (interval.Time, bool) {
	if g.ends.len() > 0 {
		return g.ends.min(), true
	}
	if g.curDelta != 0 || g.count != 0 {
		return g.curT, true // pending delta with no open end left
	}
	return 0, false
}

// commit applies the pending delta at curT, emitting the finished
// segment [segStart, curT) if the multiplicity actually changes.
func (g *coalesceGroup) commit(emit func(data tuple.Tuple, iv interval.Interval, mult int64)) {
	if g.curDelta == 0 {
		return
	}
	if g.count > 0 && g.curT > g.segStart {
		emit(g.data, interval.New(g.segStart, g.curT), g.count)
	}
	g.count += g.curDelta
	g.curDelta = 0
	g.segStart = g.curT
}

// advance moves the group's sweep position to t, committing every
// pending end event strictly before it and folding ends at t into the
// current delta.
func (g *coalesceGroup) advance(t interval.Time, emit func(tuple.Tuple, interval.Interval, int64)) {
	for g.ends.len() > 0 && g.ends.min() <= t {
		et := g.ends.min()
		if et > g.curT {
			g.commit(emit)
			g.curT = et
		}
		for g.ends.len() > 0 && g.ends.min() == et {
			g.ends.pop()
			g.curDelta--
		}
	}
	if t > g.curT {
		g.commit(emit)
		g.curT = t
	}
}

// flush drains every remaining pending end at end of input — with no
// time bound, so arbitrarily late interval ends are still emitted —
// and commits the final segment.
func (g *coalesceGroup) flush(emit func(tuple.Tuple, interval.Interval, int64)) {
	for g.ends.len() > 0 {
		et := g.ends.min()
		if et > g.curT {
			g.commit(emit)
			g.curT = et
		}
		for g.ends.len() > 0 && g.ends.min() == et {
			g.ends.pop()
			g.curDelta--
		}
	}
	g.commit(emit)
}

// streamCoalesceIter is the streaming coalesce operator C (Def 8.2)
// over begin-sorted input. It produces the same multiset as the
// blocking Coalesce — maximal intervals of constant multiplicity, one
// row per multiplicity unit — but holds only O(active groups + open
// intervals) state: the expiry heap wakes each group when the global
// sweep position passes its next event, and groups whose intervals are
// all closed and committed are evicted from the state map.
type streamCoalesceIter struct {
	in      RowIter
	cur     batchCursor
	n       int // data arity
	groups  map[string]*coalesceGroup
	expiry  minHeap[*coalesceGroup] // group wake-ups keyed by next event time
	queue   []tuple.Tuple
	qi      int
	last    interval.Time
	seen    bool
	drained bool
	scratch []byte // reusable group-key buffer (one key string per distinct group, not per row)
	// peak sweep state, reported through MaxState for EXPLAIN ANALYZE:
	// most live groups at once plus the largest single group's open-end
	// heap — the O(active groups + open intervals) bound, observed.
	maxGroups int
	maxOpen   int
}

// MaxState reports the observed peak sweep state (live groups plus the
// largest per-group open-interval heap) — the engine.StateSizer hook.
func (it *streamCoalesceIter) MaxState() int64 {
	return int64(it.maxGroups + it.maxOpen)
}

// NewStreamCoalesceIter returns the streaming coalesce over in, taking
// ownership of it. The input must be ordered by ascending interval
// begin; violations panic.
func NewStreamCoalesceIter(in RowIter) RowIter {
	in = CheckOrdered("streaming coalesce input", in)
	return &streamCoalesceIter{
		in:     in,
		cur:    batchCursor{in: in},
		n:      in.Schema().Arity() - 2,
		groups: make(map[string]*coalesceGroup),
	}
}

// track (re-)registers g in the expiry heap at its next event time, or
// evicts it when fully closed. Each group holds at most one live
// registration, so the heap stays O(active groups).
func (it *streamCoalesceIter) track(g *coalesceGroup) {
	t, ok := g.nextTime()
	if !ok {
		delete(it.groups, g.key)
		return
	}
	g.reg, g.regT = true, t
	it.expiry.push(t, g)
}

// retire advances every group whose registered wake-up time lies
// strictly before the sweep position b, emitting its finished segments
// and evicting it once fully closed. Strictly before: a group with an
// end at exactly b must stay live, because a same-instant begin for the
// same value may still arrive and cancel the boundary.
func (it *streamCoalesceIter) retire(b interval.Time) {
	for it.expiry.len() > 0 && it.expiry.min() < b {
		e := it.expiry.pop()
		if !e.v.reg || e.v.regT != e.t {
			continue // superseded registration
		}
		e.v.reg = false
		e.v.advance(b, it.enqueue)
		it.track(e.v)
	}
}

func (it *streamCoalesceIter) Schema() tuple.Schema { return it.in.Schema() }

// enqueue appends mult copies of (data, iv) to the output queue.
func (it *streamCoalesceIter) enqueue(data tuple.Tuple, iv interval.Interval, mult int64) {
	it.queue = appendSegment(it.queue, data, iv, mult)
}

// fill runs the sweep until the output queue holds at least one emitted
// row or the stream is fully drained, reporting whether rows are
// available; capacity sizes the cursor's reads of the input.
func (it *streamCoalesceIter) fill(capacity int) bool {
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
			// End of input: sweep every remaining live group past its
			// last pending end (order is immaterial — the output is a
			// multiset).
			for _, g := range it.groups {
				g.flush(it.enqueue)
			}
			it.drained = true
			continue
		}
		iv := rowInterval(row)
		if it.seen && iv.Begin < it.last {
			panic(fmt.Sprintf("engine: streaming coalesce input not begin-sorted (begin %d after %d); planner must insert a sort enforcer", iv.Begin, it.last))
		}
		it.last, it.seen = iv.Begin, true
		it.retire(iv.Begin)
		data := row[:it.n]
		it.scratch = data.AppendKey(it.scratch[:0], nil)
		g, ok2 := it.groups[string(it.scratch)]
		if !ok2 {
			key := string(it.scratch)
			//lint:ignore rowretain the group keeps a read-only view of the data columns; sweep producers never reuse yielded backing arrays
			g = &coalesceGroup{key: key, data: data, segStart: iv.Begin, curT: iv.Begin}
			it.groups[key] = g
		}
		g.advance(iv.Begin, it.enqueue)
		g.curDelta++
		g.ends.push(iv.End, struct{}{})
		if n := len(it.groups); n > it.maxGroups {
			it.maxGroups = n
		}
		if n := g.ends.len(); n > it.maxOpen {
			it.maxOpen = n
		}
		if !g.reg {
			it.track(g)
		}
	}
}

// NextBatch copies finished segments out of the sweep queue
// chunk-at-a-time. Copying (rather than handing out the queue slice) keeps the
// queue's backing array private, so its reuse on the next fill cannot
// alias a delivered batch.
func (it *streamCoalesceIter) NextBatch(out *RowBatch) bool {
	out.Reset()
	limit := out.Cap()
	for out.Len() < limit && it.fill(limit) {
		n := len(it.queue) - it.qi
		if r := limit - out.Len(); n > r {
			n = r
		}
		out.Rows = append(out.Rows, it.queue[it.qi:it.qi+n]...)
		it.qi += n
	}
	return out.Len() > 0
}

func (it *streamCoalesceIter) Close() { it.in.Close() }

// Err delegates the terminal error to the input stream. A failed input
// looks like end of input to the sweep (it flushes and emits what it
// has); the delegated error is what tells the root consumer to discard
// that output.
func (it *streamCoalesceIter) Err() error { return it.in.Err() }

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
	g := &aggGroup{key: key, group: group, sweepers: make([]*aggSweeper, len(it.aggs))}
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
			for _, g := range it.groups {
				// Drain the remaining exits; then global aggregation closes
				// the final segment at the domain end. (Map order is
				// immaterial — the output is a multiset.)
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
			panic(fmt.Sprintf("engine: streaming aggregation input not begin-sorted (begin %d after %d); planner must insert a sort enforcer", iv.Begin, it.last))
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

// NextBatch copies finished segments out of the sweep queue
// chunk-at-a-time; see streamCoalesceIter.NextBatch for the copy-out
// rationale.
func (it *streamAggIter) NextBatch(out *RowBatch) bool {
	out.Reset()
	limit := out.Cap()
	for out.Len() < limit && it.fill(limit) {
		n := len(it.queue) - it.qi
		if r := limit - out.Len(); n > r {
			n = r
		}
		out.Rows = append(out.Rows, it.queue[it.qi:it.qi+n]...)
		it.qi += n
	}
	return out.Len() > 0
}

func (it *streamAggIter) Close() { it.in.Close() }

// Err delegates the terminal error to the input stream; see
// streamCoalesceIter.Err for why the sweep's flushed output is only
// valid when this reports nil.
func (it *streamAggIter) Err() error { return it.in.Err() }
