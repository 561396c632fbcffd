package engine

import (
	"fmt"
	"sort"

	"snapk/internal/interval"
	"snapk/internal/tuple"
)

// This file implements the sort-aware streaming form of the temporal
// difference (the REWR pattern N_SCH(Q1)(R1,R2) − N_SCH(Q2)(R2,R1) of
// Fig 4, fused with the §9 pre-aggregated counts — the same semantics
// as the blocking TemporalDiff) and, as its one-input form, the
// streaming coalesce (Def 8.2): C(R) = R ∸ ∅. Both inputs must arrive
// ordered by ascending interval begin, the iterator merges them into
// one event sweep, and per value-equivalent group it keeps only the
// open interval ends plus two counters — O(open intervals + active
// groups) state — instead of materializing either input. Once the
// merged sweep position passes a time point, no later row of either
// side can contribute an event before it, so segments up to that point
// are final and groups whose intervals are all closed are evicted. Like
// the blocking form it closes a segment only where the monus
// multiplicity changes, so its output is already the unique coalesced
// encoding.
//
// The input-order precondition is the executor's responsibility (it
// streams the difference only when BeginOrder calls both children
// ordered); violations panic so an order-rule bug is loud instead of
// silently wrong.

// diffGroup is the per-value-equivalent-group sweep state of the
// streaming difference: the pending interval ends not yet passed by the
// sweep (each carrying the signed multiplicity delta to apply), the
// committed left-minus-right count through the last committed event,
// and the uncommitted delta accumulated at curT. Deltas at one instant
// fold into one event, so an interval ending exactly where another
// begins never splits, and an event closes the open segment only when
// it changes the monus max(0, count) — an endpoint that leaves the
// monus unchanged (a zero-net instant, or a change among negative
// counts) does not split. Without a right input the count never goes
// negative and every nonzero delta changes it: the coalesce.
type diffGroup struct {
	key      string
	data     tuple.Tuple    // group-owned copy of the representative's data columns
	ends     minHeap[int64] // pending end events; payload = signed delta to apply
	count    int64          // committed left − right multiplicity
	segStart interval.Time  // where the monus last changed
	curT     interval.Time
	curDelta int64
	seq      int // first-seen order, for a deterministic end-of-input flush
	// reg/regT: the group's single live registration in the iterator's
	// expiry heap (the global-sweep eviction machinery).
	reg  bool
	regT interval.Time
}

// nextTime reports when the group next needs the sweep's attention;
// ok=false means fully closed and committed: evictable. Every begin
// delta has a matching end delta in the ends heap, so a group with no
// pending end, no uncommitted delta and a zero count can never emit
// again.
func (g *diffGroup) nextTime() (interval.Time, bool) {
	if g.ends.len() > 0 {
		return g.ends.min(), true
	}
	if g.curDelta != 0 || g.count != 0 {
		return g.curT, true // pending uncommitted delta with no open end left
	}
	return 0, false
}

// commit folds the delta accumulated at curT into the count. When that
// changes the monus max(0, count), the segment [segStart, curT) is
// finished — emitted with its multiplicity if positive — and the next
// one starts at curT; otherwise the open segment simply continues.
func (g *diffGroup) commit(emit func(data tuple.Tuple, iv interval.Interval, mult int64)) {
	if g.curDelta == 0 {
		return
	}
	next := g.count + g.curDelta
	if max(next, 0) != max(g.count, 0) {
		if g.count > 0 && g.curT > g.segStart {
			emit(g.data, interval.New(g.segStart, g.curT), g.count)
		}
		g.segStart = g.curT
	}
	g.count = next
	g.curDelta = 0
}

// advance moves the group's sweep position to t, committing every
// pending end event strictly before it and folding ends at t into the
// uncommitted delta (a same-instant begin may still arrive and belongs
// to the same event).
func (g *diffGroup) advance(t interval.Time, emit func(tuple.Tuple, interval.Interval, int64)) {
	for g.ends.len() > 0 && g.ends.min() <= t {
		et := g.ends.min()
		if et > g.curT {
			g.commit(emit)
			g.curT = et
		}
		for g.ends.len() > 0 && g.ends.min() == et {
			g.curDelta += g.ends.pop().v
		}
	}
	if t > g.curT {
		g.commit(emit)
		g.curT = t
	}
}

// flush drains every remaining pending end at end of input — with no
// time bound, so arbitrarily late interval ends are still emitted — and
// commits the final segment.
func (g *diffGroup) flush(emit func(tuple.Tuple, interval.Interval, int64)) {
	for g.ends.len() > 0 {
		et := g.ends.min()
		if et > g.curT {
			g.commit(emit)
			g.curT = et
		}
		for g.ends.len() > 0 && g.ends.min() == et {
			g.curDelta += g.ends.pop().v
		}
	}
	g.commit(emit)
}

// streamDiffIter is the streaming ℕ-monus difference over two
// begin-sorted inputs. It merges the two streams by ascending interval
// begin (+1 events from the left input, −1 from the right), sweeps each
// value-equivalent group's endpoints in time order, and emits every
// maximal segment of constant multiplicity max(0, |left| − |right|) —
// the same multiset the blocking TemporalDiff produces, without
// materializing either input. The expiry heap wakes each group when the
// merged sweep position passes its next event; fully closed groups are
// evicted from the state map. With r == nil it is the streaming
// coalesce: rOk stays false and every row comes from l.
type streamDiffIter struct {
	l, r       RowIter
	lcur, rcur batchCursor
	n          int // data arity
	groups     map[string]*diffGroup
	expiry     minHeap[*diffGroup] // group wake-ups keyed by next event time
	nextSeq    int
	queue      []tuple.Tuple
	qi         int
	arena      rowArena     // output rows, carved in growing slabs
	free       []*diffGroup // evicted groups, recycled with their buffers
	// one-row lookahead per input, filled on the first pull
	lRow, rRow tuple.Tuple
	lOk, rOk   bool
	primed     bool
	drained    bool
	scratch    []byte // reusable group-key buffer (one key string per distinct group, not per row)
	// peak sweep state, reported through MaxState for EXPLAIN ANALYZE.
	maxGroups int
	maxOpen   int
}

// MaxState reports the observed peak sweep state (live groups plus the
// largest per-group open-end heap) — the engine.StateSizer hook.
func (it *streamDiffIter) MaxState() int64 {
	return int64(it.maxGroups + it.maxOpen)
}

// NewStreamDiffIter returns the streaming temporal difference l − r,
// taking ownership of both inputs. Both must be ordered by ascending
// interval begin (violations panic) and union-compatible; on an arity
// mismatch both children are closed and an error is returned, matching
// the other constructors' contract.
func NewStreamDiffIter(l, r RowIter) (RowIter, error) {
	l = CheckOrdered("streaming difference left input", l)
	r = CheckOrdered("streaming difference right input", r)
	if l.Schema().Arity() != r.Schema().Arity() {
		arities := [2]int{l.Schema().Arity(), r.Schema().Arity()}
		l.Close()
		r.Close()
		return nil, fmt.Errorf("engine: difference-incompatible arities %d and %d", arities[0], arities[1])
	}
	return newStreamDiff(l, r), nil
}

// NewStreamCoalesceIter returns the streaming coalesce over in, taking
// ownership of it: the streaming difference with no right input. The
// input must be ordered by ascending interval begin; violations panic.
func NewStreamCoalesceIter(in RowIter) RowIter {
	return newStreamDiff(CheckOrdered("streaming coalesce input", in), nil)
}

func newStreamDiff(l, r RowIter) *streamDiffIter {
	return &streamDiffIter{
		l:      l,
		r:      r,
		lcur:   batchCursor{in: l},
		rcur:   batchCursor{in: r},
		n:      l.Schema().Arity() - 2,
		groups: make(map[string]*diffGroup),
	}
}

func (it *streamDiffIter) Schema() tuple.Schema { return it.l.Schema() }

// track (re-)registers g in the expiry heap at its next event time, or
// evicts it when fully closed. Each group holds at most one live
// registration, so the heap stays O(active groups).
func (it *streamDiffIter) track(g *diffGroup) {
	t, ok := g.nextTime()
	if !ok {
		delete(it.groups, g.key)
		it.recycle(g)
		return
	}
	g.reg, g.regT = true, t
	it.expiry.push(t, g)
}

// recycle puts an evicted group on the free list, keeping its data
// buffer and its ends heap array for the next new group. It is safe
// because an evicted group has no live expiry registration: every
// registration is popped before the group is re-tracked, and eviction
// happens only there. The list never outgrows the peak live groups,
// since a group is allocated only when the list is empty.
func (it *streamDiffIter) recycle(g *diffGroup) {
	checkRecycle(g)
	it.free = append(it.free, g)
}

// newGroup returns the state of a group first seen at begin, recycled
// from the free list when one is there. It copies the representative's
// data columns into memory the group owns: a sub-slice of the input row
// would pin the row's whole slab for as long as the group lives.
func (it *streamDiffIter) newGroup(key string, data tuple.Tuple, begin interval.Time) *diffGroup {
	var g *diffGroup
	if n := len(it.free); n > 0 {
		g, it.free = it.free[n-1], it.free[:n-1]
	} else {
		g = new(diffGroup)
	}
	*g = diffGroup{
		key:      key,
		data:     append(g.data[:0], data...),
		ends:     minHeap[int64]{items: g.ends.items[:0]},
		segStart: begin,
		curT:     begin,
		seq:      it.nextSeq,
	}
	it.nextSeq++
	return g
}

// retire advances every group whose registered wake-up lies strictly
// before the merged sweep position b. Strictly before: events at
// exactly b must stay uncommitted, because a same-instant begin from
// either input may still arrive and belongs to the same boundary.
func (it *streamDiffIter) retire(b interval.Time) {
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

// enqueue appends mult copies of (data, iv) to the output queue.
func (it *streamDiffIter) enqueue(data tuple.Tuple, iv interval.Interval, mult int64) {
	it.queue = appendSegment(it.queue, &it.arena, data, iv, mult)
}

// fill runs the merged sweep until the output queue holds at least one
// emitted row or both inputs are fully drained, reporting whether rows
// are available. The one-row lookahead per side is pulled through the
// per-side batch cursors, capacity rows per read.
func (it *streamDiffIter) fill(capacity int) bool {
	for {
		if it.qi < len(it.queue) {
			return true
		}
		it.queue = it.queue[:0]
		it.qi = 0
		if it.drained {
			return false
		}
		if !it.primed {
			it.lRow, it.lOk = it.lcur.next(capacity)
			if it.r != nil {
				it.rRow, it.rOk = it.rcur.next(capacity)
			}
			it.primed = true
		}
		// Merge step: take the earlier begin (ties go left — immaterial
		// for the result, since same-instant deltas fold into one event).
		var row tuple.Tuple
		var sign int64
		switch {
		case it.lOk && (!it.rOk || rowInterval(it.lRow).Begin <= rowInterval(it.rRow).Begin):
			row, sign = it.lRow, 1
			it.lRow, it.lOk = it.lcur.next(capacity)
			if it.lOk && rowInterval(it.lRow).Begin < rowInterval(row).Begin {
				panic(fmt.Sprintf("engine: streaming difference left input not begin-sorted (begin %d after %d); planner must stream only over ordered input", rowInterval(it.lRow).Begin, rowInterval(row).Begin))
			}
		case it.rOk:
			row, sign = it.rRow, -1
			it.rRow, it.rOk = it.rcur.next(capacity)
			if it.rOk && rowInterval(it.rRow).Begin < rowInterval(row).Begin {
				panic(fmt.Sprintf("engine: streaming difference right input not begin-sorted (begin %d after %d); planner must stream only over ordered input", rowInterval(it.rRow).Begin, rowInterval(row).Begin))
			}
		default:
			// End of both inputs: flush the remaining live groups in
			// first-seen order, so repeated runs stream identical row
			// order (the map holds only the live groups, so the flush
			// sorts O(active groups), not O(all groups ever seen)).
			live := make([]*diffGroup, 0, len(it.groups))
			for _, g := range it.groups {
				live = append(live, g)
			}
			sort.Slice(live, func(i, j int) bool { return live[i].seq < live[j].seq })
			for _, g := range live {
				g.flush(it.enqueue)
			}
			it.drained = true
			continue
		}
		iv := rowInterval(row)
		it.retire(iv.Begin)
		data := row[:it.n]
		it.scratch = data.AppendKey(it.scratch[:0], nil)
		g, ok := it.groups[string(it.scratch)]
		if !ok {
			// The group representative is the first row seen in merge
			// order; a value-equivalent row from the other side may have
			// a different numeric kind (Int vs integral Float), which
			// Equal and Key treat as the same value — exactly as the
			// blocking sweep's first-seen representative does.
			g = it.newGroup(string(it.scratch), data, iv.Begin)
			it.groups[g.key] = g
		}
		g.advance(iv.Begin, it.enqueue)
		g.curDelta += sign
		g.ends.push(iv.End, -sign)
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

func (it *streamDiffIter) NextBatch(out *RowBatch) bool {
	return copyOut(out, &it.queue, &it.qi, it.fill)
}

func (it *streamDiffIter) Close() {
	it.l.Close()
	if it.r != nil {
		it.r.Close()
	}
}

// Err reports the first terminal error of either input. A failed input
// looks like end of input to the sweep (it flushes and emits what it
// has); the reported error is what tells the root consumer to discard
// that output.
func (it *streamDiffIter) Err() error {
	if it.r == nil {
		return it.l.Err()
	}
	return FirstErr(it.l.Err(), it.r.Err())
}
