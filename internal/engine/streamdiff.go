package engine

import (
	"cmp"
	"fmt"
	"slices"

	"snapk/internal/interval"
	"snapk/internal/tuple"
)

// This file implements the sort-aware streaming form of the temporal
// difference (the REWR pattern N_SCH(Q1)(R1,R2) − N_SCH(Q2)(R2,R1) of
// Fig 4, fused with the §9 pre-aggregated counts — the same semantics
// as the blocking TemporalDiff) and, as its one-input form, the
// streaming coalesce (Def 8.2): C(R) = R ∸ ∅. Both inputs must arrive
// ordered by ascending interval begin, and the iterator merges them
// into one event sweep. Its state is two structures:
//
//   - a hashed group table: value-equivalent groups are found by
//     tuple.HashKey through a map from hash to the first group of a
//     chain, and told apart within the chain by SameKey, column by
//     column. Group states sit in fixed-size pages that never move,
//     addressed by int32 and recycled through a free list of indexes;
//   - one end-event queue: a pointer-free min-heap of every queued
//     interval end, each naming its group and the signed delta it
//     applies.
//
// Begins apply as rows arrive and ends wait in the queue: once the
// merged sweep reaches b, no later row can contribute an event before
// b, so retire(b) makes everything before b final. State is O(open
// intervals + active groups), not the input. Like the blocking form the
// sweep closes a segment only where the monus multiplicity changes, so
// its output is already the unique coalesced encoding.
//
// The input-order precondition is the executor's responsibility (it
// streams the difference only when BeginOrder calls both children
// ordered); violations panic so an order-rule bug is loud instead of
// silently wrong.

// diffGroup is the sweep state of one value-equivalent group: the
// committed left-minus-right count through the last committed instant,
// and the uncommitted delta accumulated at curT. Deltas at one instant
// fold into one event, so an interval ending exactly where another
// begins never splits, and an event closes the open segment only when
// it changes the monus max(0, count) — an endpoint that leaves the
// monus unchanged (a zero-net instant, or a change among negative
// counts) does not split. Without a right input the count never goes
// negative and every nonzero delta changes it: the coalesce.
type diffGroup struct {
	data     tuple.Tuple // group-owned copy of the representative's data columns
	hash     uint64      // the group table key of data
	next     int32       // next group of the same hash chain, or -1
	open     int32       // the group's end events still queued
	count    int64       // committed left − right multiplicity
	curDelta int64
	segStart interval.Time // where the monus last changed
	curT     interval.Time
	seq      int // first-seen order, for a deterministic end-of-input commit
}

// endEvent is one queued interval end: the group it belongs to and the
// delta it applies (−1 for a left row, +1 for a right one).
type endEvent struct{ group, delta int32 }

// groupPageBits sizes the pages group states are kept in.
const (
	groupPageBits = 8
	groupPageSize = 1 << groupPageBits
)

// groupPage is one page of group states with the backing array of their
// data copies: neither moves once allocated, so a *diffGroup stays
// valid while the table grows.
type groupPage struct {
	groups [groupPageSize]diffGroup
	vals   tuple.Tuple
}

// streamDiffIter is the streaming ℕ-monus difference over two
// begin-sorted inputs. It merges the two streams by ascending interval
// begin (+1 events from the left input, −1 from the right), sweeps each
// value-equivalent group's endpoints in time order, and emits every
// maximal segment of constant multiplicity max(0, |left| − |right|) —
// the same multiset the blocking TemporalDiff produces, without
// materializing either input. With r == nil it is the streaming
// coalesce: rOk stays false and every row comes from l.
type streamDiffIter struct {
	l, r       RowIter
	lcur, rcur batchCursor
	n          int              // data arity
	table      map[uint64]int32 // group hash → first group of its chain
	pages      []*groupPage
	slots      int32   // group states handed out so far, live or free
	free       []int32 // evicted groups, reused with their data buffers
	live       int
	events     minHeap[endEvent] // the queued interval ends of every group
	closed     []int32           // groups retire left with no queued end
	hashMask   uint64            // all ones; tests clear bits to force collisions
	nextSeq    int
	queue      []tuple.Tuple
	qi         int
	arena      rowArena // output rows, carved in growing slabs
	// one-row lookahead per input, filled on the first pull
	lRow, rRow tuple.Tuple
	lOk, rOk   bool
	primed     bool
	drained    bool
	// peak sweep state, reported through MaxState.
	maxGroups int
	maxOpen   int
}

// MaxState reports the observed peak sweep state — live groups plus the
// largest number of ends one group had queued at once — the
// engine.StateSizer hook EXPLAIN ANALYZE reports and the memory
// governor charges.
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
		l:        l,
		r:        r,
		lcur:     batchCursor{in: l},
		rcur:     batchCursor{in: r},
		n:        l.Schema().Arity() - 2,
		table:    make(map[uint64]int32),
		hashMask: ^uint64(0),
	}
}

func (it *streamDiffIter) Schema() tuple.Schema { return it.l.Schema() }

// group returns the state at index i.
func (it *streamDiffIter) group(i int32) *diffGroup {
	return &it.pages[i>>groupPageBits].groups[i&(groupPageSize-1)]
}

// lookup returns the group of hash h whose data is column by column
// SameKey to data, or nil.
func (it *streamDiffIter) lookup(h uint64, data tuple.Tuple) (int32, *diffGroup) {
	i, ok := it.table[h]
	for ok && i >= 0 {
		g := it.group(i)
		if slices.EqualFunc(g.data, data, tuple.SameKey) {
			return i, g
		}
		i = g.next
	}
	return -1, nil
}

// newGroup links the state of a group first seen at begin into the
// table, on a free index when there is one. It copies the
// representative's data columns into memory the group owns: a sub-slice
// of the input row would pin the row's whole slab for as long as the
// group lives.
func (it *streamDiffIter) newGroup(h uint64, data tuple.Tuple, begin interval.Time) (int32, *diffGroup) {
	var i int32
	if n := len(it.free); n > 0 {
		i, it.free = it.free[n-1], it.free[:n-1]
	} else {
		i = it.slots
		it.slots++
		if int(i>>groupPageBits) == len(it.pages) {
			p := &groupPage{vals: make(tuple.Tuple, groupPageSize*it.n)}
			for k := range p.groups {
				p.groups[k].data = p.vals[k*it.n : k*it.n : (k+1)*it.n]
			}
			it.pages = append(it.pages, p)
		}
	}
	g := it.group(i)
	head, ok := it.table[h]
	if !ok {
		head = -1
	}
	*g = diffGroup{
		data:     append(g.data[:0], data...),
		hash:     h,
		next:     head,
		segStart: begin,
		curT:     begin,
		seq:      it.nextSeq,
	}
	it.table[h] = i
	it.nextSeq++
	it.live++
	return i, g
}

// evict commits the last change of group i, which has no end left in
// the queue, unlinks it from its hash chain and frees its index.
func (it *streamDiffIter) evict(i int32) {
	g := it.group(i)
	it.commit(g)
	if head := it.table[g.hash]; head != i {
		p := it.group(head)
		for p.next != i {
			p = it.group(p.next)
		}
		p.next = g.next
	} else if g.next >= 0 {
		it.table[g.hash] = g.next
	} else {
		delete(it.table, g.hash)
	}
	g.next = -1
	it.live--
	checkRecycle(it, i)
	it.free = append(it.free, i)
}

// commit folds the delta accumulated at g.curT into the count. When
// that changes the monus max(0, count), the segment [segStart, curT) is
// finished — emitted with its multiplicity if positive — and the next
// one starts at curT; otherwise the open segment simply continues.
func (it *streamDiffIter) commit(g *diffGroup) {
	if g.curDelta == 0 {
		return
	}
	next := g.count + g.curDelta
	if max(next, 0) != max(g.count, 0) {
		if g.count > 0 && g.curT > g.segStart {
			it.queue = appendSegment(it.queue, &it.arena, g.data, interval.New(g.segStart, g.curT), g.count)
		}
		g.segStart = g.curT
	}
	g.count = next
	g.curDelta = 0
}

// retire pops the queued ends before b in time order — all of them when
// last is set, at end of input — folding each into its group's change
// at that instant. The groups left with no queued end are evicted only
// after the pop loop, which only folds: each then commits its last
// change once and leaves the table. Ends at exactly b stay queued: a
// begin at b from either input may still arrive and belongs to the same
// change. At end of input the remaining groups commit in first-seen
// order, so repeated runs stream identical row order.
func (it *streamDiffIter) retire(b interval.Time, last bool) {
	for it.events.len() > 0 && (last || it.events.min() < b) {
		e := it.events.pop()
		g := it.group(e.v.group)
		if e.t > g.curT {
			it.commit(g)
			g.curT = e.t
		}
		g.curDelta += int64(e.v.delta)
		if g.open--; g.open == 0 {
			it.closed = append(it.closed, e.v.group)
		}
	}
	if last {
		slices.SortFunc(it.closed, func(a, b int32) int { return cmp.Compare(it.group(a).seq, it.group(b).seq) })
	}
	for _, i := range it.closed {
		it.evict(i)
	}
	it.closed = it.closed[:0]
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
		var sign int32
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
			it.retire(0, true)
			it.drained = true
			continue
		}
		iv := rowInterval(row)
		it.retire(iv.Begin, false)
		data := row[:it.n]
		h := data.HashKey(nil) & it.hashMask
		i, g := it.lookup(h, data)
		if g == nil {
			// The group representative is the first row seen in merge
			// order; a value-equivalent row from the other side may have
			// a different numeric kind (Int vs integral Float), which
			// SameKey treats as the same value — exactly as the blocking
			// sweep's first-seen representative does.
			i, g = it.newGroup(h, data, iv.Begin)
		} else if iv.Begin > g.curT {
			it.commit(g)
			g.curT = iv.Begin
		}
		g.curDelta += int64(sign)
		g.open++
		it.events.push(iv.End, endEvent{group: i, delta: -sign})
		it.maxGroups = max(it.maxGroups, it.live)
		it.maxOpen = max(it.maxOpen, int(g.open))
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
