package engine

import (
	"fmt"
	"math/bits"
	"slices"
	"unsafe"

	"snapk/internal/algebra"
	"snapk/internal/interval"
	"snapk/internal/tuple"
)

// This file is the one sweep kernel behind the temporal difference
// (REWR's ℕ-monus, Fig 4), the coalesce (Def 8.2: C(R) = R ∸ ∅) and the
// pre-aggregated split of §9: a per-group sweep over endpoint events — a
// row's begin applies +1 and its end −1, negated for the difference's
// right input — that closes a segment only where the group's value
// changes, so every output is the unique coalesced encoding. It has one
// group table (groupTable), one changepoint fold (changes) over one of
// two accumulators — the signed count (countAcc) of the difference and
// the coalesce, the aggregate set (aggAcc) of the split — and two
// drivers feeding the fold its events in time order: the streaming
// sweepIter over begin-ordered input and the blocking blockSweep.
// BeginOrder picks the driver.

// groupPageBits sizes the pages groups are kept in: 64 groups, so a
// sweep over a few groups allocates little.
const (
	groupPageBits = 6
	groupPageSize = 1 << groupPageBits
)

// group is one entry of a group table; p is its driver's state.
type group[P any] struct {
	key  tuple.Tuple
	hash uint64 // the key's hash, or its code in a coded table
	seq  int    // first-seen order, for a deterministic end-of-input commit
	next int32  // next group of the same hash chain, or -1
	open int32  // the group's end events still queued (streaming driver)
	p    P
}

// groupPage is one page of groups with the backing array of their key
// copies: neither moves once allocated, so a *group stays valid while
// the table grows.
type groupPage[P any] struct {
	groups [groupPageSize]group[P]
	keys   tuple.Tuple
}

// groupTable is the group table of every sweep: groups are found by
// tuple.HashKey over their key columns and told apart within a hash
// chain by SameKey. Each input names its own key columns, so inputs
// read through different column maps meet in one table. Groups sit in
// fixed-size pages, addressed by int32 and recycled through a free list
// of indexes, and each owns a copy of its key, so no group pins an input
// slab.
//
// A coded table instead finds a row's group by the row's dense key code
// (Table.KeyCodes), which equal keys share: slotOf maps each code to its
// live group, with neither hash nor SameKey. A streaming sweep is coded
// when every input is a scan of one table whose key columns are the
// same stored columns, so that every row carries a code of one set.
type groupTable[P any] struct {
	width    int              // the key columns a group has
	chains   map[uint64]int32 // group hash → first group of its chain
	slotOf   []int32          // coded: code → its group's index + 1, or 0
	pages    []*groupPage[P]
	slots    int32   // groups handed out so far, live or free
	free     []int32 // evicted groups, reused with their key buffers
	live     int
	nextSeq  int
	hashMask uint64 // all ones; tests clear bits to force collisions
}

// newGroupTable returns a group table of keys width columns wide, coded
// by codes key codes, or hashed when codes is 0.
func newGroupTable[P any](width, codes int) groupTable[P] {
	if codes > 0 {
		return groupTable[P]{width: width, slotOf: make([]int32, codes)}
	}
	return groupTable[P]{width: width, chains: make(map[uint64]int32), hashMask: ^uint64(0)}
}

// at returns the group at index i.
func (t *groupTable[P]) at(i int32) *group[P] {
	return &t.pages[i>>groupPageBits].groups[i&(groupPageSize-1)]
}

// find returns the group whose key is, column by column, SameKey to
// row's key columns idx — in a coded table, the group of the row's key
// code — linking in a new one when there is none; fresh reports a new
// group, whose p still holds what a recycled group left there. Without
// key columns — global aggregation — every row falls in the one group of
// hash 0: HashKey(nil), like AppendKey(nil), means all columns.
func (t *groupTable[P]) find(row tuple.Tuple, idx []int, code int32) (i int32, g *group[P], fresh bool) {
	if t.slotOf != nil {
		if s := t.slotOf[code]; s != 0 {
			return s - 1, t.at(s - 1), false
		}
		i, g = t.add(row, idx, uint64(code))
		t.slotOf[code] = i + 1
		return i, g, true
	}
	var h uint64
	if t.width > 0 {
		h = row.HashKey(idx) & t.hashMask
	}
	head, ok := t.chains[h]
	if !ok {
		head = -1
	}
chain:
	for i = head; i >= 0; i = g.next {
		g = t.at(i)
		for j, c := range idx {
			if !tuple.SameKey(g.key[j], row[c]) {
				continue chain
			}
		}
		return i, g, false
	}
	i, g = t.add(row, idx, h)
	g.next = head
	t.chains[h] = i
	return i, g, true
}

// add takes a group for a new key — on a free index if there is one —
// and gives it its own copy of row's key columns idx and hash h.
func (t *groupTable[P]) add(row tuple.Tuple, idx []int, h uint64) (i int32, g *group[P]) {
	i = t.slots
	if n := len(t.free); n > 0 {
		i, t.free = t.free[n-1], t.free[:n-1]
	} else if t.slots++; int(i>>groupPageBits) == len(t.pages) {
		w := t.width
		p := &groupPage[P]{keys: make(tuple.Tuple, groupPageSize*w)}
		for k := range p.groups {
			p.groups[k].key = p.keys[k*w : k*w : (k+1)*w]
		}
		t.pages = append(t.pages, p)
	}
	g = t.at(i)
	g.key = g.key[:0]
	for _, c := range idx {
		g.key = append(g.key, row[c])
	}
	g.hash, g.seq = h, t.nextSeq
	t.nextSeq++
	t.live++
	return i, g
}

// remove unlinks group i from its hash chain, or clears its code's
// slot, and frees its index.
func (t *groupTable[P]) remove(i int32) {
	g := t.at(i)
	if t.slotOf != nil {
		t.slotOf[g.hash] = 0
	} else if head := t.chains[g.hash]; head != i {
		p := t.at(head)
		for p.next != i {
			p = t.at(p.next)
		}
		p.next = g.next
	} else if g.next >= 0 {
		t.chains[g.hash] = g.next
	} else {
		delete(t.chains, g.hash)
	}
	g.next = -1
	t.live--
	t.free = append(t.free, i)
}

// accumulator is the value a sweep keeps per group, in the state S:
// reset readies a new (or recycled) group, fold applies one event of
// delta ±1 with its row's argument values, settle ends the instant the
// folds applied at — when the value changes there it emits the open
// segment seg under the old value and reports true — emit emits seg
// under the current value, and unsettled describes what s holds that a
// recycled group would leak, or returns "".
type accumulator[S any] interface {
	reset(s *S)
	fold(s *S, delta int32, args tuple.Tuple)
	settle(s *S, key tuple.Tuple, seg interval.Interval, out *sweepOut) bool
	emit(s *S, key tuple.Tuple, seg interval.Interval, out *sweepOut)
	unsettled(s *S) string
}

// sweepOut collects a sweep's output as runs: rows[i], carved from the
// arena, stands for mult[i] rows — its ℕ multiplicity. mult stays empty
// while every count is 1, as an aggregation's always is, and holds one
// count per row from the first count above 1 on. With expanded set, as
// for the *Table forms, a run is written at once as its row and count − 1
// copies, and mult stays empty. Rows share slabs but never alias (see
// rowArena). While counting is set it only counts the runs, in n, and
// the rows they stand for, in total, and notes in multi whether a count
// above 1 is among them. qi and done mark what has been handed out: runs
// before qi, and done rows of run qi.
type sweepOut struct {
	rows     []tuple.Tuple
	mult     []int64
	arena    rowArena
	counting bool
	expanded bool
	multi    bool
	n, total int
	qi       int
	done     int64
}

// segment emits the row (key, vals, seg) as a run of mult rows, if seg
// is not empty and mult positive.
func (o *sweepOut) segment(key, vals tuple.Tuple, seg interval.Interval, mult int64) {
	if seg.Begin >= seg.End || mult <= 0 {
		return
	}
	if o.counting {
		o.n++
		o.total += int(mult)
		o.multi = o.multi || mult > 1
		return
	}
	w := len(key) + len(vals) + 2
	row := o.arena.row(w)
	copy(row[copy(row, key):], vals)
	row[w-2], row[w-1] = tuple.Int(seg.Begin), tuple.Int(seg.End)
	o.rows = append(o.rows, row)
	if o.expanded {
		for range mult - 1 {
			o.rows = append(o.rows, o.copyOf(row))
		}
		return
	}
	if mult > 1 || len(o.mult) > 0 {
		if len(o.mult) == 0 {
			// The first count above 1: the runs before it count 1 each.
			o.mult = slices.Grow(o.mult, cap(o.rows))
			for range len(o.rows) - 1 {
				o.mult = append(o.mult, 1)
			}
		}
		o.mult = append(o.mult, mult)
	}
}

// copyOf returns a fresh copy of a run's row, carved from the arena:
// copies 2..k of an expanded run.
func (o *sweepOut) copyOf(row tuple.Tuple) tuple.Tuple {
	c := o.arena.row(len(row))
	copy(c, row)
	return c
}

// count returns the count of run i.
func (o *sweepOut) count(i int) int64 {
	if len(o.mult) == 0 {
		return 1
	}
	return o.mult[i]
}

// pending reports whether runs remain to be handed out.
func (o *sweepOut) pending() bool { return o.qi < len(o.rows) }

// reset empties the output for the next runs; the rows handed out stay
// valid, only the slices holding them are reused.
func (o *sweepOut) reset() {
	o.rows, o.mult, o.qi, o.done = o.rows[:0], o.mult[:0], 0, 0
}

// hand moves the pending output into b, up to limit rows: as runs, their
// counts appended to *mult, or — mult nil — as distinct rows, each run
// expanded into its row and then count − 1 fresh copies carved from the
// arena. A run the limit cuts resumes in the next call, and one handed
// out as a run after a cut counts only its remaining rows.
func (o *sweepOut) hand(b *RowBatch, mult *[]int64, limit int) {
	if mult != nil {
		n := min(len(o.rows)-o.qi, limit-b.Len())
		b.Rows = append(b.Rows, o.rows[o.qi:o.qi+n]...)
		if len(o.mult) > 0 {
			*mult = append(*mult, o.mult[o.qi:o.qi+n]...)
		} else {
			for range n {
				*mult = append(*mult, 1)
			}
		}
		if n > 0 {
			(*mult)[len(*mult)-n] -= o.done
			o.qi, o.done = o.qi+n, 0
		}
		return
	}
	for b.Len() < limit && o.qi < len(o.rows) {
		row, k := o.rows[o.qi], o.count(o.qi)
		if o.done == 0 {
			b.Append(row)
			o.done = 1
		}
		for ; o.done < k && b.Len() < limit; o.done++ {
			b.Append(o.copyOf(row))
		}
		if o.done == k {
			o.qi, o.done = o.qi+1, 0
		}
	}
}

// countAcc is the signed count: a group's value is the monus
// max(0, left − right) of its multiplicity, emitted as one run of that
// count. Without a right input it is the coalesce.
type countAcc struct{}

type countState struct {
	count int64 // the committed left − right multiplicity
	delta int64 // the change folded at the current instant
}

func (countAcc) reset(s *countState) { *s = countState{} }

func (countAcc) fold(s *countState, delta int32, _ tuple.Tuple) { s.delta += int64(delta) }

// settle commits the instant's delta. Only a change of the monus closes
// the segment: an instant with zero net delta, or a change among
// negative counts, leaves it open.
func (a countAcc) settle(s *countState, key tuple.Tuple, seg interval.Interval, out *sweepOut) bool {
	next := s.count + s.delta
	changed := max(next, 0) != max(s.count, 0)
	if changed {
		a.emit(s, key, seg, out)
	}
	s.count, s.delta = next, 0
	return changed
}

func (countAcc) emit(s *countState, key tuple.Tuple, seg interval.Interval, out *sweepOut) {
	out.segment(key, nil, seg, max(s.count, 0))
}

func (countAcc) unsettled(s *countState) string {
	if s.count != 0 || s.delta != 0 {
		return fmt.Sprintf("count %d and uncommitted delta %d", s.count, s.delta)
	}
	return ""
}

// aggAcc is the aggregate set: a group's value is the tuple of its
// aggregate results, compared under SameKey — the rule Coalesce groups
// rows by — and emitted as one row. A grouped segment with no row alive
// has no value and emits nothing; a global one holds the neutral results
// (count 0, NULL aggregates), so gaps produce rows — the AG-bug fix.
type aggAcc struct {
	aggs   []algebra.AggSpec
	global bool
}

type aggState struct {
	sw    []aggSweeper
	alive int64       // rows open in the group, each with an argument slot
	held  bool        // the open segment has a value
	vals  tuple.Tuple // the open segment's results, while held
}

// take makes the current results the open segment's value, if held.
func (s *aggState) take(held bool) {
	s.held, s.vals = held, s.vals[:0]
	for j := 0; held && j < len(s.sw); j++ {
		s.vals = append(s.vals, s.sw[j].result())
	}
}

func (a aggAcc) reset(s *aggState) {
	if s.sw == nil {
		s.sw = make([]aggSweeper, len(a.aggs))
	}
	for j := range s.sw {
		s.sw[j].reset(a.aggs[j].Fn)
	}
	s.alive = 0
	s.take(a.global)
}

func (aggAcc) fold(s *aggState, delta int32, args tuple.Tuple) {
	for j := range s.sw {
		s.sw[j].update(args[j], int64(delta))
	}
	s.alive += int64(delta)
}

func (a aggAcc) settle(s *aggState, key tuple.Tuple, seg interval.Interval, out *sweepOut) bool {
	held := s.alive > 0 || a.global
	same := held == s.held
	for j := 0; held && same && j < len(s.sw); j++ {
		same = tuple.SameKey(s.vals[j], s.sw[j].result())
	}
	if !same {
		a.emit(s, key, seg, out)
		s.take(held)
	}
	return !same
}

func (aggAcc) emit(s *aggState, key tuple.Tuple, seg interval.Interval, out *sweepOut) {
	if s.held {
		out.segment(key, s.vals, seg, 1)
	}
}

func (a aggAcc) unsettled(s *aggState) string {
	switch {
	case s.alive != 0:
		return fmt.Sprintf("%d live argument slots", s.alive)
	case s.held && !a.global:
		return fmt.Sprintf("an unemitted segment %v", s.vals)
	}
	return ""
}

// kernel is what both drivers share. A global kernel — aggregation
// without grouping — has one group that never evicts, opens at dom.Min
// and closes at dom.Max (the Fig 4 union with {(null, Tmin, Tmax)}). An
// exact one has the blocking driver fold twice, first only counting the
// output runs to size their slices: worth it for the cheap signed count,
// not for the aggregate set.
type kernel[S any, A accumulator[S]] struct {
	acc           A
	argIdx        []int // argument columns of an input row, −1 for count(*)
	global, exact bool
	dom           interval.Domain
	out           sweepOut
}

func countKernel() kernel[countState, countAcc] { return kernel[countState, countAcc]{exact: true} }

func aggKernel(p *aggPrep, aggs []algebra.AggSpec, dom interval.Domain) kernel[aggState, aggAcc] {
	global := len(p.groupIdx) == 0
	return kernel[aggState, aggAcc]{acc: aggAcc{aggs, global}, argIdx: p.argIdx, global: global, dom: dom}
}

// dataColumns returns the indexes of n data columns: the key of a
// difference or coalesce group.
func dataColumns(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// changes is one group's changepoint fold: the open segment's start,
// the instant folded but not yet settled, and the accumulator state.
type changes[S any] struct {
	segStart, curT interval.Time
	st             S
}

// start opens a group's fold at t.
func (k *kernel[S, A]) start(c *changes[S], t interval.Time) {
	c.segStart, c.curT = t, t
	k.acc.reset(&c.st)
}

// step folds one event at t, settling the previous instant first when t
// lies past it.
func (k *kernel[S, A]) step(c *changes[S], key tuple.Tuple, t interval.Time, delta int32, args tuple.Tuple) {
	if t > c.curT {
		k.settle(c, key)
		c.curT = t
	}
	k.acc.fold(&c.st, delta, args)
}

// settle settles the folded instant; a change starts the next segment
// there (never before the domain start the global group opened at).
func (k *kernel[S, A]) settle(c *changes[S], key tuple.Tuple) {
	if k.acc.settle(&c.st, key, interval.Interval{Begin: c.segStart, End: c.curT}, &k.out) {
		c.segStart = max(c.segStart, c.curT)
	}
}

// finish settles a group's last instant; the global group then emits
// its final segment, up to the domain end.
func (k *kernel[S, A]) finish(c *changes[S], key tuple.Tuple) {
	k.settle(c, key)
	if k.global {
		k.acc.emit(&c.st, key, interval.Interval{Begin: c.segStart, End: k.dom.Max}, &k.out)
	}
}

// gather copies row's argument values into dst.
func (k *kernel[S, A]) gather(dst, row tuple.Tuple) {
	for j, c := range k.argIdx {
		dst[j] = tuple.Null
		if c >= 0 {
			dst[j] = row[c]
		}
	}
}

// endEvent is one queued interval end at t: its group, its delta (−1
// for a left row, +1 for a right one) in ref's low bit, so an event
// stays 16 bytes, and its row's argument slot.
type endEvent struct {
	t         interval.Time
	ref, slot int32
}

func (e endEvent) group() int32 { return e.ref >> 1 }
func (e endEvent) delta() int32 { return 2*(e.ref&1) - 1 }

// queueKey maps t to an unsigned key of the same order, so that
// math.MinInt64 and math.MaxInt64 order correctly.
func queueKey(t interval.Time) uint64 { return uint64(t) ^ 1<<63 }

// chunkEvents sizes the chunks a queue bucket is chained from: 520
// bytes. Every instant pending in the exact level keeps a partly filled
// chunk of its own, so a chunk is small.
const chunkEvents = 32

// eventChunk is one link of a bucket's chain, or of the free list. It
// holds no pointer, so the collector never scans the queued events.
type eventChunk struct {
	ev   [chunkEvents]endEvent
	n    int32 // events held
	next int32 // the next chunk's reference, or 0
}

// The queue carves its chunks from blocks that double from one chunk up
// to blockChunks, 32,760 bytes, so it allocates per block, not per
// chunk. A chunk's reference is 1 + its block's index << blockBits + its
// place in the block.
const (
	blockBits   = 6
	blockChunks = 1<<blockBits - 1
)

// exactBuckets is the width of the queue's exact level: one bucket per
// instant of the 256-instant block of the last taken key.
const exactBuckets = 256

// endQueue is the streaming driver's one end-event queue: a monotone
// radix heap (Ahuja, Mehlhorn, Orlin and Tarjan, JACM 1990) whose lowest
// level is a timing wheel of exact buckets (Varghese and Lauck, SOSP
// 1987). It is monotone because the sweep is: every end pushed lies past
// its row's begin b, and take(b) takes only ends before b, so no push
// precedes the last taken time.
//
// An end whose key lies in the 256-key block of last, the last taken
// key, waits in exact bucket byte(key) with the other ends of its
// instant, and is never moved. Any other end waits in binary bucket
// bits.Len64(key ^ last), 9–64, which a move of last within its block
// does not change. A take that finds the exact level empty moves last to
// the least key of the least non-empty binary bucket and redistributes
// only that bucket, each end to the exact level or a lower binary
// bucket. A bucket is a chain of chunks, newest first, referenced so
// that the zero queue is empty; emptied chunks go to the free list and
// are reused, so the queue holds about its peak number of events.
type endQueue struct {
	last   uint64                    // the key of the last taken end
	exact  [exactBuckets]int32       // bucket j: the ends at key last&^255 | j
	full   [exactBuckets / 64]uint64 // bit j set: exact bucket j is non-empty
	bin    [65]int32                 // binary buckets 9–64: each one's newest chunk, or 0
	min    [65]uint64                // each non-empty binary bucket's least key
	used   uint64                    // bit i−1 set: binary bucket i is non-empty
	blocks [][]eventChunk
	free   int32 // the free list's first chunk, or 0
	n      int
	moves  int // events redistributed, for the tests that bound it
}

// Len returns the number of queued events.
func (q *endQueue) Len() int { return q.n }

// at returns chunk ref.
func (q *endQueue) at(ref int32) *eventChunk {
	r := ref - 1
	return &q.blocks[r>>blockBits][r&(1<<blockBits-1)]
}

// push queues e; op names the operator for the snapdebug check that e
// lies no earlier than the last taken end.
func (q *endQueue) push(e endEvent, op string) {
	k := queueKey(e.t)
	checkMonotone(op, k, q.last)
	q.put(e, k)
	q.n++
}

// put appends e, of key k, to its bucket, opening a chunk when the
// bucket's newest one is full.
func (q *endQueue) put(e endEvent, k uint64) {
	var head *int32
	if d := k ^ q.last; d < exactBuckets {
		j := byte(k)
		q.full[j>>6] |= 1 << (j & 63)
		head = &q.exact[j]
	} else {
		i := bits.Len64(d)
		if bit := uint64(1) << (i - 1); q.used&bit == 0 {
			q.used |= bit
			q.min[i] = k
		} else {
			q.min[i] = min(q.min[i], k)
		}
		head = &q.bin[i]
	}
	ref := *head
	if ref == 0 || q.at(ref).n == chunkEvents {
		ref = q.chunk(ref)
		*head = ref
	}
	c := q.at(ref)
	c.ev[c.n] = e
	c.n++
}

// chunk takes an empty chunk from the free list, or carves one, and
// links it before next.
func (q *endQueue) chunk(next int32) int32 {
	ref := q.free
	if ref == 0 {
		ref = q.carve()
	} else {
		q.free = q.at(ref).next
	}
	q.at(ref).next = next
	return ref
}

// carve cuts a chunk from the newest block, allocating the next block,
// twice as large up to blockChunks, when that one is used up.
func (q *endQueue) carve() int32 {
	nb := len(q.blocks)
	if nb == 0 || len(q.blocks[nb-1]) == cap(q.blocks[nb-1]) {
		size := 1
		if nb > 0 {
			size = min(2*cap(q.blocks[nb-1]), blockChunks)
		}
		q.blocks = append(q.blocks, make([]eventChunk, 0, size))
		nb++
	}
	blk := &q.blocks[nb-1]
	*blk = (*blk)[:len(*blk)+1]
	return int32((nb-1)<<blockBits|(len(*blk)-1)) + 1
}

// take removes every queued end of the least queued instant, if it lies
// before b or all is set, and returns the first chunk of their chain, or
// 0 when it takes nothing. The caller reads the chain's events, all at
// that instant, and hands each chunk back through release. last moves
// only on a take.
func (q *endQueue) take(b interval.Time, all bool) int32 {
	j, ok := q.leastExact()
	if !ok {
		if q.used == 0 {
			return 0
		}
		i := bits.TrailingZeros64(q.used) + 1
		if !all && q.min[i] >= queueKey(b) {
			return 0
		}
		q.last = q.min[i]
		ref := q.bin[i]
		q.bin[i], q.used = 0, q.used&^(1<<(i-1))
		for ref != 0 {
			c := q.at(ref)
			for _, e := range c.ev[:c.n] {
				q.put(e, queueKey(e.t))
			}
			q.moves += int(c.n)
			ref = q.recycle(ref)
		}
		j = byte(q.last)
	} else if k := q.last&^(exactBuckets-1) | uint64(j); all || k < queueKey(b) {
		q.last = k
	} else {
		return 0
	}
	ref := q.exact[j]
	q.exact[j] = 0
	q.full[j>>6] &^= 1 << (j & 63)
	return ref
}

// leastExact returns the least non-empty exact bucket. None lies before
// byte(last), since the queue is monotone.
func (q *endQueue) leastExact() (byte, bool) {
	for w := byte(q.last) >> 6; w < exactBuckets/64; w++ {
		if m := q.full[w]; m != 0 {
			return w<<6 | byte(bits.TrailingZeros64(m)), true
		}
	}
	return 0, false
}

// release hands back chunk ref of a taken chain, read, and returns the
// chunk after it, or 0.
func (q *endQueue) release(ref int32) int32 {
	q.n -= int(q.at(ref).n)
	return q.recycle(ref)
}

// recycle puts chunk ref, emptied, on the free list and returns the
// chunk it was linked before.
func (q *endQueue) recycle(ref int32) int32 {
	c := q.at(ref)
	next := c.next
	c.n, c.next, q.free = 0, q.free, ref
	return next
}

// each calls fn on every queued event, in no particular order.
func (q *endQueue) each(fn func(endEvent)) {
	for _, heads := range [][]int32{q.exact[:], q.bin[:]} {
		for _, ref := range heads {
			for ; ref != 0; ref = q.at(ref).next {
				c := q.at(ref)
				for _, e := range c.ev[:c.n] {
					fn(e)
				}
			}
		}
	}
}

// sweepIter is the streaming driver, with O(open intervals + active
// groups) state. It merges one or two inputs ordered by ascending
// interval begin: begins apply as rows arrive, ends wait in the queue.
// Once the merged sweep reaches b, no later row can contribute an event
// before b, so retire(b) makes everything before b final. The input
// order is the executor's responsibility (BeginOrder); violations
// panic, so an order-rule bug is loud instead of silently wrong.
type sweepIter[S any, A accumulator[S]] struct {
	kernel[S, A]
	groupTable[changes[S]]
	schema     tuple.Schema
	name       string // the operator, for the order-violation panic
	l, r       RowIter
	lKey, rKey []int // each input's key columns
	lcur, rcur batchCursor
	events     endQueue // the queued interval ends of every group
	closed     []int32  // groups retire left with no queued end
	ending     []uint64 // the groups left at end of input (endingKey)
	// args holds the argument values of the rows whose ends are queued,
	// a slot each, so no input row is held; freed slots are reused.
	// Without slots — no aggregate reads an argument, as count(*) — it
	// holds one slot of NULLs that every row shares.
	args     tuple.Tuple
	freeArgs []int32
	argSlots bool
	// one-row lookahead per input, filled on the first pull, with the
	// row's key code in a coded table
	lRow, rRow                tuple.Tuple
	lCode, rCode              int32
	lOk, rOk, primed, drained bool
	// peak sweep state, reported through MaxState.
	maxGroups, maxOpen int
}

// MaxState reports the peak sweep state — live groups plus the most
// intervals of one group open at one instant — for EXPLAIN ANALYZE and
// the memory governor (StateSizer).
func (it *sweepIter[S, A]) MaxState() int64 {
	return int64(it.maxGroups + it.maxOpen)
}

// IndexBytes reports the bytes of a coded sweep's code → group index, 4
// per code, for the memory governor (IndexSizer).
func (it *sweepIter[S, A]) IndexBytes() int64 { return 4 * int64(len(it.slotOf)) }

// NewStreamDiffIter returns the streaming temporal difference l − r,
// taking ownership of both inputs. Both must be ordered by ascending
// interval begin (violations panic) and union-compatible; on an arity
// mismatch both children are closed and an error is returned, matching
// the other constructors' contract.
func NewStreamDiffIter(l, r RowIter) (RowIter, error) {
	if la, ra := l.Schema().Arity(), r.Schema().Arity(); la != ra {
		l.Close()
		r.Close()
		return nil, fmt.Errorf("engine: difference-incompatible arities %d and %d", la, ra)
	}
	key := dataColumns(l.Schema().Arity() - 2)
	return NewStreamCountIter(l.Schema(), l, key, r, key, 0), nil
}

// NewStreamCoalesceIter returns the streaming coalesce over in, taking
// ownership of it: the streaming difference with no right input. The
// input must be ordered by ascending interval begin; violations panic.
func NewStreamCoalesceIter(in RowIter) RowIter {
	return NewStreamCountIter(in.Schema(), in, dataColumns(in.Schema().Arity()-2), nil, nil, 0)
}

// NewStreamCountIter returns the streaming count sweep of period schema
// schema, taking ownership of its inputs: the difference l − r, or the
// coalesce of l when r is nil. lKey and rKey are the columns of each
// input's rows that hold schema's data columns, in order — all of them
// for rows laid out as schema, a column map otherwise — so the two sides
// may be read through different maps. Both inputs must be ordered by
// ascending interval begin; violations panic. codes > 0 makes the sweep
// coded: every input batch then carries each row's key code, one of
// codes codes shared by equal keys of both inputs (RowBatch.Codes), and
// the sweep finds groups by code; 0 makes it hash.
func NewStreamCountIter(schema tuple.Schema, l RowIter, lKey []int, r RowIter, rKey []int, codes int) RowIter {
	name := "coalesce"
	if r != nil {
		name = "difference"
	}
	return newSweepIter(countKernel(), lKey, rKey, codes, schema, name, l, r)
}

// NewStreamAggIter returns the streaming pre-aggregated split over in,
// taking ownership of it. The input must be ordered by ascending
// interval begin; violations panic. On a prep error the child is
// closed, matching the other constructors' contract.
func NewStreamAggIter(in RowIter, groupBy []string, aggs []algebra.AggSpec, dom interval.Domain) (RowIter, error) {
	return NewMappedStreamAggIter(in, dataSchema(in.Schema()), nil, groupBy, aggs, dom, 0)
}

// NewMappedStreamAggIter is NewStreamAggIter over rows read through m
// as the data schema data, coded by codes key codes of the grouping
// columns as NewStreamCountIter is; a global aggregation has no key and
// ignores them.
func NewMappedStreamAggIter(in RowIter, data tuple.Schema, m ColMap, groupBy []string, aggs []algebra.AggSpec, dom interval.Domain, codes int) (RowIter, error) {
	prep, err := prepareAggregate(data, groupBy, aggs)
	if err != nil {
		in.Close()
		return nil, err
	}
	prep = prep.through(m)
	return newSweepIter(aggKernel(prep, aggs, dom), prep.groupIdx, nil, codes, prep.schema, "aggregation", in, nil), nil
}

// dataSchema strips the period attributes from a period schema.
func dataSchema(s tuple.Schema) tuple.Schema { return tuple.Schema{Cols: s.Cols[:s.Arity()-2]} }

func newSweepIter[S any, A accumulator[S]](k kernel[S, A], lKey, rKey []int, codes int, schema tuple.Schema, name string, l, r RowIter) *sweepIter[S, A] {
	if k.global {
		codes = 0
	}
	if r == nil {
		l = CheckOrdered("streaming "+name+" input", l)
	} else {
		l = CheckOrdered("streaming "+name+" left input", l)
		r = CheckOrdered("streaming "+name+" right input", r)
	}
	it := &sweepIter[S, A]{kernel: k, groupTable: newGroupTable[changes[S]](len(lKey), codes), schema: schema, name: name,
		l: l, r: r, lKey: lKey, rKey: rKey, lcur: batchCursor{in: l}, rcur: batchCursor{in: r},
		argSlots: slices.ContainsFunc(k.argIdx, func(c int) bool { return c >= 0 })}
	if !it.argSlots {
		it.args = make(tuple.Tuple, len(k.argIdx))
	}
	if it.global {
		_, g, _ := it.find(nil, nil, 0)
		it.start(&g.p, it.dom.Min)
	}
	return it
}

func (it *sweepIter[S, A]) Schema() tuple.Schema { return it.schema }

// slot returns the argument values in slot s.
func (it *sweepIter[S, A]) slot(s int32) tuple.Tuple {
	w := int(s) * len(it.argIdx)
	return it.args[w : w+len(it.argIdx)]
}

// putArgs copies row's argument values into a free slot.
func (it *sweepIter[S, A]) putArgs(row tuple.Tuple) int32 {
	if !it.argSlots {
		return 0
	}
	s := int32(len(it.args) / len(it.argIdx))
	if n := len(it.freeArgs); n > 0 {
		s, it.freeArgs = it.freeArgs[n-1], it.freeArgs[:n-1]
	} else {
		it.args = slices.Grow(it.args, len(it.argIdx))[:len(it.args)+len(it.argIdx)]
	}
	it.gather(it.slot(s), row)
	return s
}

// retire folds the queued ends before b into their groups' changes, an
// instant's ends at a time in time order — all of them when last is set,
// at end of input. The groups left with no queued end are evicted only
// after the fold, which only folds: each then settles its last change
// once and leaves the table. Ends at exactly b stay queued: a begin at b
// from either input may still arrive, and its group must still be in
// the table for the begin to fold into the same change. At end of input
// the remaining groups are left in it.ending, sorted into first-seen
// order, for fill to commit a batch at a time: repeated runs stream
// identical row order, and the output never holds every group's last
// runs at once.
func (it *sweepIter[S, A]) retire(b interval.Time, last bool) {
	if last && !it.global {
		it.ending = make([]uint64, 0, it.live)
	}
	for ref := it.events.take(b, last); ref != 0; ref = it.events.take(b, last) {
		for ; ref != 0; ref = it.events.release(ref) {
			c := it.events.at(ref)
			for _, e := range c.ev[:c.n] {
				i := e.group()
				g := it.at(i)
				it.stepOpen(g, e.t, e.delta(), it.slot(e.slot))
				if it.argSlots {
					it.freeArgs = append(it.freeArgs, e.slot)
				}
				if g.open--; g.open > 0 || it.global {
					continue
				}
				if last {
					it.ending = append(it.ending, endingKey(g.seq, i))
				} else {
					it.closed = append(it.closed, i)
				}
			}
		}
	}
	if last {
		slices.Sort(it.ending)
		return
	}
	for _, i := range it.closed {
		it.commit(i)
	}
	it.closed = it.closed[:0]
}

// endingKey packs a group's first-seen order above its index, so that
// sorting the keys sorts the groups into first-seen order without
// reading a group page per comparison. The order holds for the first
// 2^33 groups a sweep sees.
func endingKey(seq int, i int32) uint64 { return uint64(seq)<<31 | uint64(i) }

// commit settles group i's last change and evicts it.
func (it *sweepIter[S, A]) commit(i int32) {
	g := it.at(i)
	it.finish(&g.p, g.key)
	it.remove(i)
	checkRecycle(it, i)
}

// pull reads the next row of one input, and its key code in a coded
// table, checking that it begins no earlier than prev.
func (it *sweepIter[S, A]) pull(c *batchCursor, prev tuple.Tuple, capacity int) (row tuple.Tuple, code int32, ok bool) {
	row, ok = c.next(capacity)
	if !ok {
		return nil, 0, false
	}
	if prev != nil && rowInterval(row).Begin < rowInterval(prev).Begin {
		panic(fmt.Sprintf("engine: streaming %s input not begin-sorted (begin %d after %d); planner must stream only over ordered input", it.name, rowInterval(row).Begin, rowInterval(prev).Begin))
	}
	if it.slotOf != nil {
		if len(c.b.Codes) != c.b.Len() {
			panic(fmt.Sprintf("engine: coded streaming %s read a batch of %d rows with %d key codes; the executor must code every row or none", it.name, c.b.Len(), len(c.b.Codes)))
		}
		code = c.code()
	}
	return row, code, true
}

// fill runs the merged sweep until the output holds a run not yet
// handed out or both inputs are drained, reporting whether runs are
// available; the cursors read capacity rows at a time.
func (it *sweepIter[S, A]) fill(capacity int) bool {
	for !it.out.pending() {
		it.out.reset()
		if it.drained {
			if len(it.ending) == 0 {
				return false
			}
			n := min(len(it.ending), capacity)
			for _, k := range it.ending[:n] {
				it.commit(int32(k & (1<<31 - 1))) // endingKey's index
			}
			it.ending = it.ending[n:]
			continue
		}
		if !it.primed {
			// The output holds about one batch of runs: retire emits a
			// few per input row, and the end of input commits a batch of
			// groups at a time. A small first batch leaves it as large
			// as the batches after it.
			it.out.rows = make([]tuple.Tuple, 0, max(capacity, DefaultBatchSize))
			it.lRow, it.lCode, it.lOk = it.pull(&it.lcur, nil, capacity)
			if it.r != nil {
				it.rRow, it.rCode, it.rOk = it.pull(&it.rcur, nil, capacity)
			}
			it.primed = true
		}
		// Merge step: take the earlier begin (ties go left — immaterial
		// for the result, since same-instant deltas fold into one event).
		var row tuple.Tuple
		var key []int
		var sign, code int32
		switch {
		case it.lOk && (!it.rOk || rowInterval(it.lRow).Begin <= rowInterval(it.rRow).Begin):
			row, key, sign, code = it.lRow, it.lKey, 1, it.lCode
			it.lRow, it.lCode, it.lOk = it.pull(&it.lcur, row, capacity)
		case it.rOk:
			row, key, sign, code = it.rRow, it.rKey, -1, it.rCode
			it.rRow, it.rCode, it.rOk = it.pull(&it.rcur, row, capacity)
		default:
			it.retire(0, true)
			if it.global {
				it.finish(&it.at(0).p, nil)
			}
			it.drained = true
			continue
		}
		iv := rowInterval(row)
		if it.global {
			// The global group spans the domain only, so a row folds over
			// its part inside it: a time fragment's rows straddle its
			// range without being clipped.
			var inside bool
			if iv, inside = iv.Intersect(it.dom.All()); !inside {
				continue
			}
		}
		it.retire(iv.Begin, false)
		// The group representative is the first row seen in merge order;
		// a value-equivalent row from the other side may have a different
		// numeric kind (Int vs integral Float), which SameKey treats as
		// the same value. The global group is group 0, which newSweepIter
		// opened.
		var i int32
		var g *group[changes[S]]
		var fresh bool
		if it.global {
			g = it.at(0)
		} else {
			i, g, fresh = it.find(row, key, code)
		}
		if fresh {
			it.start(&g.p, iv.Begin)
		}
		slot := it.putArgs(row)
		it.stepOpen(g, iv.Begin, sign, it.slot(slot))
		g.open++
		it.events.push(endEvent{t: iv.End, ref: i<<1 | (1-sign)/2, slot: slot}, it.name)
		it.maxGroups = max(it.maxGroups, it.live)
	}
	return true
}

// stepOpen folds one event of group g at t. An event past g's current
// instant settles it, and g's queued ends are then those of the
// intervals covering that instant: the open state whose peak MaxState
// reports.
func (it *sweepIter[S, A]) stepOpen(g *group[changes[S]], t interval.Time, delta int32, args tuple.Tuple) {
	if t > g.p.curT {
		it.maxOpen = max(it.maxOpen, int(g.open))
	}
	it.step(&g.p, g.key, t, delta, args)
}

// NextBatch copies up to out.Cap() output rows into out, each run
// expanded into distinct rows: the output slices stay private, so their
// reuse cannot alias a delivered batch.
func (it *sweepIter[S, A]) NextBatch(out *RowBatch) bool { return it.next(out, nil) }

// NextRuns copies up to out.Cap() output runs into out, their counts
// into *mult.
func (it *sweepIter[S, A]) NextRuns(out *RowBatch, mult *[]int64) bool {
	*mult = (*mult)[:0]
	return it.next(out, mult)
}

func (it *sweepIter[S, A]) next(out *RowBatch, mult *[]int64) bool {
	out.Reset()
	limit := out.Cap()
	for out.Len() < limit && it.fill(limit) {
		it.out.hand(out, mult, limit)
	}
	return out.Len() > 0
}

func (it *sweepIter[S, A]) Close() {
	it.l.Close()
	if it.r != nil {
		it.r.Close()
	}
}

// Err reports the first terminal error of either input. A failed input
// looks like end of input to the sweep (it flushes and emits what it
// has); the reported error is what tells the root consumer to discard
// that output.
func (it *sweepIter[S, A]) Err() error {
	if it.r == nil {
		return it.l.Err()
	}
	return FirstErr(it.l.Err(), it.r.Err())
}

// blockEvent is one endpoint of an input row of the blocking driver;
// row numbers the rows of all inputs in order.
type blockEvent struct {
	t          interval.Time
	row, delta int32
}

// blockRowBytes prices the blocking driver's scratch per input row for
// the memory governor: the row's two events in the event array and two
// in the radix buffer, its group index, and at most one group's offset.
// All but the events are spare once the events are grouped.
const (
	blockEventBytes = int64(unsafe.Sizeof(blockEvent{}))
	blockSpareBytes = 2*blockEventBytes + 4 + 4
	blockRowBytes   = 2*blockEventBytes + blockSpareBytes
)

// blockSweep is the blocking driver over unordered tables. It writes
// every row's two events into one array in input-row order, sorts them
// by time (sortEvents, which is stable) and scatters them by group,
// stably again, so each group's p is the part of one array holding its
// events in (time, input row) order: same-instant updates — and float
// sums with them — apply in input order on every run. The groups then
// fold in first-seen order.
type blockSweep[S any, A accumulator[S]] struct {
	kernel[S, A]
	groupTable[[]blockEvent]
	keys [][]int // each input's key columns
}

func newBlockSweep[S any, A accumulator[S]](k kernel[S, A], keys ...[]int) *blockSweep[S, A] {
	return &blockSweep[S, A]{kernel: k, groupTable: newGroupTable[[]blockEvent](len(keys[0]), 0), keys: keys}
}

// run sweeps the inputs, ungoverned, the first counting +1 and the
// second −1, and returns the output as distinct rows: each run its row
// and count − 1 copies, in a slice and slabs sized to them.
func (s *blockSweep[S, A]) run(inputs ...[]tuple.Tuple) []tuple.Tuple {
	s.out.expanded = true
	out, _ := s.runs(nil, inputs...) // only a governor can refuse the sweep
	return out.rows
}

// runs sweeps the inputs as run does and returns the output runs, which
// hold nothing else of the sweep. gov (nil for none) is charged for the
// scratch while the sweep holds it; the sweep fails only when gov
// refuses it.
func (s *blockSweep[S, A]) runs(gov *Governor, inputs ...[]tuple.Tuple) (sweepOut, error) {
	n := 0
	for _, rows := range inputs {
		n += len(rows)
	}
	if err := gov.ChargeMem(int64(n) * blockRowBytes); err != nil {
		gov.ReleaseMem(int64(n) * blockRowBytes)
		return sweepOut{}, err
	}
	if s.global {
		s.find(nil, nil, 0)
	}
	ev, gi := make([]blockEvent, 2*n), make([]int32, n)
	base, sign := 0, int32(1)
	for k, rows := range inputs {
		for r, row := range rows {
			id := base + r
			gi[id], _, _ = s.find(row, s.keys[k], 0)
			iv := rowInterval(row)
			ev[2*id] = blockEvent{iv.Begin, int32(id), sign}
			ev[2*id+1] = blockEvent{iv.End, int32(id), -sign}
		}
		base, sign = base+len(rows), -sign
	}
	sorted, spare := sortEvents(ev, make([]blockEvent, 2*n))
	s.scatter(sorted, spare, gi)
	// The sorted copy, the group index and the offsets are garbage now.
	gov.ReleaseMem(int64(n) * blockSpareBytes)
	defer gov.ReleaseMem(int64(2*n) * blockEventBytes)
	if s.exact {
		s.out.counting = true
		s.foldAll(inputs[0])
		s.out.counting = false
		n := s.out.n
		if s.out.expanded {
			n = s.out.total
		} else if s.out.multi {
			s.out.mult = make([]int64, 0, n)
		}
		s.out.rows = make([]tuple.Tuple, 0, n)
		s.out.arena.expect(n)
	}
	s.foldAll(inputs[0])
	return s.out, nil
}

// scatter copies the time-sorted events into dst grouped by their rows'
// groups gi, keeping their order within a group, and points each
// group's p at its part of dst.
func (s *blockSweep[S, A]) scatter(sorted, dst []blockEvent, gi []int32) {
	off := make([]int32, s.slots+1)
	for _, g := range gi {
		off[g+1] += 2
	}
	for i := range s.slots {
		off[i+1] += off[i]
		s.at(i).p = dst[off[i]:off[i+1]]
	}
	for _, e := range sorted {
		g := gi[e.row]
		dst[off[g]] = e
		off[g]++
	}
}

// sortEvents sorts ev by time, stably, with a least-significant-digit
// radix sort over each time's offset from the least, t − min taken as
// an unsigned number (exact even where it overflows int64): one 8-bit
// counting pass per byte in which the offsets differ, skipping any byte
// they all share. buf is scratch of ev's length. It returns the sorted
// events, in ev or in buf, and the other slice.
func sortEvents(ev, buf []blockEvent) (sorted, spare []blockEvent) {
	if len(ev) < 2 {
		return ev, buf
	}
	lo, hi := ev[0].t, ev[0].t
	for _, e := range ev[1:] {
		lo, hi = min(lo, e.t), max(hi, e.t)
	}
	passes := (bits.Len64(uint64(hi)-uint64(lo)) + 7) / 8
	var counts [8][256]int
	for _, e := range ev {
		k := uint64(e.t) - uint64(lo)
		for p := range passes {
			counts[p][byte(k>>(8*p))]++
		}
	}
	first := uint64(ev[0].t) - uint64(lo)
	for p := range passes {
		c, shift := &counts[p], 8*p
		if c[byte(first>>shift)] == len(ev) {
			continue
		}
		at := 0
		for b, k := range c {
			c[b], at = at, at+k
		}
		for _, e := range ev {
			b := byte((uint64(e.t) - uint64(lo)) >> shift)
			buf[c[b]] = e
			c[b]++
		}
		ev, buf = buf, ev
	}
	return ev, buf
}

// foldAll runs every group's fold in first-seen order. Argument values
// come from rows, the first input: the only one an aggregation has.
func (s *blockSweep[S, A]) foldAll(rows []tuple.Tuple) {
	args := make(tuple.Tuple, len(s.argIdx))
	var c changes[S]
	for i := range s.slots {
		g := s.at(i)
		t := s.dom.Min
		if !s.global {
			t = g.p[0].t
		}
		s.start(&c, t)
		for _, e := range g.p {
			if len(args) > 0 {
				s.gather(args, rows[e.row])
			}
			s.step(&c, g.key, e.t, e.delta, args)
		}
		s.finish(&c, g.key)
	}
}

// diffSweep runs the blocking count sweep over l, minus r unless r is
// nil — with nothing subtracted it is the coalesce of l — into runs or,
// with expanded set, into distinct rows. lKey and rKey are each input's
// key columns, as NewStreamCountIter takes them; gov is charged for the
// sweep's scratch.
func diffSweep(gov *Governor, l *Table, lKey []int, r *Table, rKey []int, expanded bool) (sweepOut, error) {
	if r == nil {
		s := newBlockSweep(countKernel(), lKey)
		s.out.expanded = expanded
		return s.runs(gov, l.Rows)
	}
	if len(lKey) != len(rKey) {
		return sweepOut{}, fmt.Errorf("engine: difference-incompatible arities %d and %d", len(lKey)+2, len(rKey)+2)
	}
	s := newBlockSweep(countKernel(), lKey, rKey)
	s.out.expanded = expanded
	return s.runs(gov, l.Rows, r.Rows)
}

// NewBlockDiffIter returns the blocking temporal difference l − r — the
// coalesce of l when r is nil (Def 8.2: C(R) = R ∸ ∅) — as a RunIter:
// NextRuns hands out each segment once with its multiplicity, NextBatch
// the distinct rows TemporalDiff returns. The sweep runs here, so the
// iterator holds only its output runs, which MaxState reports.
func NewBlockDiffIter(l, r *Table) (RowIter, error) {
	key := dataColumns(l.DataArity())
	rKey := key
	if r != nil {
		rKey = dataColumns(r.DataArity())
	}
	return NewBlockCountIter(nil, l.Schema, l, key, r, rKey)
}

// NewBlockCountIter is NewBlockDiffIter of period schema schema over
// rows whose key columns are lKey and rKey, as NewStreamCountIter takes
// them. gov (nil for none) is charged for the sweep's scratch while the
// sweep runs, and the sweep fails with its error when it refuses.
func NewBlockCountIter(gov *Governor, schema tuple.Schema, l *Table, lKey []int, r *Table, rKey []int) (RowIter, error) {
	out, err := diffSweep(gov, l, lKey, r, rKey, false)
	if err != nil {
		return nil, err
	}
	return &runIter{schema: schema, out: out}, nil
}

// runIter hands out the runs of a blocking sweep.
type runIter struct {
	schema tuple.Schema
	out    sweepOut
}

func (it *runIter) Schema() tuple.Schema { return it.schema }

func (it *runIter) NextBatch(b *RowBatch) bool {
	b.Reset()
	it.out.hand(b, nil, b.Cap())
	return b.Len() > 0
}

func (it *runIter) NextRuns(b *RowBatch, mult *[]int64) bool {
	b.Reset()
	*mult = (*mult)[:0]
	it.out.hand(b, mult, b.Cap())
	return b.Len() > 0
}

// MaxState reports the runs the iterator holds: a blocking sweep's state
// is its whole output.
func (it *runIter) MaxState() int64 { return int64(len(it.out.rows)) }

// Close drops the runs.
func (it *runIter) Close() { it.out = sweepOut{} }

func (it *runIter) Err() error { return nil }
