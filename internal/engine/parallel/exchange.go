package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"snapk/internal/engine"
	"snapk/internal/tuple"
)

// batch is the unit of exchange between pipeline fragments: a bounded
// slice of period-encoded rows. Batching amortizes channel synchronization
// over many rows, which is what makes exchange operators cheaper than a
// channel send per row. A transport batch never leaves its exchange: the
// consumer copies its rows into the caller's batch and hands the slice
// back to the exchange's free list, where the producers take it again.
type batch []tuple.Tuple

// exchange owns the producer-side lifecycle of one exchange: a context
// derived from the execution context, canceled once EVERY consumer-side
// iterator of the exchange has been closed. This is what lets an
// iterator-level Close unblock producers parked on a bounded transport
// channel instead of stranding them until executor-level cancellation.
// The refcount counts consumers, not partitions: producers fan rows out
// to ALL partitions, so canceling on the first partition Close would
// truncate the still-live ones — only the last Close tears the
// producers down. free is the exchange's batch free list.
type exchange struct {
	ctx    context.Context
	cancel context.CancelFunc
	refs   atomic.Int32
	free   chan batch
	morsel int
}

// newExchange derives an exchange lifecycle with the given number of
// consumer-side iterators from the execution context. Its free list
// holds as many batches as the exchange can have in flight: one being
// filled per producer, a channel's worth queued and one being read per
// consumer.
func (e *executor) newExchange(consumers int) *exchange {
	ctx, cancel := context.WithCancel(e.ctx)
	x := &exchange{ctx: ctx, cancel: cancel, free: make(chan batch, 2*e.workers+consumers), morsel: e.morsel}
	x.refs.Store(int32(consumers))
	return x
}

// release records one consumer Close; the last one cancels the
// exchange context and with it every producer blocked on a send.
func (x *exchange) release() {
	if x.refs.Add(-1) == 0 {
		x.cancel()
	}
}

// batch takes an empty transport batch off the free list, or allocates
// one when the list is empty.
func (x *exchange) batch() batch {
	select {
	case b := <-x.free:
		return b
	default:
		return make(batch, 0, x.morsel)
	}
}

// recycle returns a read-out transport batch to the free list; one the
// full list has no room for is left to the collector. The rows are
// cleared first, so an idle batch keeps none of them reachable.
func (x *exchange) recycle(b batch) {
	clear(b)
	select {
	case x.free <- b[:0]:
	default:
	}
}

// scanCursor is the morsel cursor the fragments of one table scan
// share: each fragment claims the next morsel off it, so the fragments
// load-balance even when per-row costs are skewed. A scan partition
// makes it private before the first claim, and every fragment then
// reads the whole table itself. src is the stored table the scan reads,
// or a prefix of; when a coded sweep reads the scan, codes holds src's
// key codes (codeKeys), and every fragment emits each row's code beside
// it. When the partition routes at the scan, every fragment keeps only
// its own rows: by fragOf, src's code → fragment map (Table.KeyParts),
// when the scan has codes, so it touches no row it does not keep; else by
// partOf over the hash of route, its key (columns of a scanned row).
type scanCursor struct {
	next    atomic.Int64
	private bool
	route   []int
	parts   int
	src     *engine.Table
	codes   []int32
	fragOf  []uint8
}

// morselTableIter is the scan source: fragments claim morsels
// (contiguous row ranges) of a table through their scan's cursor, one
// iterator per fragment, frag. Each claim probes the execution context:
// a single-fragment pipeline runs entirely on the consumer's goroutine,
// so this probe (amortized per morsel of rows) is its only mid-stream
// cancellation point — blocking drains above it (hash-join builds,
// blocking sweeps) end early with the context's error instead of
// running to completion.
type morselTableIter struct {
	ctx    context.Context
	t      *engine.Table
	cur    *scanCursor
	frag   int
	size   int
	i, end int // current claimed morsel [i, end)
	err    error
}

func (it *morselTableIter) Schema() tuple.Schema { return it.t.Schema }

// claim takes the next morsel — off the shared cursor, or the one after
// the last when the cursor is private; false at the end of the table
// or on cancellation.
func (it *morselTableIter) claim() bool {
	if it.err = it.ctx.Err(); it.err != nil {
		return false
	}
	start := it.end
	if !it.cur.private {
		start = int(it.cur.next.Add(int64(it.size))) - it.size
	}
	if start >= len(it.t.Rows) {
		return false
	}
	it.i, it.end = start, min(start+it.size, len(it.t.Rows))
	return true
}

// NextBatch hands out the remainder of the claimed morsel (up to the
// consumer's capacity) as one slice append, or, when the scan routes a
// partition, the rows of that remainder in this fragment's partition,
// reading on until one is; with their key codes when the scan has them.
func (it *morselTableIter) NextBatch(b *engine.RowBatch) bool {
	b.Reset()
	for {
		if it.i >= it.end && !it.claim() {
			return false
		}
		n := min(it.end-it.i, b.Cap())
		rows := it.t.Rows[it.i : it.i+n]
		c := it.cur
		var codes []int32
		if c.codes != nil {
			codes = c.codes[it.i : it.i+n]
		}
		it.i += n
		switch {
		case c.route == nil:
			b.Rows = append(b.Rows, rows...)
			b.Codes = append(b.Codes, codes...)
			return true
		case c.fragOf != nil:
			routeCodes(b, rows, codes, c.fragOf, uint8(it.frag))
		default:
			for j, row := range rows {
				if partOf(row.HashKey(c.route), c.parts) == it.frag {
					b.Append(row)
					if codes != nil {
						b.Codes = append(b.Codes, codes[j])
					}
				}
			}
		}
		if b.Len() > 0 {
			return true
		}
	}
}

// routeRows is how many rows routeCodes selects at a time.
const routeRows = 256

// routeCodes appends to b the rows of rows, with their codes, whose code
// frag maps to fragment f. It gathers the indexes of those rows with no
// branch on the fragment, then copies them: over a scan a row's fragment
// is as good as random, so a branch on it would be mispredicted for about
// every other row (measured on fig5's 500 k rows at W = 2: 7.0 ms to
// route both fragments with a branch, 2.8 ms without).
func routeCodes(b *engine.RowBatch, rows []tuple.Tuple, codes []int32, frag []uint8, f uint8) {
	var sel [routeRows]int32
	for len(codes) > 0 {
		n := min(len(codes), len(sel))
		k := 0
		for j, code := range codes[:n] {
			sel[k] = int32(j)
			if frag[code] == f {
				k++
			}
		}
		for _, j := range sel[:k] {
			b.Rows = append(b.Rows, rows[j])
			b.Codes = append(b.Codes, codes[j])
		}
		rows, codes = rows[n:], codes[n:]
	}
}

func (it *morselTableIter) Close() {}

// Err reports the cancellation that ended the scan early.
func (it *morselTableIter) Err() error { return it.err }

// chanIter is the receiving end of a channel exchange: the one iterator
// of a merge, or one of W worker-side iterators of a repartition or a
// hash partition. The batch-draining loop is chanCursor's, so the
// ctx-aware receive cannot drift between the RowIter form and the
// ordered merge's per-row form. It ends without an error of its own:
// producer failures reach the executor's central error slot.
type chanIter struct {
	x      *exchange
	schema tuple.Schema
	cur    chanCursor
	closed bool
}

func (it *chanIter) Schema() tuple.Schema { return it.schema }

func (it *chanIter) NextBatch(b *engine.RowBatch) bool {
	return it.cur.nextBatch(it.x.ctx, b)
}

func (it *chanIter) Err() error { return nil }

// Close releases this consumer's reference on the exchange; the last
// one closed cancels the producers (see exchange) — closing a merged
// iterator before exhaustion does not strand them on the bounded
// channel until executor teardown.
func (it *chanIter) Close() {
	if !it.closed {
		it.closed = true
		it.x.release()
	}
}

// startMerge spawns one producer goroutine per part and returns the
// merged stream: the iterator pulls batches off one shared bounded
// channel in arrival order. Merge order is nondeterministic, which is
// sound because period relations are multisets. Producers exit when
// their input is exhausted or the execution context is canceled; a
// closer goroutine closes the channel once all producers are done,
// which is how the consumer observes end-of-stream.
func (e *executor) startMerge(parts []engine.RowIter, parent *engine.OpStats) engine.RowIter {
	return e.mergeOn("exchange:merge", parts, parent.Child("Exchange:merge", fmt.Sprintf("fanin=%d", len(parts))))
}

// mergeOn is startMerge recording on the exchange node st; site names
// the merge's inject hook and its panic sites.
func (e *executor) mergeOn(site string, parts []engine.RowIter, st *engine.OpStats) engine.RowIter {
	schema := parts[0].Schema()
	x := e.newExchange(1)
	ch := make(chan batch, len(parts))
	var producers sync.WaitGroup
	for _, part := range parts {
		part := part
		producers.Add(1)
		e.wg.Add(1)
		go func() {
			// LIFO: part.Close runs first, so a panic in it is still caught;
			// recoverPanic records a failure BEFORE producers.Done lets the
			// channel close — a consumer that sees end of stream must
			// already see the error, or a contained panic reads as a clean,
			// truncated result.
			defer e.wg.Done()
			defer producers.Done()
			defer e.recoverPanic(site + " producer")
			defer part.Close()
			e.drainInto(x, part, ch, st, false)
		}()
	}
	e.wg.Add(1)
	//lint:leakcheck bounded by construction: waits only on producers that are themselves cancellation-aware via drainInto
	go func() {
		defer e.wg.Done()
		defer e.recoverPanic(site + " closer")
		producers.Wait()
		close(ch)
	}()
	return engine.NewObsIter(e.inject(site, &chanIter{x: x, schema: schema, cur: chanCursor{x: x, ch: ch}}), st)
}

// send pushes one transport batch onto ch, recording the backpressure
// wait on BOTH select arms: a producer aborted by cancellation while
// blocked on a full channel previously returned without recording its
// wait, under-reporting backpressure exactly when it mattered most.
// countBatch records the send on the exchange node's batch counter —
// off for the merge exchanges, whose consumer-side ObsIter counts
// delivered batches on the same node (counting both would double).
// Reports false when the exchange was canceled.
func (e *executor) send(ctx context.Context, ch chan<- batch, b batch, st *engine.OpStats, countBatch bool) bool {
	if st == nil {
		select {
		case <-ctx.Done():
			return false
		case ch <- b:
			return true
		}
	}
	t0 := time.Now()
	sent := false
	select {
	case <-ctx.Done():
	case ch <- b:
		sent = true
	}
	st.AddWait(time.Since(t0).Nanoseconds())
	if sent && countBatch {
		st.AddBatch()
	}
	return sent
}

// drainInto pumps it into ch in morsel-sized batches until exhaustion or
// cancellation of the exchange x. The input's operator chain fills each
// transport batch, taken from x's free list, directly through
// NextBatch; the first is filled to engine.FirstBatchRows rows only, so
// the consumer's first row waits for that many, not for a whole morsel,
// and is sent with its full capacity, so it returns to the free list
// whole. After sending it the producer yields once: with every P
// running a producer, the consumer its send woke would otherwise wait
// for a preemption, up to 10 ms, before it takes the first rows
// (measured: agg-global's first row at two workers 15 ms without the
// yield, 0.7 ms with it).
// With st non-nil the producer's blocked time is recorded (and each
// batch sent, when countBatch says the consumer side is not already
// counting them).
// A drain that ends because its input FAILED (rather than ended
// naturally) reports the input's terminal error to the executor's
// central error slot, per the error-carrying iterator protocol:
// exchange consumers only ever observe a clean end-of-stream, so the
// producer side is where a truncation must be converted into a query
// error. A failed drain ends on the failing pull, so no rows of a
// failed stream are sent after it.
func (e *executor) drainInto(x *exchange, it engine.RowIter, ch chan<- batch, st *engine.OpStats, countBatch bool) {
	for first := true; ; first = false {
		// One cancellation probe per batch: NextBatch can spin for a
		// while on selective operators, and the send below only
		// observes cancellation when it actually blocks.
		if x.ctx.Err() != nil {
			return
		}
		b := x.batch()
		rb := engine.RowBatch{Rows: b}
		if first {
			rb.Rows = b[:0:min(engine.FirstBatchRows, cap(b))]
		}
		if !it.NextBatch(&rb) {
			e.fail(it.Err())
			return
		}
		rows := rb.Rows
		if &rows[0] == &b[:1][0] {
			rows = b[:len(rows)] // whole again, for the free list
		}
		if !e.send(x.ctx, ch, rows, st, countBatch) {
			return
		}
		if first {
			runtime.Gosched()
		}
	}
}

// partOf is the partition function of the keyed exchanges over hashed
// keys: the partition of w that a row whose key hashes (tuple.HashKey)
// to h belongs to. It scales the hash's high 32 bits onto [0, w) with a
// multiply and a shift instead of a division, since an uncoded scan
// partition runs it on every scanned row; the sweeps' group tables
// index by the low bits. A scan partition whose sweep is coded routes by
// the table's code → fragment map instead (Table.KeyParts).
func partOf(h uint64, w int) int { return int((h >> 32) * uint64(w) >> 32) }

// hashPartition converts a stream — given as its physical sources, one
// per already-running fragment — into W worker-side iterators by
// hashing the key columns: every row of one key group lands in the
// same partition, which is what lets each worker run an independent
// blocking sweep (coalesce / split-aggregate / difference) over its
// partition with no cross-worker coordination. One distributor
// goroutine per source hashes into the shared bounded per-partition
// channels, so partitioned inputs are redistributed without first being
// serialized through a merge exchange; cancellation of the execution
// context unblocks both sides.
func (e *executor) hashPartition(srcs []engine.RowIter, keyIdx []int, parent *engine.OpStats) []engine.RowIter {
	w := e.workers
	st := parent.Child("Exchange:partition", fmt.Sprintf("fanout=%d", w))
	st.InitParts(w)
	schema := srcs[0].Schema()
	x := e.newExchange(w)
	chans := make([]chan batch, w)
	for i := range chans {
		chans[i] = make(chan batch, len(srcs)+1)
	}
	var producers sync.WaitGroup
	for _, src := range srcs {
		src := src
		producers.Add(1)
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			defer producers.Done() // after recoverPanic: see startMerge
			defer e.recoverPanic("exchange:partition producer")
			defer src.Close()
			bufs := make([]batch, w)
			for i := range bufs {
				bufs[i] = x.batch()
			}
			flush := func(i int) bool {
				if len(bufs[i]) == 0 {
					return true
				}
				if !e.send(x.ctx, chans[i], bufs[i], st, true) {
					return false
				}
				st.AddPartRows(i, len(bufs[i]))
				bufs[i] = x.batch()
				return true
			}
			in := engine.NewRowBatch(e.morsel)
			for src.NextBatch(in) {
				for _, row := range in.Rows {
					i := partOf(row.HashKey(keyIdx), w)
					//lint:ignore rowretain partition buffering for transport; rows are forwarded downstream unmodified
					bufs[i] = append(bufs[i], row)
					if len(bufs[i]) == e.morsel && !flush(i) {
						return
					}
				}
			}
			// A failed source means the partitions are missing rows:
			// report it centrally and skip the trailing flush (the
			// buffered rows of a failed stream are not results).
			if err := src.Err(); err != nil {
				e.fail(err)
				return
			}
			for i := range bufs {
				if !flush(i) {
					return
				}
			}
		}()
	}
	e.wg.Add(1)
	//lint:leakcheck bounded by construction: waits only on partition producers whose flush selects on ctx.Done()
	go func() {
		defer e.wg.Done()
		defer e.recoverPanic("exchange:partition closer")
		producers.Wait()
		for _, ch := range chans {
			close(ch)
		}
	}()
	parts := make([]engine.RowIter, w)
	for i := range parts {
		parts[i] = e.inject(fmt.Sprintf("exchange:partition:%d", i),
			&chanIter{x: x, schema: schema, cur: chanCursor{x: x, ch: chans[i]}})
	}
	return parts
}

// scanPartition is the keyed exchange of the streaming sweeps, and it
// moves no row between goroutines. engine.DB.BeginOrder orders nothing
// but begin-sorted scans and the per-row operators over them, so an
// ordered stream of W fragments is W copies of one per-row chain over a
// morsel scan. scanPartition makes the scan's cursor private, so each
// fragment reads the whole table (a window-pruned prefix included), and
// keeps the rows whose key partOf maps to that fragment. Each partition
// is then begin-sorted by construction and read on its sweep's own
// goroutine: no producer, no queue, no memory charge and no merge, so no
// key skew can stall it.
//
// When the chain holds only column maps, filters and windows, its rows
// keep the scan's layout and the key indexes a scanned row, so the scan
// itself routes: each fragment's chain runs only on its partition's rows,
// and a Scan's rows= sums to N over the fragments. A coded sweep's scan
// routes by code, through the table's code → fragment map, cached with
// the codes and balanced by rows (Table.KeyParts): a fragment reads the
// rows it keeps and the codes of the others, and hashes none. Every
// input of a coded sweep carries the same code set, so the map sends a
// key's rows of every input to one fragment. An uncoded scan hashes each
// row's key (partOf). A computing projection in the chain changes the
// layout, so there the fragment's chain runs on every scanned row and a
// partIter on top hashes to keep the partition: every fragment reads the
// whole table, and the Scan's rows= sums to W × N. Either way part_rows
// counts the rows that reach each sweep, after the chain, and the
// exchange's node names the routing, route=codes or route=hash.
//
// A stream without its scan source is an executor bug, not a case to
// fall back from; the panic becomes buildSafe's query error.
func (e *executor) scanPartition(s *pstream, keyIdx []int, parent *engine.OpStats) []engine.RowIter {
	if s.scan == nil {
		panic("parallel: ordered keyed exchange over a stream with no scan source")
	}
	s.scan.private = true
	if !s.computed {
		s.scan.route, s.scan.parts = keyIdx, e.workers
		if s.scan.codes != nil {
			s.scan.fragOf = s.scan.src.KeyParts(keyIdx, e.workers)
		}
	}
	detail := "fanout=%d route=hash"
	if s.scan.fragOf != nil {
		detail = "fanout=%d route=codes"
	}
	st := parent.Child("Exchange:scan-partition", fmt.Sprintf(detail, e.workers))
	st.InitParts(e.workers)
	parts := make([]engine.RowIter, len(s.parts))
	for i, part := range s.parts {
		switch {
		case s.computed:
			part = &partIter{in: part, keyIdx: keyIdx, part: i, parts: e.workers, st: st}
		case st != nil:
			part = &tallyIter{RowIter: part, st: st, part: i}
		}
		parts[i] = engine.CheckOrdered("scan partition",
			e.inject(fmt.Sprintf("exchange:scan-partition:%d", i), part))
	}
	return parts
}

// partIter is one fragment of a scan partition over a chain with a
// computing projection: the rows of its chain whose key maps to
// partition part of parts, counted on the exchange's stats node.
type partIter struct {
	in          engine.RowIter
	buf         engine.RowBatch
	rows        []tuple.Tuple // the backing each buf is cut from
	keyIdx      []int
	part, parts int
	st          *engine.OpStats
}

func (it *partIter) Schema() tuple.Schema { return it.in.Schema() }

// NextBatch filters whole child batches and emits as soon as one yields
// a row of the partition.
func (it *partIter) NextBatch(out *engine.RowBatch) bool {
	out.Reset()
	if cap(it.rows) < out.Cap() {
		it.rows = make([]tuple.Tuple, 0, max(out.Cap(), engine.DefaultBatchSize))
	}
	it.buf.Rows = it.rows[:0:out.Cap()]
	for out.Len() == 0 {
		if !it.in.NextBatch(&it.buf) {
			return false
		}
		for _, row := range it.buf.Rows {
			if partOf(row.HashKey(it.keyIdx), it.parts) == it.part {
				out.Append(row)
			}
		}
	}
	it.st.AddPartRows(it.part, out.Len())
	return true
}

func (it *partIter) Err() error { return it.in.Err() }

func (it *partIter) Close() { it.in.Close() }

// tallyIter counts the rows a partition's sweep reads on its exchange's
// stats node, where no partIter does: above a chain that the scan
// routes.
type tallyIter struct {
	engine.RowIter
	st   *engine.OpStats
	part int
}

func (it *tallyIter) NextBatch(b *engine.RowBatch) bool {
	if !it.RowIter.NextBatch(b) {
		return false
	}
	it.st.AddPartRows(it.part, b.Len())
	return true
}

// chanCursor reads one bounded batch channel, a row (next) or a batch
// (nextBatch) at a time — never both. It copies rows out of the
// transport batch it holds and recycles the batch to its exchange once
// read out.
type chanCursor struct {
	x   *exchange
	ch  <-chan batch
	cur batch
	i   int
}

// fill makes sure the cursor holds an unread row, receiving transport
// batches as needed; false at end of stream or on cancellation.
func (c *chanCursor) fill(ctx context.Context) bool {
	for c.i >= len(c.cur) {
		if c.cur != nil {
			c.x.recycle(c.cur)
			c.cur = nil
		}
		select {
		case <-ctx.Done():
			return false
		case b, ok := <-c.ch:
			if !ok {
				return false
			}
			c.cur, c.i = b, 0
		}
	}
	return true
}

func (c *chanCursor) next(ctx context.Context) (tuple.Tuple, bool) {
	if !c.fill(ctx) {
		return nil, false
	}
	row := c.cur[c.i]
	c.i++
	return row, true
}

// nextBatch copies the held batch's unread rows, up to out's capacity,
// into out.
func (c *chanCursor) nextBatch(ctx context.Context, out *engine.RowBatch) bool {
	out.Reset()
	if !c.fill(ctx) {
		return false
	}
	n := min(len(c.cur)-c.i, out.Cap())
	out.Rows = append(out.Rows, c.cur[c.i:c.i+n]...)
	c.i += n
	return true
}

// orderedMergeIter is the order-preserving merge exchange: a k-way
// merge over per-producer sources in the sweep operators' canonical
// (begin, end) endpoint order — the same order engine.CompareEndpoints
// defines — so begin-sorted fragment streams merge into one
// begin-sorted stream. Each source holds at most one head row in the
// heap; the merge pulls a replacement only from the source it popped,
// which is what keeps per-fragment order intact. It ends without an
// error of its own: producer failures reach the executor's central
// error slot.
type orderedMergeIter struct {
	x      *exchange
	schema tuple.Schema
	srcs   []*chanCursor
	heap   []mergeEntry
	inited bool
	closed bool
}

// mergeEntry is one heap element: a source's current head row with its
// interval endpoints cached, so every sift comparison is two raw int64
// compares instead of re-extracting tagged values from the row.
type mergeEntry struct {
	begin, end int64
	row        tuple.Tuple
	src        *chanCursor
}

func newMergeEntry(row tuple.Tuple, src *chanCursor) mergeEntry {
	n := len(row)
	return mergeEntry{begin: row[n-2].AsInt(), end: row[n-1].AsInt(), row: row, src: src}
}

func (it *orderedMergeIter) Schema() tuple.Schema { return it.schema }

func (it *orderedMergeIter) less(i, j int) bool {
	a, b := &it.heap[i], &it.heap[j]
	if a.begin != b.begin {
		return a.begin < b.begin
	}
	return a.end < b.end
}

func (it *orderedMergeIter) siftDown(i int) {
	n := len(it.heap)
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && it.less(l, s) {
			s = l
		}
		if r < n && it.less(r, s) {
			s = r
		}
		if s == i {
			return
		}
		it.heap[i], it.heap[s] = it.heap[s], it.heap[i]
		i = s
	}
}

// next pops the merge's next row: the k-way compare is inherently per
// row.
func (it *orderedMergeIter) next() (tuple.Tuple, bool) {
	ctx := it.x.ctx
	if !it.inited {
		it.inited = true
		for _, src := range it.srcs {
			if row, ok := src.next(ctx); ok {
				it.heap = append(it.heap, newMergeEntry(row, src))
			}
		}
		for i := len(it.heap)/2 - 1; i >= 0; i-- {
			it.siftDown(i)
		}
	}
	if len(it.heap) == 0 {
		return nil, false
	}
	row := it.heap[0].row
	if nrow, ok := it.heap[0].src.next(ctx); ok {
		it.heap[0] = newMergeEntry(nrow, it.heap[0].src)
	} else {
		n := len(it.heap) - 1
		it.heap[0] = it.heap[n]
		it.heap[n] = mergeEntry{}
		it.heap = it.heap[:n]
	}
	it.siftDown(0)
	return row, true
}

// NextBatch fills out through the per-row heap merge; one NextBatch
// call amortizes the downstream hop over the whole batch.
func (it *orderedMergeIter) NextBatch(b *engine.RowBatch) bool {
	b.Reset()
	limit := b.Cap()
	for b.Len() < limit {
		row, ok := it.next()
		if !ok {
			break
		}
		b.Append(row)
	}
	return b.Len() > 0
}

func (it *orderedMergeIter) Err() error { return nil }

// Close releases the consumer reference on the exchange, so closing an
// ordered-merge iterator before exhaustion unblocks its producers.
func (it *orderedMergeIter) Close() {
	if !it.closed {
		it.closed = true
		it.x.release()
	}
}

// startOrderedMerge is the order-preserving sibling of startMerge: one
// producer goroutine and one bounded channel per part (backpressure is
// safe here — the single consumer always drains the source it waits
// on), with the consumer k-way merging the heads by endpoint order.
// The merged stream is begin-sorted iff every part is.
func (e *executor) startOrderedMerge(parts []engine.RowIter, parent *engine.OpStats) engine.RowIter {
	st := parent.Child("Exchange:ordered-merge", fmt.Sprintf("fanin=%d", len(parts)))
	schema := parts[0].Schema()
	x := e.newExchange(1)
	srcs := make([]*chanCursor, len(parts))
	for i, part := range parts {
		//lint:ignore orderedchan safe bounded buffer: the merge consumer always drains the exact source it waits on, so a full buffer here cannot stall the heap
		ch := make(chan batch, 2)
		srcs[i] = &chanCursor{x: x, ch: ch}
		part := part
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			defer close(ch) // after recoverPanic: see startMerge
			defer e.recoverPanic("exchange:ordered-merge producer")
			defer part.Close()
			e.drainInto(x, part, ch, st, false)
		}()
	}
	return engine.NewObsIter(engine.CheckOrdered("ordered merge exchange",
		e.inject("exchange:ordered-merge",
			&orderedMergeIter{x: x, schema: schema, srcs: srcs})), st)
}

// repartition converts a sequential stream into W worker-side iterators
// by round-robin batch distribution: a single distributor goroutine reads
// the source and every worker pulls from the shared bounded channel —
// morsel-driven scheduling for sources that are not indexable tables
// (e.g. the output of a blocking operator feeding a join probe side).
func (e *executor) repartition(src engine.RowIter, parent *engine.OpStats) []engine.RowIter {
	st := parent.Child("Exchange:repartition", fmt.Sprintf("fanout=%d", e.workers))
	schema := src.Schema()
	x := e.newExchange(e.workers)
	ch := make(chan batch, e.workers)
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		defer close(ch) // after recoverPanic: see startMerge
		defer e.recoverPanic("exchange:repartition producer")
		defer src.Close()
		e.drainInto(x, src, ch, st, true)
	}()
	parts := make([]engine.RowIter, e.workers)
	for i := range parts {
		parts[i] = e.inject(fmt.Sprintf("exchange:repartition:%d", i),
			&chanIter{x: x, schema: schema, cur: chanCursor{x: x, ch: ch}})
	}
	return parts
}
