package parallel

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"snapk/internal/engine"
	"snapk/internal/tuple"
)

// batch is the unit of exchange between pipeline fragments: a bounded
// slice of period-encoded rows. Batching amortizes channel synchronization
// over many rows, which is what makes exchange operators cheaper than a
// channel send per row. Each transport batch is freshly allocated by its
// producer and handed over wholesale, so consumer-side iterators may
// adopt it directly as an engine.RowBatch row slice — the zero-copy
// batch pass-through of the vectorized hop.
type batch []tuple.Tuple

// exchange owns the producer-side lifecycle of one exchange: a context
// derived from the execution context, canceled once EVERY consumer-side
// iterator of the exchange has been closed. This is what lets an
// iterator-level Close unblock producers parked on a bounded transport
// channel instead of stranding them until executor-level cancellation.
// The refcount counts consumers, not partitions: producers fan rows out
// to ALL partitions, so canceling on the first partition Close would
// truncate the still-live ones — only the last Close tears the
// producers down.
type exchange struct {
	ctx    context.Context
	cancel context.CancelFunc
	refs   atomic.Int32
}

// newExchange derives an exchange lifecycle with the given number of
// consumer-side iterators from the execution context.
func (e *executor) newExchange(consumers int) *exchange {
	ctx, cancel := context.WithCancel(e.ctx)
	x := &exchange{ctx: ctx, cancel: cancel}
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

// morselTableIter is the scan source: fragments claim morsels
// (contiguous row ranges) of a shared table through an atomic cursor, so
// fragment load balances even when per-row costs are skewed. One iterator
// per fragment; the counter is shared across all of them. Each claim
// probes the execution context: a single-fragment pipeline runs entirely
// on the consumer's goroutine, so this probe (amortized per morsel of
// rows) is its only mid-stream cancellation point — blocking drains
// above it (hash-join builds, blocking sweeps) end early
// with the context's error instead of running to completion.
type morselTableIter struct {
	ctx    context.Context
	t      *engine.Table
	ctr    *atomic.Int64
	size   int
	i, end int // current claimed morsel [i, end)
	err    error
}

func (it *morselTableIter) Schema() tuple.Schema { return it.t.Schema }

// claim takes the next morsel off the shared cursor; false at the end
// of the table or on cancellation.
func (it *morselTableIter) claim() bool {
	if it.err = it.ctx.Err(); it.err != nil {
		return false
	}
	start := int(it.ctr.Add(int64(it.size))) - it.size
	if start >= len(it.t.Rows) {
		return false
	}
	it.i, it.end = start, min(start+it.size, len(it.t.Rows))
	return true
}

// NextBatch hands out the remainder of the claimed morsel (up to the
// consumer's capacity) as one slice append.
func (it *morselTableIter) NextBatch(b *engine.RowBatch) bool {
	b.Reset()
	if it.i >= it.end && !it.claim() {
		return false
	}
	n := min(it.end-it.i, b.Cap())
	b.Rows = append(b.Rows, it.t.Rows[it.i:it.i+n]...)
	it.i += n
	return true
}

func (it *morselTableIter) Close() {}

// Err reports the cancellation that ended the scan early.
func (it *morselTableIter) Err() error { return it.err }

// chanIter is the receiving end of a repartition exchange: one of W
// worker-side iterators pulling batches from a shared channel fed by a
// distributor goroutine. The batch-draining loop is chanCursor's, so
// the ctx-aware receive cannot drift between the RowIter form and the
// ordered-merge rowSource form. It ends without an error of its own:
// producer failures reach the executor's central error slot.
type chanIter struct {
	x      *exchange
	schema tuple.Schema
	cur    chanCursor
	closed bool
}

func (it *chanIter) Schema() tuple.Schema { return it.schema }

// NextBatch adopts a whole transport batch — the zero-copy
// pass-through.
func (it *chanIter) NextBatch(b *engine.RowBatch) bool {
	return it.cur.nextBatch(it.x.ctx, b)
}

func (it *chanIter) Err() error { return nil }

// Close releases this consumer's reference on the exchange; the last
// partition closed cancels the producers (see exchange).
func (it *chanIter) Close() {
	if !it.closed {
		it.closed = true
		it.x.release()
	}
}

// mergeIter is the merge exchange: W fragment goroutines each drain one
// per-worker iterator into batches and push them onto a shared bounded
// channel; the iterator pulls batches off in arrival order. Merge order
// is nondeterministic, which is sound because period relations are
// multisets. Goroutine lifetime is owned by the executor: cancellation
// of the execution context stops every producer, and the channel is
// closed once all of them have exited. Like chanIter it ends without an
// error of its own.
type mergeIter struct {
	x      *exchange
	schema tuple.Schema
	ch     <-chan batch
	closed bool
}

func (it *mergeIter) Schema() tuple.Schema { return it.schema }

// NextBatch adopts one transport batch wholesale (transport batches are
// freshly allocated per send, so the hand-off is zero-copy).
func (it *mergeIter) NextBatch(b *engine.RowBatch) bool {
	b.Reset()
	if it.x.ctx.Err() != nil {
		return false
	}
	nb, ok := <-it.ch
	if !ok {
		return false
	}
	b.Rows = nb
	return true
}

func (it *mergeIter) Err() error { return nil }

// Close releases the merge's single consumer reference, canceling the
// producers — closing a merged iterator before exhaustion no longer
// strands them on the bounded channel until executor teardown.
func (it *mergeIter) Close() {
	if !it.closed {
		it.closed = true
		it.x.release()
	}
}

// startMerge spawns one producer goroutine per part and returns the
// merged stream. Producers exit when their input is exhausted or the
// execution context is canceled; a closer goroutine closes the channel
// once all producers are done, which is how the consumer observes
// end-of-stream.
func (e *executor) startMerge(parts []engine.RowIter, parent *engine.OpStats) engine.RowIter {
	st := parent.Child("Exchange:merge", fmt.Sprintf("fanin=%d", len(parts)))
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
			defer e.recoverPanic("exchange:merge producer")
			defer part.Close()
			e.drainInto(x.ctx, part, ch, st, false)
		}()
	}
	e.wg.Add(1)
	//lint:leakcheck bounded by construction: waits only on producers that are themselves cancellation-aware via drainInto
	go func() {
		defer e.wg.Done()
		defer e.recoverPanic("exchange:merge closer")
		producers.Wait()
		close(ch)
	}()
	return engine.NewObsIter(e.inject("exchange:merge", &mergeIter{x: x, schema: schema, ch: ch}), st)
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
// cancellation of the exchange context. The input's operator chain fills
// each transport batch directly through NextBatch, and the slice is
// handed over wholesale (a fresh slice per send, because the consumer
// adopts it). With st non-nil the producer's
// blocked time is recorded (and each batch sent, when countBatch says
// the consumer side is not already counting them).
// A drain that ends because its input FAILED (rather than ended
// naturally) reports the input's terminal error to the executor's
// central error slot, per the error-carrying iterator protocol:
// exchange consumers only ever observe a clean end-of-stream, so the
// producer side is where a truncation must be converted into a query
// error. A failed drain ends on the failing pull, so no rows of a
// failed stream are sent after it.
func (e *executor) drainInto(ctx context.Context, it engine.RowIter, ch chan<- batch, st *engine.OpStats, countBatch bool) {
	for {
		// One cancellation probe per batch: NextBatch can spin for a
		// while on selective operators, and the send below only
		// observes cancellation when it actually blocks.
		if ctx.Err() != nil {
			return
		}
		rb := engine.RowBatch{Rows: make([]tuple.Tuple, 0, e.morsel)}
		if !it.NextBatch(&rb) {
			e.fail(it.Err())
			return
		}
		if !e.send(ctx, ch, batch(rb.Rows), st, countBatch) {
			return
		}
	}
}

// hashPartition converts a stream — given as its physical sources, one
// per already-running fragment — into W worker-side iterators by
// hashing the key columns: every row of one key group lands in the
// same partition, which is what lets each worker run an independent
// sweep (coalesce / split-aggregate / difference) over its partition
// with no cross-worker coordination. One distributor goroutine per
// source hashes into the shared bounded per-partition channels, so
// partitioned inputs are redistributed without first being serialized
// through a merge exchange; cancellation of the execution context
// unblocks both sides.
func (e *executor) hashPartition(srcs []engine.RowIter, keyIdx []int, parent *engine.OpStats) []engine.RowIter {
	st := parent.Child("Exchange:partition", fmt.Sprintf("fanout=%d", e.workers))
	st.InitParts(e.workers)
	schema := srcs[0].Schema()
	x := e.newExchange(e.workers)
	chans := make([]chan batch, e.workers)
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
			bufs := make([]batch, e.workers)
			for i := range bufs {
				bufs[i] = make(batch, 0, e.morsel)
			}
			flush := func(i int) bool {
				if len(bufs[i]) == 0 {
					return true
				}
				if !e.send(x.ctx, chans[i], bufs[i], st, true) {
					return false
				}
				st.AddPartRows(i, len(bufs[i]))
				bufs[i] = make(batch, 0, e.morsel)
				return true
			}
			var scratch []byte
			in := engine.NewRowBatch(e.morsel)
			for src.NextBatch(in) {
				for _, row := range in.Rows {
					scratch = row.AppendKey(scratch[:0], keyIdx)
					i := int(keyHash(scratch) % uint32(e.workers))
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
	parts := make([]engine.RowIter, e.workers)
	for i := range parts {
		parts[i] = e.inject(fmt.Sprintf("exchange:partition:%d", i),
			&chanIter{x: x, schema: schema, cur: chanCursor{ch: chans[i]}})
	}
	return parts
}

// keyHash is FNV-1a over a canonical tuple key encoding (produced
// allocation-free by tuple.AppendKey into a reusable scratch buffer).
func keyHash(key []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range key {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// rowSource is one input of an ordered k-way merge: a pull interface
// over the receiving end of a producer's batch transport (bounded
// channel or unbounded queue).
type rowSource interface {
	next(ctx context.Context) (tuple.Tuple, bool)
}

// chanCursor adapts one bounded batch channel to a rowSource.
type chanCursor struct {
	ch  <-chan batch
	cur batch
	i   int
}

func (c *chanCursor) next(ctx context.Context) (tuple.Tuple, bool) {
	for {
		if c.i < len(c.cur) {
			row := c.cur[c.i]
			c.i++
			return row, true
		}
		select {
		case <-ctx.Done():
			return nil, false
		case b, ok := <-c.ch:
			if !ok {
				return nil, false
			}
			c.cur, c.i = b, 0
		}
	}
}

// nextBatch adopts one transport batch wholesale into out (zero-copy —
// transport batches are freshly allocated per send). A cursor is driven
// either per row (an ordered-merge source) or per batch (a chanIter),
// never both.
func (c *chanCursor) nextBatch(ctx context.Context, out *engine.RowBatch) bool {
	out.Reset()
	select {
	case <-ctx.Done():
		return false
	case b, ok := <-c.ch:
		if !ok {
			return false
		}
		out.Rows = b
		return true
	}
}

// batchQueue is an unbounded batch mailbox used by the order-preserving
// repartition exchange. Unbounded is load-bearing, not a convenience:
// an ordered k-way merge cannot emit a row until EVERY live cursor has
// a head row, so if producers could block on a full partition buffer, a
// skewed key distribution deadlocks (producer s1 full toward partition
// w1 while w1's merge awaits s2, whose producer is full toward w2,
// whose merge awaits s1). The worst-case footprint is one partition's
// rows — exactly what the blocking sweep path materialized anyway.
type batchQueue struct {
	mu      sync.Mutex
	cond    sync.Cond
	batches []batch
	closed  bool
}

func newBatchQueue() *batchQueue {
	q := &batchQueue{}
	q.cond.L = &q.mu
	return q
}

func (q *batchQueue) put(b batch) {
	q.mu.Lock()
	q.batches = append(q.batches, b)
	q.mu.Unlock()
	q.cond.Signal()
}

// closeQ marks end-of-stream and wakes the consumer. Producers always
// close their queues on exit — including the cancellation path — which
// is what unblocks a consumer waiting in get.
func (q *batchQueue) closeQ() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

func (q *batchQueue) get() (batch, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.batches) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.batches) == 0 {
		return nil, false
	}
	b := q.batches[0]
	q.batches[0] = nil
	q.batches = q.batches[1:]
	return b, true
}

// queueCursor adapts one batchQueue to a rowSource. Cancellation is
// observed through the producer closing the queue, so get never blocks
// past teardown. When a governor is attached, the bytes a producer
// charged for each queued batch are released as the consumer takes it —
// the outstanding charge is exactly the queue depth, which is what the
// memory budget bounds on the otherwise-unbounded ordered transport.
// (Batches stranded in a torn-down queue stay charged; the governor's
// lifetime is the query's, so nothing leaks past it.)
type queueCursor struct {
	q        *batchQueue
	gov      *engine.Governor
	rowBytes int64
	cur      batch
	i        int
}

func (c *queueCursor) next(ctx context.Context) (tuple.Tuple, bool) {
	for {
		if c.i < len(c.cur) {
			row := c.cur[c.i]
			c.i++
			return row, true
		}
		b, ok := c.q.get()
		if !ok {
			return nil, false
		}
		c.gov.ReleaseMem(int64(len(b)) * c.rowBytes)
		c.cur, c.i = b, 0
	}
}

// orderedMergeIter is the order-preserving merge exchange: a k-way
// merge over per-producer sources in the sweep operators' canonical
// (begin, end) endpoint order — the same order engine.CompareEndpoints
// defines — so begin-sorted fragment streams merge into one
// begin-sorted stream and downstream streaming sweeps stay streaming.
// Each source holds at most one head row in the heap; the merge pulls a
// replacement only from the source it popped, which is what keeps
// per-fragment order intact. It ends without an error of its own:
// producer failures reach the executor's central error slot.
type orderedMergeIter struct {
	ctx    context.Context
	schema tuple.Schema
	srcs   []rowSource
	heap   []mergeEntry
	inited bool
	// onClose releases this consumer's reference on the owning exchange
	// (nil when the sources need no producer teardown).
	onClose func()
	closed  bool
}

// mergeEntry is one heap element: a source's current head row with its
// interval endpoints cached, so every sift comparison is two raw int64
// compares instead of re-extracting tagged values from the row.
type mergeEntry struct {
	begin, end int64
	row        tuple.Tuple
	src        rowSource
}

func newMergeEntry(row tuple.Tuple, src rowSource) mergeEntry {
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
	if !it.inited {
		it.inited = true
		for _, src := range it.srcs {
			if row, ok := src.next(it.ctx); ok {
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
	if nrow, ok := it.heap[0].src.next(it.ctx); ok {
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

// Close releases the consumer reference on the owning exchange, so
// closing an ordered-merge iterator before exhaustion unblocks its
// producers.
func (it *orderedMergeIter) Close() {
	if it.closed {
		return
	}
	it.closed = true
	if it.onClose != nil {
		it.onClose()
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
	srcs := make([]rowSource, len(parts))
	for i, part := range parts {
		//lint:ignore orderedchan safe bounded buffer: the merge consumer always drains the exact source it waits on, so a full buffer here cannot stall the heap
		ch := make(chan batch, 2)
		srcs[i] = &chanCursor{ch: ch}
		part := part
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			defer close(ch) // after recoverPanic: see startMerge
			defer e.recoverPanic("exchange:ordered-merge producer")
			defer part.Close()
			e.drainInto(x.ctx, part, ch, st, false)
		}()
	}
	return engine.NewObsIter(engine.CheckOrdered("ordered merge exchange",
		e.inject("exchange:ordered-merge",
			&orderedMergeIter{ctx: x.ctx, schema: schema, srcs: srcs, onClose: x.release})), st)
}

// hashPartitionOrdered is the order-preserving repartition exchange:
// like hashPartition it hashes the key columns so value-equivalent
// groups never straddle partitions, but it partitions BEFORE any
// order-destroying merge — each producer feeds a private queue per
// partition (preserving its fragment's begin order as a subsequence)
// and every partition-side iterator k-way merges its per-producer
// queues by endpoint order. With begin-sorted sources, every partition
// stream is begin-sorted, which is what lets each worker run a
// STREAMING sweep over its partition. See batchQueue for why the
// per-(source, partition) transport must be unbounded.
func (e *executor) hashPartitionOrdered(srcs []engine.RowIter, keyIdx []int, parent *engine.OpStats) []engine.RowIter {
	st := parent.Child("Exchange:ordered-partition", fmt.Sprintf("fanout=%d", e.workers))
	st.InitParts(e.workers)
	schema := srcs[0].Schema()
	x := e.newExchange(e.workers)
	queues := make([][]*batchQueue, len(srcs))
	for s := range queues {
		queues[s] = make([]*batchQueue, e.workers)
		for w := range queues[s] {
			queues[s][w] = newBatchQueue()
		}
	}
	rowBytes := engine.ApproxRowBytes(schema.Arity())
	for si, src := range srcs {
		si, src := si, src
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			defer func() { // after recoverPanic: see startMerge
				for _, q := range queues[si] {
					q.closeQ()
				}
			}()
			defer e.recoverPanic("exchange:ordered-partition producer")
			defer src.Close()
			bufs := make([]batch, e.workers)
			for i := range bufs {
				bufs[i] = make(batch, 0, e.morsel)
			}
			// put charges the batch against the memory budget before
			// queueing it (the consumer's queueCursor releases the charge
			// on take): the unbounded ordered transport is exactly where a
			// skewed query's state grows without backpressure, so this is
			// the governor's most load-bearing charge site.
			put := func(i int) bool {
				if err := e.gov.ChargeMem(int64(len(bufs[i])) * rowBytes); err != nil {
					e.fail(err)
					return false
				}
				queues[si][i].put(bufs[i])
				st.AddBatch()
				st.AddPartRows(i, len(bufs[i]))
				return true
			}
			var scratch []byte
			in := engine.NewRowBatch(e.morsel)
			for src.NextBatch(in) {
				for _, row := range in.Rows {
					scratch = row.AppendKey(scratch[:0], keyIdx)
					i := int(keyHash(scratch) % uint32(e.workers))
					//lint:ignore rowretain partition buffering for transport; rows are forwarded downstream unmodified
					bufs[i] = append(bufs[i], row)
					if len(bufs[i]) == e.morsel {
						// The cancellation probe runs once per batch, not per
						// row: queue puts never block, so this is the only
						// teardown point and ctx.Err is not free. (No wait
						// time to record for the same reason — only batch
						// counts.) The exchange context also covers
						// all-consumers-closed, so an early Close of every
						// partition stops this producer instead of letting it
						// pump the whole source into the unbounded queues.
						if x.ctx.Err() != nil {
							return
						}
						if !put(i) {
							return
						}
						bufs[i] = make(batch, 0, e.morsel)
					}
				}
			}
			// A failed source means the partitions are missing rows:
			// report it centrally and drop the trailing buffers.
			if err := src.Err(); err != nil {
				e.fail(err)
				return
			}
			for i := range bufs {
				if len(bufs[i]) > 0 && !put(i) {
					return
				}
			}
		}()
	}
	parts := make([]engine.RowIter, e.workers)
	for w := range parts {
		cursors := make([]rowSource, len(srcs))
		for s := range srcs {
			cursors[s] = &queueCursor{q: queues[s][w], gov: e.gov, rowBytes: rowBytes}
		}
		parts[w] = engine.CheckOrdered("ordered repartition exchange",
			e.inject(fmt.Sprintf("exchange:ordered-partition:%d", w),
				&orderedMergeIter{ctx: x.ctx, schema: schema, srcs: cursors, onClose: x.release}))
	}
	return parts
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
		e.drainInto(x.ctx, src, ch, st, true)
	}()
	parts := make([]engine.RowIter, e.workers)
	for i := range parts {
		parts[i] = e.inject(fmt.Sprintf("exchange:repartition:%d", i),
			&chanIter{x: x, schema: schema, cur: chanCursor{ch: ch}})
	}
	return parts
}
