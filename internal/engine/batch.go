package engine

import "snapk/internal/tuple"

// This file is the batch-at-a-time execution protocol: the vectorized
// hop over the Volcano per-row Next() tax. A RowBatch is a reusable
// slice of row references with capacity/length discipline; BatchIter is
// the amortized sibling of RowIter. Operators that can amortize work
// per batch — table and morsel scans, Filter, Project, the hash-join
// probe, the three streaming sweeps and every exchange — implement BOTH
// interfaces, so a consumer that calls NextBatch drives the whole chain
// batch-at-a-time (one virtual call per batch per operator boundary)
// while per-row consumers keep working unchanged. The two adapters
// bridge the remaining gaps in either direction.
//
// Ownership rules of the protocol:
//
//   - Row tuples inside a batch follow the engine-wide row invariant:
//     producers never mutate or reuse a yielded row's backing array, so
//     holding an individual row across NextBatch calls is safe.
//   - The batch's ROW SLICE is only valid until the next NextBatch call
//     on the same iterator: producers may adopt, replace or reuse it.
//     Retaining b.Rows (or a sub-slice of it) in a field, map or channel
//     is the batch-boundary aliasing class — copy the rows out instead.
//     The rowretain analyzer and the snapdebug CheckNoAlias layer both
//     watch for violations.

// RowBatch is the unit of batch execution: a reusable slice of
// period-encoded rows. The capacity set at construction is the TARGET
// fill: producers filling row by row stop there (a ragged final batch
// is normal), but a producer sitting on a transport hand-off (the
// exchange consumers) may adopt the whole transport slice wholesale,
// delivering MORE rows than the requested capacity. Consumers must
// size their reads off Len(), never off the capacity they asked for.
type RowBatch struct {
	// Rows holds the batch's row references. Producers fill it via
	// Append (or adopt a transport slice wholesale); consumers must
	// treat it as invalid after the next NextBatch call.
	Rows []tuple.Tuple
}

// DefaultBatchSize is the row capacity used by root drains (cursor,
// Materialize) and the row→batch adapter when no explicit size is
// threaded through: the same default as the parallel executor's
// exchange batches, so one knob governs both transports.
const DefaultBatchSize = 256

// NewRowBatch returns an empty batch with the given row capacity
// (values < 1 select DefaultBatchSize).
func NewRowBatch(capacity int) *RowBatch {
	if capacity < 1 {
		capacity = DefaultBatchSize
	}
	return &RowBatch{Rows: make([]tuple.Tuple, 0, capacity)}
}

// Reset empties the batch for refilling, keeping its backing capacity.
func (b *RowBatch) Reset() { b.Rows = b.Rows[:0] }

// Len returns the number of rows currently in the batch.
func (b *RowBatch) Len() int { return len(b.Rows) }

// Cap returns the batch's row capacity. A batch whose slice was adopted
// from a transport hand-off reports that slice's capacity.
func (b *RowBatch) Cap() int { return cap(b.Rows) }

// Append adds one row to the batch.
func (b *RowBatch) Append(row tuple.Tuple) { b.Rows = append(b.Rows, row) }

// Full reports whether the batch has reached its capacity.
func (b *RowBatch) Full() bool { return len(b.Rows) >= cap(b.Rows) }

// BatchIter is the batch-at-a-time iterator protocol. NextBatch resets
// b, fills it with up to Cap rows and reports whether it delivered at
// least one; false means end of stream (b is left empty). A true return
// with fewer than Cap rows is legal anywhere in the stream — operators
// may emit what they have rather than block for a full batch — so
// consumers must not treat a ragged batch as end of input.
//
// Every BatchIter in this engine also implements RowIter; Schema and
// Close are shared. Mixing Next and NextBatch on the same iterator is
// allowed (rows are never lost or duplicated), though drivers normally
// pick one form and stay with it.
type BatchIter interface {
	Schema() tuple.Schema
	NextBatch(b *RowBatch) bool
	Close()
}

// AsBatchIter returns the batch form of it: the iterator itself when it
// implements BatchIter natively, otherwise a per-row pulling adapter
// with the given batch capacity (values < 1 select DefaultBatchSize).
func AsBatchIter(it RowIter, capacity int) BatchIter {
	if b, ok := it.(BatchIter); ok {
		return b
	}
	return &batchAdapter{in: it, capacity: capacity}
}

// batchAdapter lifts a per-row iterator to the batch protocol by
// pulling rows one at a time — the compatibility shim that lets
// unconverted operators keep working inside a batch-driven chain. The
// amortization is lost across this hop but correctness is identical.
type batchAdapter struct {
	in       RowIter
	capacity int
}

func (a *batchAdapter) Schema() tuple.Schema { return a.in.Schema() }

func (a *batchAdapter) NextBatch(b *RowBatch) bool {
	b.Reset()
	limit := cap(b.Rows)
	if limit < 1 {
		limit = a.capacity
		if limit < 1 {
			limit = DefaultBatchSize
		}
	}
	for len(b.Rows) < limit {
		row, ok := a.in.Next()
		if !ok {
			break
		}
		b.Append(row)
	}
	return b.Len() > 0
}

func (a *batchAdapter) Next() (tuple.Tuple, bool) { return a.in.Next() }

func (a *batchAdapter) Close() { a.in.Close() }

// Err delegates the terminal error to the wrapped per-row iterator.
func (a *batchAdapter) Err() error { return IterErr(a.in) }

// NewRowAdapter lowers a batch iterator to the per-row protocol: the
// adapter pulls one batch at a time and hands its rows out per Next
// call. size < 1 selects DefaultBatchSize.
func NewRowAdapter(in BatchIter, size int) RowIter {
	return &rowAdapter{in: in, b: NewRowBatch(size)}
}

type rowAdapter struct {
	in BatchIter
	b  *RowBatch
	i  int
}

func (a *rowAdapter) Schema() tuple.Schema { return a.in.Schema() }

func (a *rowAdapter) Next() (tuple.Tuple, bool) {
	for {
		if a.i < a.b.Len() {
			row := a.b.Rows[a.i]
			a.i++
			return row, true
		}
		if !a.in.NextBatch(a.b) {
			return nil, false
		}
		a.i = 0
	}
}

func (a *rowAdapter) Close() { a.in.Close() }

// Err delegates the terminal error to the wrapped batch iterator.
func (a *rowAdapter) Err() error {
	if e, ok := a.in.(ErrIter); ok {
		return e.Err()
	}
	return nil
}

// batchCursor is the in-operator read side of the batch protocol: a
// converted operator reads its child through one of these, and the
// cursor pulls per batch once enableBatch has run (per row before).
// Keeping the cursor inside the operator struct — instead of wrapping
// the child — means the operator's own Next keeps working unchanged
// when the consumer never asks for batches.
type batchCursor struct {
	in  RowIter
	src BatchIter // non-nil once batch reads are enabled
	b   *RowBatch
	i   int
}

// enableBatch switches the cursor to batch reads with the given
// capacity. Idempotent; rows already buffered are never lost.
func (c *batchCursor) enableBatch(capacity int) {
	if c.src != nil {
		return
	}
	c.src = AsBatchIter(c.in, capacity)
	c.b = NewRowBatch(capacity)
	c.i = 0
}

// nextChunk returns every buffered row not yet handed out per-row,
// refilling from the child when the buffer is empty — the bulk read for
// operators whose NextBatch processes rows with a plain range loop
// instead of one cursor call per row. The returned slice aliases the
// cursor's batch and is only valid until the next refill; operators
// consume it before returning. Draining the buffer first keeps mixed
// Next/nextChunk drives lossless. Requires enableBatch to have run.
func (c *batchCursor) nextChunk() ([]tuple.Tuple, bool) {
	if c.i >= c.b.Len() {
		if !c.src.NextBatch(c.b) {
			return nil, false
		}
		c.i = 0
	}
	rows := c.b.Rows[c.i:]
	c.i = c.b.Len()
	return rows, true
}

// next returns the child's next row, amortizing the pull per batch when
// batch reads are enabled.
func (c *batchCursor) next() (tuple.Tuple, bool) {
	if c.src == nil {
		return c.in.Next()
	}
	for {
		if c.i < c.b.Len() {
			row := c.b.Rows[c.i]
			c.i++
			return row, true
		}
		if !c.src.NextBatch(c.b) {
			return nil, false
		}
		c.i = 0
	}
}
