package engine

import "snapk/internal/tuple"

// This file is the unit of the engine's one iterator protocol: every
// RowIter delivers rows a RowBatch at a time through NextBatch, so a
// chain of operators costs one virtual call per batch per operator
// boundary. Per-row iteration exists only at the public edge (the
// snapk.Rows cursor), which hands out the rows of its current batch.
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
// MaterializeErr) and by batches handed over with no backing yet: the
// same default as the parallel executor's exchange batches, so one
// knob governs both transports.
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

// Cap returns the row count a producer fills the batch to: its backing
// capacity, or DefaultBatchSize for a batch with no backing yet. A
// batch whose slice was adopted from a transport hand-off reports that
// slice's capacity.
func (b *RowBatch) Cap() int {
	if c := cap(b.Rows); c > 0 {
		return c
	}
	return DefaultBatchSize
}

// Append adds one row to the batch.
func (b *RowBatch) Append(row tuple.Tuple) { b.Rows = append(b.Rows, row) }

// AsBatchIter returns it: every RowIter is batch-driven. Kept for
// bench/spine; delete with ROADMAP 6.
func AsBatchIter(it RowIter, _ int) RowIter { return it }

// batchCursor is the in-operator read side of the protocol: an
// operator reads its one child through it, a batch at a time. The
// cursor's batch is allocated on the first read with the capacity the
// operator's consumer asked for, so the batch size a root drain picks
// carries down the whole chain.
type batchCursor struct {
	in RowIter
	b  RowBatch
	i  int
}

// refill reads the child's next batch into the cursor.
func (c *batchCursor) refill(capacity int) bool {
	if cap(c.b.Rows) == 0 {
		c.b.Rows = make([]tuple.Tuple, 0, capacity)
	}
	c.i = 0
	return c.in.NextBatch(&c.b)
}

// nextChunk returns every buffered row not yet handed out, refilling
// from the child when the buffer is empty — the bulk read for operators
// whose NextBatch processes rows with a plain range loop. The returned
// slice aliases the cursor's batch and is only valid until the next
// refill; operators consume it before returning.
func (c *batchCursor) nextChunk(capacity int) ([]tuple.Tuple, bool) {
	if c.i >= c.b.Len() && !c.refill(capacity) {
		return nil, false
	}
	rows := c.b.Rows[c.i:]
	c.i = c.b.Len()
	return rows, true
}

// next returns the child's next row, for operators whose own loop is
// per row (the hash-join probe, the streaming sweeps).
func (c *batchCursor) next(capacity int) (tuple.Tuple, bool) {
	if c.i >= c.b.Len() && !c.refill(capacity) {
		return nil, false
	}
	row := c.b.Rows[c.i]
	c.i++
	return row, true
}
