package engine

import (
	"slices"

	"snapk/internal/tuple"
)

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
//   - Rows may share a slab: producers that build rows (projections,
//     sweep outputs) carve them from one backing array (rowArena). Each
//     row is cut with a 3-index slice (len == cap), so an append to one
//     row reallocates instead of writing into its neighbour, and a slab
//     is never reused once carved.
//   - Holding a row pins its whole slab. Sweep state that outlives a
//     batch therefore copies what it keeps (a group's key, the argument
//     values of an open aggregation row) instead of holding a sub-slice
//     of an input row.
//   - The batch's ROW SLICE is only valid until the next NextBatch call
//     on the same iterator: producers may adopt, replace or reuse it.
//     Retaining b.Rows (or a sub-slice of it) in a field, map or channel
//     is the batch-boundary aliasing class — copy the rows out instead.
//     The rowretain analyzer and the snapdebug CheckNoAlias layer both
//     watch for violations.
//   - Runs: under ℕ a result row carries its multiplicity, so a producer
//     that emits multiplicities as counts (RunIter: the difference and
//     coalesce sweeps, both drivers) hands each run's row out ONCE, with
//     its count, through NextRuns. NextBatch always expands a run into
//     that many distinct rows — the row itself, then fresh copies — so a
//     consumer that knows nothing of runs sees exactly the rows it always
//     did. The root wrappers forward runs — pulling with NextRuns,
//     counting with RunRows, cutting with CutRuns — and count them as
//     rows: ObsIter, GovernState's iterator, snapdebug's CheckNoAlias and
//     CheckErrChecked, chaos's fault iterator, and parallel's root and
//     blocking-sweep iterators. Exchanges, joins, filters and projections
//     do not: they pull NextBatch. Only the snapk.Rows cursor and
//     db.Query's result repeat a run's row.

// RunIter is the optional run form of the protocol, for iterators whose
// output carries ℕ multiplicities as counts. NextRuns fills b as
// NextBatch does, and *mult with one count ≥ 1 per row of b: the stream
// is each row of b repeated its count times. It reports whether b holds
// a row; b and *mult are empty when it does not. Iterators that only
// forward NextRuns fall back to NextBatch, with every count 1, over an
// input that is not a RunIter.
type RunIter interface {
	RowIter
	NextRuns(b *RowBatch, mult *[]int64) bool
}

// NextRuns pulls in's next batch into b as runs: through NextRuns when
// in is a RunIter, otherwise through NextBatch with every count 1. It is
// how every wrapper that forwards runs pulls its input.
func NextRuns(in RowIter, b *RowBatch, mult *[]int64) bool {
	if r, ok := in.(RunIter); ok {
		return r.NextRuns(b, mult)
	}
	ok := in.NextBatch(b)
	*mult = slices.Grow((*mult)[:0], b.Len())
	for range b.Rows {
		*mult = append(*mult, 1)
	}
	return ok
}

// RunRows returns the rows b stands for: the sum of its runs' counts in
// *mult, or b.Len() when mult is nil and b holds distinct rows.
func RunRows(b *RowBatch, mult *[]int64) int64 {
	if mult == nil {
		return int64(b.Len())
	}
	var n int64
	for _, k := range *mult {
		n += k
	}
	return n
}

// CutRuns cuts b to the runs its first keep rows fall in, the last one's
// count cut to the rows left for it — or, when mult is nil, to its first
// keep rows. A row limit or an injected fault that lands inside a run
// cuts it this way.
func CutRuns(b *RowBatch, mult *[]int64, keep int64) {
	if mult == nil {
		b.cut(int(keep))
		return
	}
	i := 0
	for ; i < len(*mult) && keep > 0; i++ {
		(*mult)[i] = min((*mult)[i], keep)
		keep -= (*mult)[i]
	}
	b.cut(i)
	*mult = (*mult)[:i]
}

// RowBatch is the unit of batch execution: a reusable slice of
// period-encoded rows. The capacity set at construction is the TARGET
// fill: producers stop there (a ragged final batch is normal), and the
// exchange consumers copy rows out of their transport batches rather
// than hand those over. Consumers size their reads off Len(), never
// off the capacity they asked for.
type RowBatch struct {
	// Rows holds the batch's row references. Producers fill it via
	// Append or append; consumers must treat it as invalid after the
	// next NextBatch call.
	Rows []tuple.Tuple
	// Codes, when not empty, holds one dense key code per row of Rows
	// (Table.KeyCodes): a scan whose streaming sweep groups by codes
	// emits them, and the operators between the two — the filter, the
	// window and the wrappers — keep them aligned with Rows. Empty
	// everywhere else.
	Codes []int32
}

// DefaultBatchSize is the row capacity used by root drains (cursor,
// MaterializeErr) and by batches handed over with no backing yet: the
// same default as the parallel executor's exchange batches, so one
// knob governs both transports. A consumer that waits for its first
// row (the snapk.Rows cursor, snapq -stream, a merge producer's first
// transport batch) asks for FirstBatchRows first and DefaultBatchSize
// after.
const DefaultBatchSize = 256

// FirstBatchRows is the capacity of a first-row consumer's first pull:
// the batch capacity carries down the operator chain, so a streaming
// sweep hands out its first rows once that many of its runs are final,
// not DefaultBatchSize. The pull fills a cut of the consumer's
// DefaultBatchSize backing, so the small batch takes no backing of its
// own.
const FirstBatchRows = 16

// NewRowBatch returns an empty batch with the given row capacity
// (values < 1 select DefaultBatchSize).
func NewRowBatch(capacity int) *RowBatch {
	if capacity < 1 {
		capacity = DefaultBatchSize
	}
	return &RowBatch{Rows: make([]tuple.Tuple, 0, capacity)}
}

// Reset empties the batch for refilling, keeping its backing capacity.
func (b *RowBatch) Reset() { b.Rows, b.Codes = b.Rows[:0], b.Codes[:0] }

// cut keeps the batch's first n rows and their codes.
func (b *RowBatch) cut(n int) {
	b.Rows = b.Rows[:n]
	if len(b.Codes) > n {
		b.Codes = b.Codes[:n]
	}
}

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
// operator reads its one child through it, a batch at a time, each
// read with the capacity the operator's consumer asked for, so the
// batch size a root drain picks carries down the whole chain. Every
// read fills a cut of one backing of at least DefaultBatchSize rows,
// allocated on the first read, so a small first batch (FirstBatchRows)
// allocates nothing of its own and leaves no small batches behind.
type batchCursor struct {
	in   RowIter
	b    RowBatch
	i    int
	rows []tuple.Tuple // the backing every read is cut from
}

// refill reads the child's next batch, up to capacity rows, into the
// cursor.
func (c *batchCursor) refill(capacity int) bool {
	if cap(c.rows) < capacity {
		c.rows = make([]tuple.Tuple, 0, max(capacity, DefaultBatchSize))
	}
	c.b.Rows = c.rows[:0:capacity]
	c.i = 0
	return c.in.NextBatch(&c.b)
}

// nextChunk returns every buffered row not yet handed out, refilling
// from the child when the buffer is empty — the bulk read for operators
// whose NextBatch processes rows with a plain range loop. The returned
// slice aliases the cursor's batch and is only valid until the next
// refill; operators consume it before returning.
func (c *batchCursor) nextChunk(capacity int) ([]tuple.Tuple, bool) {
	rows, _, ok := c.nextCodedChunk(capacity)
	return rows, ok
}

// nextCodedChunk is nextChunk with the rows' key codes, or nil codes
// when the child emits none: the read of the operators that keep codes
// aligned (the filter and the window).
func (c *batchCursor) nextCodedChunk(capacity int) (rows []tuple.Tuple, codes []int32, ok bool) {
	if c.i >= c.b.Len() && !c.refill(capacity) {
		return nil, nil, false
	}
	rows = c.b.Rows[c.i:]
	if len(c.b.Codes) > 0 {
		codes = c.b.Codes[c.i:]
	}
	c.i = c.b.Len()
	return rows, codes, true
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

// code returns the key code of the row next returned last; the child
// must emit codes.
func (c *batchCursor) code() int32 { return c.b.Codes[c.i-1] }

// slabValues caps one row slab at 32 KiB of tuple.Values (16 bytes
// each): the largest small-object size class, so a slab of wide rows
// never rounds up to whole pages.
const slabValues = 2048

// firstChunkRows is the row count of a growing arena's first chunk: a
// sweep that emits a handful of rows allocates a handful of rows.
const firstChunkRows = 4

// rowArena carves fresh output rows from shared slabs, so a producer
// allocates once per slab rather than once per row. Every row it hands
// out is a 3-index slice (len == cap) of a slab that is never reused:
// rows stay independent of their neighbours, and a consumer may hold
// any of them. An arena is single-goroutine state of its producer.
//
// Slabs are sized exactly when the producer knows how many rows follow
// (expect) and otherwise grow geometrically from firstChunkRows rows up
// to the slabValues cap.
type rowArena struct {
	free  tuple.Tuple // uncarved tail of the current slab
	left  int         // rows announced by expect and not yet in a slab
	chunk int         // rows in the next growing slab
}

// expect announces that exactly n more rows of the current width will
// be carved, so the next slabs are cut to them instead of growing.
func (a *rowArena) expect(n int) { a.left = n }

// row returns a fresh zeroed row of width w with len == cap.
func (a *rowArena) row(w int) tuple.Tuple {
	if len(a.free) < w {
		limit := max(1, slabValues/w)
		var n int
		if a.left > 0 {
			n = min(a.left, limit)
			a.left -= n
		} else {
			n = min(max(a.chunk, firstChunkRows), limit)
			a.chunk = min(2*n, limit)
		}
		a.free = make(tuple.Tuple, n*w)
	}
	r := a.free[:w:w]
	a.free = a.free[w:]
	return r
}
