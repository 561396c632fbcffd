package snapk

import (
	"context"
	"fmt"

	"snapk/internal/engine"
	"snapk/internal/obs"
	"snapk/internal/rewrite"
	"snapk/internal/sqlfe"
	"snapk/internal/tuple"
)

// Rows is a streaming cursor over a snapshot query result: the
// database/sql-style Next/Scan/Close triple. Unlike Query, which hands
// back a fully materialized Result, a Rows consumes the rewritten plan's
// pull-based pipeline row by row, so huge results can be processed in
// constant client memory. Canceling the context passed to QueryRows
// stops the stream (Next returns false and Err reports the cause) and
// tears down any parallel fragment goroutines.
//
// A Rows is not safe for concurrent use. Always Close it; Close is
// idempotent.
type Rows struct {
	ctx    context.Context
	it     engine.RowIter
	cols   []string
	cur    tuple.Tuple
	err    error
	closed bool
	done   bool
	// whole is set for a consumer that waits for the whole result: its
	// first pull asks for engine.DefaultBatchSize runs too.
	whole bool
	// emitted counts rows delivered through this cursor, flushed to the
	// process-wide registry once at end of stream / Close — a local
	// increment per row, never a per-row atomic on the cursor hot path.
	emitted int64
	flushed bool
	// Batch drain: the cursor pulls runs from the pipeline root with
	// engine.NextRuns — engine.FirstBatchRows on the first pull unless
	// whole is set, so the first row waits for no more than that many,
	// then engine.DefaultBatchSize per pull — and hands them out one row
	// at a time, the only per-row iteration in the system. Every pull fills a
	// cut of one backing, rows. Row i of the batch stands for mult[i]
	// rows (all 1 unless the root emits ℕ multiplicities as counts), and
	// the cursor repeats the current row rep more times before it moves
	// on. Row tuples are immutable once yielded, so the current row
	// staying live across a refill is safe; only the batch's row slice
	// is reused.
	b    engine.RowBatch
	rows []tuple.Tuple
	mult []int64
	bi   int
	rep  int64
	// unchecked counts the repeats since the context was last checked.
	unchecked int
	// boxes is a private copy of the current run's boxed values, once
	// boxed is set: a repeat copies them instead of boxing again, and
	// the caller may have changed any slice Values returned.
	boxes []any
	boxed bool
	// vals is the uncarved tail of the slab Values cuts its slices from.
	vals []any
	// bx boxes the values Values and Scan into *any hand out, from slabs
	// that reserve sizes to the rest of the batch.
	bx boxer
}

// QueryRows evaluates a snapshot SQL query under the Seq approach and
// returns a streaming cursor over the period-encoded result. The
// statement may optionally be wrapped in SEQ VT ( ... ). The query runs
// with the database's configured parallelism (SetParallelism).
func (db *DB) QueryRows(ctx context.Context, sql string) (*Rows, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	q, err := sqlfe.ParseAndTranslate(sql, db.eng)
	if err != nil {
		return nil, err
	}
	it, err := rewrite.Stream(ctx, db.eng, q, db.seqOptions(rewrite.ModeOptimized))
	if err != nil {
		return nil, err
	}
	return newRows(ctx, it), nil
}

// newRows returns the cursor over a query root stream.
func newRows(ctx context.Context, it engine.RowIter) *Rows {
	sch := it.Schema()
	return &Rows{
		ctx:  ctx,
		it:   it,
		cols: append([]string{}, sch.Cols[:sch.Arity()-2]...),
		rows: make([]tuple.Tuple, 0, engine.DefaultBatchSize),
		mult: make([]int64, 0, engine.DefaultBatchSize),
	}
}

// Columns returns the data column names of the result (the validity
// period is exposed separately through Period).
func (r *Rows) Columns() []string { return append([]string{}, r.cols...) }

// Next advances to the next result row, returning false when the stream
// is exhausted, canceled or closed. After Next returns false, check Err.
func (r *Rows) Next() bool {
	if r.closed || r.done {
		return false
	}
	row, ok := r.next()
	if !ok {
		r.done = true
		r.cur = nil
		r.flushEmitted()
		// The pipeline carries its own terminal error (the error-carrying
		// iterator protocol): cancellation, a tripped resource limit, a
		// failed operator or a contained panic all surface here, while a
		// naturally complete stream reports nil — so a cancel issued after
		// full consumption never retroactively becomes an error. A cancel
		// next saw during a run is already in r.err.
		r.err = engine.FirstErr(r.err, r.it.Err())
		return false
	}
	//lint:ignore rowretain the cursor row is exposed read-only via Scan/Values and replaced on the next Next
	r.cur = row
	r.emitted++
	return true
}

// repeatCheck is how many repeats of a run the cursor hands out between
// two checks of its context.
const repeatCheck = 4096

// next pulls the next result row — the current one again while its run
// lasts — refilling the cursor batch when it is used up: with
// FirstBatchRows runs before the first row unless whole is set,
// DefaultBatchSize after. The root checks the context on every pull, but
// a run repeats without one, so next checks it every repeatCheck
// repeats: a cancel lets through at most that many more rows of a run,
// and ends the stream with the context's error.
func (r *Rows) next() (tuple.Tuple, bool) {
	if r.rep > 0 {
		if r.unchecked++; r.unchecked == repeatCheck {
			r.unchecked = 0
			if r.err = r.ctx.Err(); r.err != nil {
				return nil, false
			}
		}
		r.rep--
		return r.cur, true
	}
	if r.bi >= r.b.Len() {
		n := engine.DefaultBatchSize
		if r.emitted == 0 && !r.whole {
			n = engine.FirstBatchRows
		}
		r.b.Rows = r.rows[:0:n]
		if !engine.NextRuns(r.it, &r.b, &r.mult) {
			return nil, false
		}
		r.bi = 0
	}
	row := r.b.Rows[r.bi]
	r.rep = r.mult[r.bi] - 1
	r.bi++
	r.boxed = false
	return row, true
}

// ahead returns the rows the cursor holds past the current one, a run's
// repeats included.
func (r *Rows) ahead() int64 {
	n := r.rep
	for _, k := range r.mult[r.bi:] {
		n += k
	}
	return n
}

// flushEmitted adds the cursor's row count to the process-wide registry
// exactly once, at end of stream or Close (whichever comes first).
func (r *Rows) flushEmitted() {
	if r.flushed {
		return
	}
	r.flushed = true
	if r.emitted > 0 {
		obs.Default.RowsEmitted.Add(r.emitted)
	}
}

// Err returns the error that ended iteration early — context
// cancellation, a deadline (context.DeadlineExceeded), a tripped
// resource limit (ErrRowLimit, ErrMemBudget), a failed operator or a
// contained panic — or nil after a natural end of stream. Like
// database/sql, always check Err after Next returns false.
func (r *Rows) Err() error {
	return r.err
}

// Period returns the validity interval [begin, end) of the current row,
// or zeros when called without a successful Next.
func (r *Rows) Period() (begin, end int64) {
	if r.cur == nil {
		return 0, 0
	}
	n := len(r.cur)
	return r.cur[n-2].AsInt(), r.cur[n-1].AsInt()
}

// valuesSlab caps the []any slab Values carves at 32 KiB, and each of
// the boxer's slabs at about as many slots.
const valuesSlab = 2048

// reserve makes room in the cursor's boxer for the current row's
// values. When a slab is short of them it is replaced by one sized to
// the rows of the batch from the current one on, whole rows until either
// slab reaches valuesSlab slots: the slots they take, rounded up to the
// slab's size class.
func (r *Rows) reserve() {
	n := len(r.cols)
	if r.bx.fits(r.cur[:n]) {
		return
	}
	var nums, strs int
	for _, row := range r.b.Rows[r.bi-1:] {
		a, b := slots(row[:n])
		if nums, strs = nums+a, strs+b; nums >= valuesSlab || strs >= valuesSlab {
			break
		}
	}
	r.bx.grow(nums, strs)
}

// Values returns the data column values of the current row as Go values
// (int64, float64, string, bool or nil), or nil when called without a
// successful Next. Each call returns a fresh slice that the caller may
// keep and modify: later Next and Values calls never change it. The
// values are boxed from slabs the cursor shares among many rows' values
// (box.go), so a retained value keeps its slab alive, as a retained
// slice keeps the slab it was cut from.
func (r *Rows) Values() []any {
	if r.cur == nil {
		return nil
	}
	n := len(r.cols)
	if n == 0 {
		return []any{}
	}
	if len(r.vals) < n {
		// One slab for the rest of the batch, this row included; the
		// slices cut from it are never handed out twice.
		rows := min(r.ahead()+1, int64(max(1, valuesSlab/n)))
		r.vals = make([]any, rows*int64(n))
	}
	out := r.vals[:n:n]
	r.vals = r.vals[n:]
	if r.boxed {
		copy(out, r.boxes)
		return out
	}
	r.reserve()
	r.bx.boxRow(out, r.cur[:n])
	if r.rep > 0 {
		r.boxes = append(r.boxes[:0], out...)
		r.boxed = true
	}
	return out
}

// Scan copies the data columns of the current row into dest, which must
// contain one pointer per column: *int64, *float64, *string, *bool or
// *any. NULL scans only into *any (as nil); numeric widening from BIGINT
// into *float64 is supported. It must only be called after a successful
// Next.
func (r *Rows) Scan(dest ...any) error {
	// database/sql semantics: once the stream has failed, every Scan
	// reports the stream error — a consumer that ignores Next's false
	// return cannot mistake a truncated result for a complete one.
	if r.err != nil {
		return r.err
	}
	if r.closed {
		return fmt.Errorf("snapk: Scan called on closed Rows")
	}
	if r.cur == nil {
		return fmt.Errorf("snapk: Scan called without a successful Next")
	}
	if len(dest) != len(r.cols) {
		return fmt.Errorf("snapk: Scan expects %d destinations, got %d", len(r.cols), len(dest))
	}
	for i, d := range dest {
		if p, ok := d.(*any); ok {
			*p = r.boxCol(i)
			continue
		}
		if err := scanValue(r.cur[i], d); err != nil {
			return fmt.Errorf("snapk: column %s: %w", r.cols[i], err)
		}
	}
	return nil
}

// boxCol returns column i of the current row boxed: the run's box when
// Values has boxed the run, a fresh one otherwise.
func (r *Rows) boxCol(i int) any {
	if r.boxed {
		return r.boxes[i]
	}
	r.reserve()
	return r.bx.box(r.cur[i])
}

// scanValue scans v into a typed destination.
func scanValue(v tuple.Value, dest any) error {
	if v.IsNull() {
		return fmt.Errorf("cannot scan NULL into %T (use *any)", dest)
	}
	switch p := dest.(type) {
	case *int64:
		if v.Kind() != tuple.KindInt {
			return fmt.Errorf("cannot scan %s into *int64", v.Kind())
		}
		*p = v.AsInt()
	case *float64:
		if v.Kind() != tuple.KindFloat && v.Kind() != tuple.KindInt {
			return fmt.Errorf("cannot scan %s into *float64", v.Kind())
		}
		*p = v.AsFloat()
	case *string:
		if v.Kind() != tuple.KindString {
			return fmt.Errorf("cannot scan %s into *string", v.Kind())
		}
		*p = v.AsString()
	case *bool:
		if v.Kind() != tuple.KindBool {
			return fmt.Errorf("cannot scan %s into *bool", v.Kind())
		}
		*p = v.AsBool()
	default:
		return fmt.Errorf("unsupported Scan destination %T", dest)
	}
	return nil
}

// Close releases the cursor and tears down the underlying pipeline,
// including any parallel fragment goroutines. It is idempotent. The
// current row is dropped: after Close, Scan errors and Period/Values
// return zero values, mirroring database/sql. A Close before the stream
// ends is a clean termination, not an error — Err stays nil.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.cur = nil
	r.flushEmitted()
	r.it.Close()
	return nil
}
