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
	// emitted counts rows delivered through this cursor, flushed to the
	// process-wide registry once at end of stream / Close — a local
	// increment per row, never a per-row atomic on the cursor hot path.
	emitted int64
	flushed bool
	// Batch drain: the cursor pulls engine.DefaultBatchSize rows per
	// NextBatch call on the pipeline root and hands them out one at a
	// time — the only per-row iteration in the system. Row tuples are
	// immutable once yielded, so the current row staying live across a
	// refill is safe; only the batch's row slice is reused.
	b  engine.RowBatch
	bi int
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
		b:    *engine.NewRowBatch(engine.DefaultBatchSize),
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
		// full consumption never retroactively becomes an error.
		r.err = r.it.Err()
		return false
	}
	//lint:ignore rowretain the cursor row is exposed read-only via Scan/Values and replaced on the next Next
	r.cur = row
	r.emitted++
	return true
}

// next pulls the next result row, refilling the cursor batch when it
// is used up.
func (r *Rows) next() (tuple.Tuple, bool) {
	if r.bi >= r.b.Len() {
		if !r.it.NextBatch(&r.b) {
			return nil, false
		}
		r.bi = 0
	}
	row := r.b.Rows[r.bi]
	r.bi++
	return row, true
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

// Values returns the data column values of the current row as Go values
// (int64, float64, string, bool or nil), or nil when called without a
// successful Next.
func (r *Rows) Values() []any {
	if r.cur == nil {
		return nil
	}
	out := make([]any, len(r.cols))
	for i := range r.cols {
		out[i] = fromValue(r.cur[i])
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
		v := r.cur[i]
		if err := scanValue(v, d); err != nil {
			return fmt.Errorf("snapk: column %s: %w", r.cols[i], err)
		}
	}
	return nil
}

func scanValue(v tuple.Value, dest any) error {
	if p, ok := dest.(*any); ok {
		*p = fromValue(v)
		return nil
	}
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
