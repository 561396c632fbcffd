package engine

// This file is the per-query fault domain of the engine: the
// error-carrying half of the iterator protocol (RowIter.Err), the
// error-aware drain (MaterializeErr) and the per-query resource
// governor (deadline, row limit, memory budget over the state the
// observability layer already accounts for).
//
// Err is consulted once, at end of stream, so the hot path pays
// nothing for it. The contract is:
//
//   - NextBatch returning false means the stream ENDED; it does not say
//     why. A consumer that cares whether the end was natural must
//     follow the exhausted drain with an Err check (Err on the
//     iterator it drained, or Rows.Err on the cursor).
//   - Err returns nil after a natural end of stream, and the first
//     error that terminated the stream early otherwise: a failed
//     operator, an injected chaos fault, a contained panic, a tripped
//     resource limit, or context cancellation.
//   - Operators delegate Err to their children, so the root of a
//     sequential pipeline reports the deepest failure; pipelines with
//     goroutine boundaries (the parallel executor's exchanges) funnel
//     producer-side errors into the executor's central error slot
//     instead, and the root iterator checks both.
//
// The snapdebug build tag adds CheckErrChecked, which asserts the first
// rule at the stream root: an exhausted-then-Closed iterator whose Err
// was never consulted panics naming the offending drain site. The
// errpropagate snaplint analyzer enforces the same rule statically.

import (
	"errors"
	"sync/atomic"
	"time"

	"snapk/internal/tuple"
)

// IterErr returns it.Err(). Kept for bench/spine; delete with
// ROADMAP 6.
func IterErr(it RowIter) error { return it.Err() }

// FirstErr returns the first non-nil error of errs.
func FirstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// MaterializeErr drains it into a table and reports the error that
// ended the stream early, nil on a natural end. It does not Close it.
// Use this instead of Materialize wherever a truncated drain must not
// silently pass for a complete one.
func MaterializeErr(it RowIter) (*Table, error) {
	t := &Table{Schema: it.Schema()}
	b := NewRowBatch(DefaultBatchSize)
	for it.NextBatch(b) {
		// Materialization is the ownership hand-off point: the batch's
		// row slice is copied out before the producer reuses it, and
		// engine producers never reuse yielded row backing arrays.
		t.Rows = append(t.Rows, b.Rows...)
	}
	return t, it.Err()
}

// IterWrapper is an iterator-wrapping hook: given a stable site name
// ("scan:emp", "exchange:merge") and the iterator built there, it
// returns the iterator to use instead. The chaos fault-injection layer
// plugs in through this shape (rewrite.Options.Inject,
// parallel.Options.Inject); nil means no wrapping.
type IterWrapper func(site string, it RowIter) RowIter

// Typed resource-governor errors. They are surfaced through the
// error-carrying iterator protocol (Rows.Err on the cursor), so
// callers can errors.Is against them to distinguish graceful
// degradation from genuine failures.
var (
	// ErrRowLimit terminates a query whose result exceeded the
	// configured row limit.
	ErrRowLimit = errors.New("engine: query row limit exceeded")
	// ErrMemBudget terminates a query whose tracked operator state
	// (sweep open intervals and active groups, the inputs a blocking
	// sweep or sort materializes, hash-join build side, ordered-exchange
	// queue depth) exceeded the configured budget.
	ErrMemBudget = errors.New("engine: query memory budget exceeded")
)

// Limits configures the per-query resource governor. The zero value
// disables governing entirely.
type Limits struct {
	// Timeout bounds query wall time; the query ends with
	// context.DeadlineExceeded through Err when it fires. Zero
	// disables.
	Timeout time.Duration
	// RowLimit bounds the rows a query may emit through its root
	// cursor; exceeding it ends the query with ErrRowLimit. Zero
	// disables.
	RowLimit int64
	// MemBudget bounds the bytes of tracked operator state — streaming
	// sweep state (the max_state accounting EXPLAIN ANALYZE reports),
	// the partitions blocking sweeps and sorts materialize, hash-join
	// build sides, and ordered-exchange queue depth —
	// charged through ApproxRowBytes estimates. Exceeding it ends the
	// query with ErrMemBudget. Zero disables.
	MemBudget int64
}

// Enabled reports whether any limit is set.
func (l Limits) Enabled() bool {
	return l.Timeout > 0 || l.RowLimit > 0 || l.MemBudget > 0
}

// Governor enforces one query's Limits. All methods are nil-safe and
// safe for concurrent use from fragment goroutines; a nil *Governor is
// the production fast path (no limits, no cost).
type Governor struct {
	lim  Limits
	rows atomic.Int64
	mem  atomic.Int64
}

// NewGovernor returns a governor for lim, or nil when no limit is set
// (so every charge site stays on its nil fast path).
func NewGovernor(lim Limits) *Governor {
	if !lim.Enabled() {
		return nil
	}
	return &Governor{lim: lim}
}

// Timeout returns the configured per-query deadline (0 when none, and
// on a nil governor).
func (g *Governor) Timeout() time.Duration {
	if g == nil {
		return 0
	}
	return g.lim.Timeout
}

// CountRows records a batch of n rows emitted through the query root.
// It returns how many of them fit under the row limit — n, unless the
// batch crosses it — and ErrRowLimit once the total exceeds the limit.
func (g *Governor) CountRows(n int64) (int64, error) {
	if g == nil || g.lim.RowLimit <= 0 {
		return n, nil
	}
	if over := g.rows.Add(n) - g.lim.RowLimit; over > 0 {
		return max(n-over, 0), ErrRowLimit
	}
	return n, nil
}

// ChargeMem charges n bytes of tracked operator state and returns
// ErrMemBudget once the outstanding total exceeds the budget. The
// charge sticks even on error, so concurrent charge sites observe the
// breach consistently; a query over budget is terminating anyway.
func (g *Governor) ChargeMem(n int64) error {
	if g == nil || g.lim.MemBudget <= 0 {
		return nil
	}
	if g.mem.Add(n) > g.lim.MemBudget {
		return ErrMemBudget
	}
	return nil
}

// ReleaseMem returns n bytes of tracked state (a drained exchange
// queue batch, a closed operator's state).
func (g *Governor) ReleaseMem(n int64) {
	if g == nil || g.lim.MemBudget <= 0 {
		return
	}
	g.mem.Add(-n)
}

// MemInUse returns the currently outstanding tracked bytes (0 on a nil
// governor); exposed for tests and diagnostics.
func (g *Governor) MemInUse() int64 {
	if g == nil {
		return 0
	}
	return g.mem.Load()
}

// ApproxRowBytes estimates the in-memory footprint of one period row
// of the given arity: the slice header and backing array plus the
// tagged values. It is deliberately a cheap static estimate — the
// governor bounds state growth, it does not meter the allocator.
func ApproxRowBytes(arity int) int64 {
	return 48 + 16*int64(arity)
}

// GovernState wraps a sweep iterator with memory-budget accounting of
// its peak state: the same open-interval/active-group count the
// observability layer reports as max_state, priced at unitBytes per
// unit. The charge is topped up after every pull from in — the state
// only grows while in works, and a sweep may do all of its work in the
// one pull that returns its few output rows, or in the one that reports
// end of stream — and released on Close. When in does not expose
// StateSizer (or gov is nil) the input is returned unchanged.
func GovernState(in RowIter, gov *Governor, unitBytes int64) RowIter {
	sz, ok := in.(StateSizer)
	if !ok || gov == nil {
		return in
	}
	return &govStateIter{in: in, sizer: sz, gov: gov, unit: unitBytes}
}

type govStateIter struct {
	in      RowIter
	sizer   StateSizer
	gov     *Governor
	unit    int64
	charged int64 // state units charged so far (monotone: MaxState is a peak)
	err     error
	closed  bool
}

func (it *govStateIter) Schema() tuple.Schema { return it.in.Schema() }

// MaxState forwards the StateSizer hook so EXPLAIN ANALYZE still sees
// the sweep's peak state through the governor wrapper.
func (it *govStateIter) MaxState() int64 { return it.sizer.MaxState() }

// charge tops the charged amount up to the current peak state.
func (it *govStateIter) charge() error {
	cur := it.sizer.MaxState()
	if cur > it.charged {
		err := it.gov.ChargeMem((cur - it.charged) * it.unit)
		it.charged = cur
		return err
	}
	return nil
}

func (it *govStateIter) NextBatch(b *RowBatch) bool {
	if it.err != nil {
		b.Reset()
		return false
	}
	ok := it.in.NextBatch(b)
	if it.err = it.charge(); it.err != nil {
		b.Reset()
		return false
	}
	return ok
}

func (it *govStateIter) Close() {
	if !it.closed {
		it.closed = true
		it.gov.ReleaseMem(it.charged * it.unit)
	}
	it.in.Close()
}

func (it *govStateIter) Err() error { return FirstErr(it.err, it.in.Err()) }
