// Package parallel is the engine's executor and the one lowering from
// an engine.Plan to iterators: every query runs through Exec, and
// EXPLAIN prints the placement decisions build() makes (explain.go).
// A plan is evaluated as pipeline fragments connected by exchange
// operators (partition / merge over bounded row-batch channels), in the
// morsel-driven style; sequential execution is the same code at one
// worker, where every stream is a single fragment and no goroutine,
// channel or exchange is created at all.
//
// The plan is split at exchange boundaries: table scans are partitioned
// into morsels claimed by W workers through a shared atomic cursor, and
// the streaming operators above a scan — Filter, Project, the probe side
// of the temporal hash join — are replicated into each worker's
// fragment, so an entire Filter→Probe→Project chain runs W-wide without
// synchronization until the final merge. The hash-join build side is
// drained once into an immutable shared table (engine.JoinBuild) that
// all probe fragments read concurrently, built on the side
// engine.DB.JoinStrategy picks. The sweep operators (split-based
// aggregation, difference, coalesce) are parallelized by a
// hash-partition exchange on their group key: value-equivalent groups
// never straddle partitions, so each worker runs an independent sweep
// over its partition and the merged output is multiset-identical to
// one-worker execution — and, since all rows of a group come from one
// sweep, still the unique coalesced encoding wherever the sweep emits
// it (engine.Coalesced).
//
// Interval-endpoint order is a first-class physical property of the
// executor (pstream.ordered): begin-sorted scans yield begin-sorted
// morsel fragments, Filter/Project preserve the order per fragment, and
// two ORDER-PRESERVING exchanges carry it across pipeline breaks — an
// ordered k-way merge (orderedMergeIter, driven by the shared
// engine.CompareEndpoints comparator) for the merge hop, and an ordered
// repartition (hashPartitionOrdered) that partitions straight from the
// sorted fragments, before any order-destroying merge. Each sweep has
// two physical forms, and the streams it is built over select one:
// place applies engine.DB.BeginOrder to the inputs' order, and when
// every input is ordered each fragment runs the STREAMING sweep over its
// begin-sorted partition with O(open intervals + active groups) state;
// otherwise each fragment materializes its partition on first pull and
// runs the blocking sweep (lazySweepIter). Global aggregation streams
// over the ordered merge of all fragments.
//
// Because period relations are multisets, the nondeterministic arrival
// order at an unordered merge exchange is semantically invisible: the
// result is multiset-identical at every worker count (enforced by the
// qgen equivalence suite and the parallel fuzz differential).
//
// Cancellation: Exec threads a context.Context through iterator
// creation. Canceling it — or closing the returned iterator — tears
// down every fragment goroutine; Close blocks until all of them have
// exited and is idempotent.
//
// Fault domain: the executor is the query's failure boundary. Every
// fragment goroutine and the root iterator run behind a recover() that
// converts a panic into a query error instead of crashing the process;
// the first error (panic, failed drain, tripped resource limit,
// cancellation) lands in the executor's central error slot, cancels the
// execution context — tearing down sibling fragments through the
// refcounted exchange lifecycle — and surfaces through the root
// iterator's Err, per the engine's error-carrying iterator protocol.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"snapk/internal/engine"
	"snapk/internal/obs"
	"snapk/internal/tuple"
)

// Options configures plan execution.
type Options struct {
	// Workers is the number of fragments per partitioned operator (and
	// of producer goroutines per exchange). Values below 1 default to
	// GOMAXPROCS. Workers == 1 is sequential execution: every stream is
	// one fragment pulled on the consumer's goroutine.
	Workers int
	// MorselSize is the number of rows per scan morsel, per exchange
	// batch and per batch pulled through the operator chain; 0 selects
	// the default (256).
	MorselSize int
	// Stats, when non-nil, is the EXPLAIN ANALYZE parent node: the
	// executor attaches one OpStats child per operator and exchange
	// (with per-fragment children for partitioned operators) beneath it
	// and wraps every physical iterator in an instrumented ObsIter. Nil
	// disables collection entirely — every wrapper is an identity no-op,
	// so the uninstrumented hot path is unchanged.
	Stats *engine.OpStats
	// Gov, when non-nil, is the per-query resource governor: the root
	// iterator charges emitted rows against its row limit, sweeps (the
	// blocking ones by their materialized inputs) and the hash-join
	// build charge their tracked state against its memory budget, and
	// the ordered-repartition queues charge their depth.
	// Tripping a limit fails the query with the governor's typed error.
	// Nil (the default) disables all charging.
	Gov *engine.Governor
	// Inject, when non-nil, wraps the iterator built at each operator
	// and exchange boundary — the chaos fault-injection hook. Production
	// queries leave it nil.
	Inject engine.IterWrapper
}

// DefaultMorselSize is the scan-morsel / exchange-batch row count used
// when Options.MorselSize is zero: large enough to amortize channel
// synchronization, small enough to load-balance skewed fragments.
const DefaultMorselSize = 256

// executor carries the per-Exec state: the cancellable execution
// context, the WaitGroup tracking every spawned fragment goroutine, and
// the query's fault-domain state (first-error slot, governor, inject
// hook).
type executor struct {
	ctx     context.Context
	cancel  context.CancelFunc
	db      *engine.DB
	workers int
	morsel  int
	wg      sync.WaitGroup
	// qerr holds the first error that failed the query; set through
	// fail, read per root pull through errOf (one atomic load).
	qerr atomic.Pointer[error]
	// closed is set by the root's Close before it cancels the context:
	// whatever a fragment observes after that is teardown, not failure.
	closed   atomic.Bool
	gov      *engine.Governor
	injectFn engine.IterWrapper
}

// fail records err as the query's terminal error (first one wins) and
// cancels the execution context, tearing down every sibling fragment
// through the refcounted exchange lifecycle. Safe from any goroutine;
// nil is a no-op, and so is any error reported after the root was
// closed — a cancellation observed because Close canceled the context
// is not an error at all.
func (e *executor) fail(err error) {
	if err == nil || e.closed.Load() {
		return
	}
	e.qerr.CompareAndSwap(nil, &err)
	e.cancel()
}

// errOf returns the query's terminal error, nil while healthy.
func (e *executor) errOf() error {
	if p := e.qerr.Load(); p != nil {
		return *p
	}
	return nil
}

// recoverPanic is the fragment-goroutine panic boundary: deferred at
// the top of every producer goroutine (and, via the root iterator's
// guarded pulls, at the consumer boundary), it converts a panic into a
// query error instead of crashing the process. The stack is folded into
// the error so a contained panic stays diagnosable through Rows.Err.
func (e *executor) recoverPanic(site string) {
	if r := recover(); r != nil {
		e.fail(fmt.Errorf("parallel: panic in %s: %v\n%s", site, r, debug.Stack()))
	}
}

// inject applies the chaos fault-injection hook at one operator or
// exchange boundary; identity when no hook is configured.
func (e *executor) inject(site string, it engine.RowIter) engine.RowIter {
	if e.injectFn == nil {
		return it
	}
	return e.injectFn(site, it)
}

// govern wraps a sweep iterator with memory-budget accounting of its
// peak state (identity when no governor or the iterator exposes no
// state). unit pricing uses the stream's row arity.
func (e *executor) govern(it engine.RowIter) engine.RowIter {
	if e.gov == nil {
		return it
	}
	return engine.GovernState(it, e.gov, engine.ApproxRowBytes(it.Schema().Arity()))
}

// pstream is a stream in its one physical form: a list of fragment
// iterators whose concatenation (in any interleaving) is the stream. A
// partitioned stream has one fragment per worker; a single-fragment
// stream is pulled directly, with no exchange in between — which is
// every stream at one worker. ordered carries the interval-endpoint sort
// property through the physical plan: when set, EVERY fragment
// individually yields rows in ascending begin order, so exchanges can
// preserve the order (ordered merge, ordered repartition) instead of
// destroying it, and the streaming sweeps stay streaming end to end.
type pstream struct {
	parts   []engine.RowIter
	schema  tuple.Schema
	ordered bool
}

func (s *pstream) shape() shape { return shape{frags: len(s.parts), ordered: s.ordered} }

func (s *pstream) close() { closeAll(s.parts) }

func closeAll(its []engine.RowIter) {
	for _, it := range its {
		it.Close()
	}
}

// dataSchema strips the period attributes from the stream schema.
func (s *pstream) dataSchema() tuple.Schema {
	return tuple.Schema{Cols: s.schema.Cols[:s.schema.Arity()-2]}
}

// Exec evaluates p on db with opt.Workers fragments per partitioned
// operator and returns a single row stream. The caller must Close it; Close (or cancellation of ctx) stops and reaps every fragment
// goroutine.
func Exec(ctx context.Context, db *engine.DB, p engine.Plan, opt Options) (engine.RowIter, error) {
	workers := opt.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	morsel := opt.MorselSize
	if morsel <= 0 {
		morsel = DefaultMorselSize
	}
	var ectx context.Context
	var cancel context.CancelFunc
	if d := opt.Gov.Timeout(); d > 0 {
		// The per-query deadline rides the execution context, so it
		// tears fragments down exactly like a user cancellation and
		// surfaces as context.DeadlineExceeded through Err.
		ectx, cancel = context.WithTimeout(ctx, d)
	} else {
		ectx, cancel = context.WithCancel(ctx)
	}
	e := &executor{ctx: ectx, cancel: cancel, db: db, workers: workers, morsel: morsel,
		gov: opt.Gov, injectFn: opt.Inject}
	s, err := e.buildSafe(p, opt.Stats)
	if err != nil {
		cancel()
		e.wg.Wait()
		return nil, err
	}
	// The outermost ObsIter counts rows on the parent node itself, so its
	// row count is exactly what the root cursor observes.
	root := engine.NewObsIter(engine.CheckNoAlias("parallel exec root", e.merge(s, opt.Stats)), opt.Stats)
	return &execIter{e: e, it: root}, nil
}

// buildSafe is the plan-build phase behind the panic boundary: a panic
// while compiling the plan (eager hash-join builds drain whole subplans
// here) becomes a returned error, and the caller's cancel-and-reap path
// tears down whatever fragments already started.
func (e *executor) buildSafe(p engine.Plan, parent *engine.OpStats) (s *pstream, err error) {
	defer func() {
		if r := recover(); r != nil {
			s, err = nil, fmt.Errorf("parallel: panic in plan build: %v\n%s", r, debug.Stack())
		}
	}()
	s, err = e.build(p, parent)
	if err == nil {
		// A build-phase drain may have failed through the central error
		// slot (producer panic, tripped limit) without the constructor
		// noticing: surface it now rather than running a doomed query.
		err = e.errOf()
		if err != nil {
			s.close()
			s = nil
		}
	}
	return s, err
}

// execIter is the root iterator returned by Exec: it owns the execution
// context and reaps all fragment goroutines on Close.
type execIter struct {
	e  *executor
	it engine.RowIter
}

func (it *execIter) Schema() tuple.Schema { return it.it.Schema() }

// gate runs the pre-pull checks: closed, already-failed, and context
// state. A context error observed while the
// iterator is still open is recorded as the query error — cancellation
// and deadline expiry surface through Err, not as a silent end of
// stream (fail drops it when Close canceled the context).
func (it *execIter) gate() bool {
	if it.e.closed.Load() || it.e.errOf() != nil {
		return false
	}
	if err := it.e.ctx.Err(); err != nil {
		it.e.fail(err)
		return false
	}
	return true
}

func (it *execIter) NextBatch(b *engine.RowBatch) bool {
	if it.gate() && it.guarded(b) && it.count(b) {
		return true
	}
	b.Reset()
	return false
}

// guarded runs one root pull into b behind the consumer-side panic boundary —
// a panic unwinding out of it (every operator of a single-fragment
// pipeline runs on this goroutine) becomes the query error — and
// records why a pull came back empty. gate checks the context before
// each pull, but a cancellation (or chain error) that lands while the
// pull is blocked inside an exchange surfaces as a clean end of stream
// from a drained channel — and the consumer, seeing EOS, never pulls
// again, so gate never re-runs. Without this post-check that is a
// silent truncation.
func (it *execIter) guarded(b *engine.RowBatch) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			it.e.fail(fmt.Errorf("parallel: panic in query root: %v\n%s", r, debug.Stack()))
			ok = false
		}
	}()
	if it.it.NextBatch(b) {
		return true
	}
	it.e.fail(engine.FirstErr(it.it.Err(), it.e.ctx.Err()))
	return false
}

// count charges b's rows against the governor's row limit. A batch
// that crosses the limit is cut to the rows still allowed, which are
// delivered; the limit error is already recorded, so the next pull ends
// the stream with it.
func (it *execIter) count(b *engine.RowBatch) bool {
	keep, err := it.e.gov.CountRows(int64(b.Len()))
	if err != nil {
		it.e.fail(err)
		b.Rows = b.Rows[:keep]
	}
	return b.Len() > 0
}

// Err reports the query's terminal error: the executor's central slot
// first (producer-side failures, contained panics, limits, cancel),
// then the root chain's own error-carrying protocol.
func (it *execIter) Err() error {
	if err := it.e.errOf(); err != nil {
		return err
	}
	return it.it.Err()
}

// Close cancels the execution context, closes the merged stream and
// blocks until every fragment goroutine has exited. It is idempotent
// and safe to call concurrently with NextBatch.
func (it *execIter) Close() {
	if it.e.closed.Swap(true) {
		return
	}
	it.e.cancel()
	it.it.Close()
	it.e.wg.Wait()
}

// exchange carries s to an operator that runs want fragments wide,
// inserting the exchange exchangeFor picks (none when the widths already
// agree — always, at one worker). keyIdx non-nil asks for value-
// equivalent rows to meet in one fragment (the sweeps' group key);
// streaming additionally asks the hash repartition to keep every
// partition begin-sorted. A merge keeps the sort property whenever the
// stream carries it: sortedness survives the merge hop. This is
// deliberate even at the root, where no operator consumes the order:
// the cursor API then emits begin-ordered rows for ordered plans
// (clients see deterministic stream order). The price is a per-row heap compare on
// sorted scan-only plans; if that ever shows up in profiles, thread a
// need-order flag from the consumer instead.
func (e *executor) exchange(s *pstream, want int, keyIdx []int, streaming bool, parent *engine.OpStats) []engine.RowIter {
	switch exchangeFor(len(s.parts), want, keyIdx != nil) {
	case exMerge:
		if s.ordered {
			return []engine.RowIter{e.startOrderedMerge(s.parts, parent)}
		}
		return []engine.RowIter{e.startMerge(s.parts, parent)}
	case exRepartition:
		return e.repartition(s.parts[0], parent)
	case exHash:
		if streaming {
			return e.hashPartitionOrdered(s.parts, keyIdx, parent)
		}
		return e.hashPartition(s.parts, keyIdx, parent)
	default:
		return s.parts
	}
}

// merge collapses a stream to a single iterator.
func (e *executor) merge(s *pstream, parent *engine.OpStats) engine.RowIter {
	return e.exchange(s, 1, nil, false, parent)[0]
}

// finish applies the inject hook and the EXPLAIN ANALYZE instrumentation
// (recording into st) to every fragment of an operator's output. A
// single fragment records onto st itself and keeps the bare site name;
// W fragments record onto per-fragment children (the per-worker skew
// view) under indexed site names. site == "" skips the inject hook.
func (e *executor) finish(site string, s *pstream, st *engine.OpStats) *pstream {
	for i, part := range s.parts {
		fst, fsite := st, site
		if len(s.parts) > 1 {
			fst = st.Fragment(i)
		}
		if e.injectFn != nil && site != "" {
			if len(s.parts) > 1 {
				fsite = fmt.Sprintf("%s:%d", site, i)
			}
			part = e.injectFn(fsite, part)
		}
		s.parts[i] = engine.NewObsIter(part, fst)
	}
	return s
}

// build compiles a plan node to a pstream, pushing streaming operators
// into partitioned fragments and placing exchanges only where place()
// and exchangeFor() say the plan shape requires them. parent is the
// EXPLAIN ANALYZE attachment point (nil when not collecting): each node
// adds its own OpStats child and builds its inputs beneath it, so the
// stats tree mirrors the plan.
func (e *executor) build(p engine.Plan, parent *engine.OpStats) (*pstream, error) {
	switch n := p.(type) {
	case engine.ScanP:
		t, err := e.db.Table(n.Name)
		if err != nil {
			return nil, err
		}
		return e.scanStream(n, t, parent.Child("Scan", n.Name)), nil
	case engine.WindowP:
		st := parent.Child("Window", n.T.String())
		var in *pstream
		if scan, ok := n.In.(engine.ScanP); ok {
			// Zone-map prune before the morsel split: a scan whose endpoint
			// envelope is disjoint from the window is skipped outright, and
			// a begin-sorted scan is cut to the prefix that can overlap it —
			// the morsel counters then divide only the surviving rows.
			t, err := e.db.Table(scan.Name)
			if err != nil {
				return nil, err
			}
			hi, skip := engine.PruneWindowScan(t, n.T)
			if skip {
				t = &engine.Table{Schema: t.Schema}
			} else {
				t = t.Prefix(hi)
			}
			in = e.scanStream(scan, t, st.Child("Scan", scan.Name))
		} else {
			var err error
			in, err = e.build(n.In, st)
			if err != nil {
				return nil, err
			}
		}
		return e.mapStream("window", n, in, st, func(it engine.RowIter) (engine.RowIter, error) {
			return engine.NewWindowIter(it, n.T), nil
		})
	case engine.FilterP:
		st := parent.Child("Filter", "")
		in, err := e.build(n.In, st)
		if err != nil {
			return nil, err
		}
		return e.mapStream("filter", n, in, st, func(it engine.RowIter) (engine.RowIter, error) {
			return engine.NewFilterIter(it, n.Pred)
		})
	case engine.ProjectP:
		st := parent.Child("Project", "")
		in, err := e.build(n.In, st)
		if err != nil {
			return nil, err
		}
		return e.mapStream("project", n, in, st, func(it engine.RowIter) (engine.RowIter, error) {
			return engine.NewProjectIter(it, n.Exprs)
		})
	case engine.JoinP:
		return e.buildJoin(n, parent)
	case engine.UnionP:
		st := parent.Child("Union", "")
		l, err := e.build(n.L, st)
		if err != nil {
			return nil, err
		}
		r, err := e.build(n.R, st)
		if err != nil {
			l.close()
			return nil, err
		}
		// Pair the fragments of both sides: fragment i concatenates
		// l_i and r_i, so the union itself needs no extra exchange.
		out, _ := place(e.db, n, e.workers, false, l.shape(), r.shape())
		lp := e.exchange(l, out.frags, nil, false, st)
		rp := e.exchange(r, out.frags, nil, false, st)
		for i := range lp {
			u, err := engine.NewUnionIter(lp[i], rp[i])
			if err != nil {
				closeAll(lp[:i])
				closeAll(lp[i+1:])
				closeAll(rp[i+1:])
				return nil, err
			}
			lp[i] = u
		}
		return e.finish("", &pstream{parts: lp, schema: lp[0].Schema(), ordered: out.ordered}, st), nil
	case engine.DiffP:
		return e.buildDiff(n, parent)
	case engine.AggP:
		return e.buildAgg(n, parent)
	case engine.CoalesceP:
		return e.buildCoalesce(n, parent)
	default:
		return nil, fmt.Errorf("parallel: unknown plan node %T", p)
	}
}

// dataIdx returns the indices of all data columns of a period schema —
// the partitioning key of coalesce and difference, whose groups are the
// value-equivalent rows.
func dataIdx(schema tuple.Schema) []int {
	idx := make([]int, schema.Arity()-2)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// sweepForm records the form place picked for a sweep: in the
// process-wide count of executed sweeps and on the sweep's EXPLAIN
// ANALYZE node.
func sweepForm(st *engine.OpStats, streams bool) {
	obs.Default.CountSweep(streams)
	if st != nil {
		st.Detail = engine.SweepMode(streams)
	}
}

// buildCoalesce compiles the coalesce operator. The input is
// hash-partitioned on the full data tuple and every fragment coalesces
// its partition independently — value-equivalent groups never straddle
// partitions, so the merged output is multiset-identical at every
// width. Over a begin-ordered input the ORDER-PRESERVING repartition
// keeps every partition begin-sorted and each fragment runs the
// streaming sweep with O(open intervals) state; otherwise each fragment
// materializes its partition on first pull and runs the blocking sweep.
func (e *executor) buildCoalesce(n engine.CoalesceP, parent *engine.OpStats) (*pstream, error) {
	st := parent.Child("Coalesce", "")
	in, err := e.build(n.In, st)
	if err != nil {
		return nil, err
	}
	schema := in.schema
	out, streams := place(e.db, n, e.workers, false, in.shape())
	sweepForm(st, streams)
	parts := e.exchange(in, out.frags, dataIdx(schema), streams, st)
	for i, part := range parts {
		if streams {
			parts[i] = e.govern(engine.NewStreamCoalesceIter(part))
		} else {
			parts[i] = newLazySweepIter(e.gov, schema, func(ts ...*engine.Table) (*engine.Table, error) {
				return engine.Coalesce(ts[0]), nil
			}, part)
		}
	}
	return e.finish("coalesce", &pstream{parts: parts, schema: schema, ordered: out.ordered}, st), nil
}

// buildAgg compiles split-based aggregation. Grouped aggregation
// hash-partitions the input on the grouping columns and every fragment
// runs an independent split/aggregate sweep — the sweep never crosses
// group boundaries, so the merged output is multiset-identical. Global
// aggregation (a single group) cannot be partitioned: it runs as one
// fragment over the merge of its input, which with the sort property is
// the ordered merge, so it still streams. Over a begin-ordered input a
// pre-aggregated sweep runs in its STREAMING form in every fragment;
// otherwise each fragment materializes its partition on first pull and
// runs the blocking sweep.
func (e *executor) buildAgg(n engine.AggP, parent *engine.OpStats) (*pstream, error) {
	dom := e.db.Domain()
	st := parent.Child("Agg", "")
	in, err := e.build(n.In, st)
	if err != nil {
		return nil, err
	}
	// Resolve the partitioning key and the output schema (and surface
	// column errors) before starting any exchange.
	keyIdx, schema, err := engine.AggregateShape(in.dataSchema(), n.GroupBy, n.Aggs)
	if err != nil {
		in.close()
		return nil, err
	}
	out, streams := place(e.db, n, e.workers, false, in.shape())
	sweepForm(st, streams)
	if st != nil && !streams && n.PreAgg {
		st.Detail += " pre-agg"
	}
	parts := e.exchange(in, out.frags, keyIdx, streams, st)
	for i, part := range parts {
		if streams {
			it, err := engine.NewStreamAggIter(part, n.GroupBy, n.Aggs, dom)
			if err != nil {
				// The constructor closed part; release the rest. Exchange
				// goroutines are reaped by Exec's cancel path.
				closeAll(parts[:i])
				closeAll(parts[i+1:])
				return nil, err
			}
			parts[i] = e.govern(it)
		} else {
			// Column errors were ruled out above, so a failure here is
			// either a failed partition drain or a genuine executor bug —
			// both propagate through Err instead of yielding a silently
			// empty partition.
			parts[i] = newLazySweepIter(e.gov, schema, func(ts ...*engine.Table) (*engine.Table, error) {
				return engine.TemporalAggregate(ts[0], n.GroupBy, n.Aggs, n.PreAgg, dom)
			}, part)
		}
	}
	return e.finish("agg", &pstream{parts: parts, schema: schema, ordered: out.ordered}, st), nil
}

// buildDiff compiles snapshot-reducible difference. Both inputs are
// hash-partitioned on the full data tuple with the same hash, so
// value-equivalent groups of both sides meet in the same fragment and
// each fragment computes an independent fused diff sweep. When both
// children are begin-ordered, BOTH sides go through the
// ORDER-PRESERVING repartition — every partition pair stays
// begin-sorted — and each fragment runs the streaming merge-based diff
// with O(open intervals + active groups) state; otherwise it
// materializes its partition pair on first pull and runs the blocking
// diff.
func (e *executor) buildDiff(n engine.DiffP, parent *engine.OpStats) (*pstream, error) {
	st := parent.Child("Diff", "")
	l, err := e.build(n.L, st)
	if err != nil {
		return nil, err
	}
	r, err := e.build(n.R, st)
	if err != nil {
		l.close()
		return nil, err
	}
	if l.schema.Arity() != r.schema.Arity() {
		l.close()
		r.close()
		return nil, fmt.Errorf("parallel: difference-incompatible arities %d and %d", l.schema.Arity(), r.schema.Arity())
	}
	schema := l.schema
	out, streams := place(e.db, n, e.workers, false, l.shape(), r.shape())
	sweepForm(st, streams)
	lp := e.exchange(l, out.frags, dataIdx(schema), streams, st)
	rp := e.exchange(r, out.frags, dataIdx(schema), streams, st)
	for i := range lp {
		if streams {
			it, err := engine.NewStreamDiffIter(lp[i], rp[i])
			if err != nil {
				// Arity compatibility was validated above, so this is an
				// executor bug — but it still must tear down cleanly: the
				// constructor closed lp[i]/rp[i]; release the rest and
				// surface the error instead of panicking.
				closeAll(lp[:i])
				closeAll(lp[i+1:])
				closeAll(rp[i+1:])
				return nil, err
			}
			lp[i] = e.govern(it)
		} else {
			// Arity compatibility (checked above) is the only failure mode
			// of TemporalDiff; a failure here still propagates through Err
			// rather than yielding a silently empty partition.
			lp[i] = newLazySweepIter(e.gov, schema, func(ts ...*engine.Table) (*engine.Table, error) {
				return engine.TemporalDiff(ts[0], ts[1])
			}, lp[i], rp[i])
		}
	}
	return e.finish("diff", &pstream{parts: lp, schema: schema, ordered: out.ordered}, st), nil
}

// buildJoin compiles the temporal join the way engine.DB.JoinStrategy
// says it runs. A hash join drains its build side once into a shared
// immutable hash table, then every probe fragment streams its partition
// of the other input against it. A join without an equality conjunct
// runs as one endpoint-sorted overlap sweep (which drains both inputs
// anyway) over the merged inputs.
func (e *executor) buildJoin(n engine.JoinP, parent *engine.OpStats) (*pstream, error) {
	st := parent.Child("Join", "")
	l, err := e.build(n.L, st)
	if err != nil {
		return nil, err
	}
	r, err := e.build(n.R, st)
	if err != nil {
		l.close()
		return nil, err
	}
	prep, err := engine.PrepareJoin(l.dataSchema(), r.dataSchema(), n.Pred)
	if err != nil {
		l.close()
		r.close()
		return nil, err
	}
	hash, buildLeft, hint := e.db.JoinStrategy(n, prep)
	if st != nil {
		st.Detail = engine.JoinStrategyName(hash, buildLeft)
	}
	out, _ := place(e.db, n, e.workers, hash, l.shape(), r.shape())
	if !hash {
		j, err := engine.NewJoinIter(e.merge(l, st), e.merge(r, st), n.Pred)
		if err != nil {
			return nil, err
		}
		if err := e.ctx.Err(); err != nil {
			j.Close()
			return nil, err
		}
		return e.finish("join", &pstream{parts: []engine.RowIter{j}, schema: j.Schema(), ordered: out.ordered}, st), nil
	}
	build, probe := r, l
	if buildLeft {
		build, probe = l, r
	}
	// Drain the build side eagerly; a canceled context surfaces as an
	// error rather than a silently truncated hash table. The drain
	// happens outside any pull, so an explicit span attributes its cost
	// to the join node.
	done := st.Span()
	jb := prep.Build(e.merge(build, st), buildLeft, hint)
	done()
	// A failed build drain means a truncated hash table: the join must
	// not run over it. The drain error wins over the bare ctx error (it
	// is more specific); both fail the build here.
	if err := engine.FirstErr(jb.Err(), e.ctx.Err()); err != nil {
		probe.close()
		return nil, err
	}
	// The materialized build side is tracked query state: charge it
	// against the memory budget before fanning probes out.
	if err := e.gov.ChargeMem(jb.Rows() * engine.ApproxRowBytes(build.schema.Arity())); err != nil {
		probe.close()
		return nil, err
	}
	parts := e.exchange(probe, out.frags, nil, false, st)
	for i, part := range parts {
		parts[i] = jb.Probe(part)
	}
	return e.finish("join", &pstream{parts: parts, schema: prep.Schema(), ordered: out.ordered}, st), nil
}

// scanStream builds the scan of a stored (or pruned-prefix) table: the
// shared construction of the ScanP case and the zone-map-pruned windowed
// scan. The stream's order is the stored table's (place), which a
// pruned prefix keeps.
func (e *executor) scanStream(n engine.ScanP, t *engine.Table, st *engine.OpStats) *pstream {
	out, _ := place(e.db, n, e.workers, false)
	ctr := new(atomic.Int64)
	parts := make([]engine.RowIter, out.frags)
	for i := range parts {
		parts[i] = &morselTableIter{ctx: e.ctx, t: t, ctr: ctr, size: e.morsel}
	}
	return e.finish("scan:"+n.Name, &pstream{parts: parts, schema: t.Schema, ordered: out.ordered}, st)
}

// mapStream wraps every fragment of in with a streaming operator
// constructor. wrap takes ownership of its input on error, matching the
// engine constructors' contract. The wrapped operators (Filter, Project,
// Window) are per-row and carry or monotonically clip the period
// attributes, so place() hands the input's shape through.
func (e *executor) mapStream(site string, n engine.Plan, in *pstream, st *engine.OpStats, wrap func(engine.RowIter) (engine.RowIter, error)) (*pstream, error) {
	for i, part := range in.parts {
		it, err := wrap(part)
		if err != nil {
			closeAll(in.parts[:i])
			closeAll(in.parts[i+1:])
			return nil, err
		}
		in.parts[i] = it
	}
	out, _ := place(e.db, n, e.workers, false, in.shape())
	return e.finish(site, &pstream{parts: in.parts, schema: in.parts[0].Schema(), ordered: out.ordered}, st), nil
}
