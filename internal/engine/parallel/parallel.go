// Package parallel is the engine's executor and the one lowering from
// an engine.Plan to iterators: every query runs through Exec, and
// EXPLAIN prints the placement decisions build() makes (explain.go).
// A plan is evaluated as pipeline fragments connected by exchange
// operators (partition / merge over bounded row-batch channels, and the
// scan partition, which moves no row), in the morsel-driven style;
// sequential execution is the same code at one worker, where every
// stream is a single fragment and no goroutine, channel or exchange is
// created at all.
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
// aggregation, difference, coalesce) are parallelized by partitioning
// on the hash of their group key: value-equivalent groups never
// straddle partitions, so each worker runs an independent sweep
// over its partition and the merged output is multiset-identical to
// one-worker execution — and, since all rows of a group come from one
// sweep, still the unique coalesced encoding wherever the sweep emits
// it (engine.Coalesced).
//
// Interval-endpoint order is a first-class physical property of the
// executor (pstream.ordered): begin-sorted scans yield begin-sorted
// morsel fragments, Filter/Project/Window preserve the order per
// fragment, and an ordered k-way merge (orderedMergeIter, in the
// engine.CompareEndpoints order) carries it across the merge hop. Each
// sweep has two physical forms, and the streams it is built over select
// one: place applies engine.DB.BeginOrder to the inputs' order. When
// every input is ordered, each fragment's scan reads the whole sorted
// table and keeps its partition's rows (scanPartition), so the fragment
// runs the STREAMING sweep over a begin-sorted partition with O(open
// intervals + active groups) state and no exchange transport. Otherwise
// a hash partition (hashPartition) redistributes the rows and each
// fragment materializes its partition on first pull and runs the
// blocking sweep (lazySweepIter). Global aggregation has one group, so
// it splits time instead of rows (timepart.go): W fragments over time
// ranges, each its input built at one worker with the range pushed to
// its scans, and a boundary merge that joins the segments meeting at a
// split. Where no split is cut (engine.DB.TimeSplits: an unsorted table,
// a float sum) it runs as one sweep over the merge of all fragments.
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
	"slices"
	"sync"
	"sync/atomic"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/interval"
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
	// build charge their tracked state against its memory budget.
	// Exchange transport is bounded and not charged: a streaming sweep's
	// partition is read straight off its scan (scanPartition).
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
// every stream at one worker. scan carries the interval-endpoint sort
// property through the physical plan. engine.DB.BeginOrder orders
// nothing but begin-sorted scans and the per-row operators over them,
// so an ordered stream is a per-row chain over a sorted table scan, and
// scan is that scan's morsel cursor: scanStream sets it, only mapStream
// keeps it, and it is nil on every unordered stream. EVERY fragment of
// an ordered stream individually yields rows in ascending begin order,
// so the merge can preserve the order instead of destroying it, and the
// streaming sweeps partition it without a transport (scanPartition).
//
// cols is the column map column-only projections left on the stream
// (engine.ColMap): when set, the parts yield their child's rows
// uncopied, and data column i of schema is column cols[i] of a row.
// Every operator that reads through a map — the filter and the window,
// which keep it, the sweeps, the joins and the keyed exchanges — takes
// it from here; only the root and a union copy the rows to schema's
// layout (flat). nil means the rows are laid out as schema says.
//
// computed marks a chain over a scan that holds a computing projection:
// its rows no longer have the scan's layout, so a scan partition cannot
// route them at the scan.
type pstream struct {
	parts    []engine.RowIter
	schema   tuple.Schema
	cols     engine.ColMap
	scan     *scanCursor
	computed bool
}

// width returns the width of a part's rows.
func (s *pstream) width() int { return s.parts[0].Schema().Arity() }

// keys returns the row columns of every data column: the group key of
// the coalesce and the difference.
func (s *pstream) keys() []int { return s.cols.Data(s.schema.Arity() - 2) }

// flat lays the rows out as schema, for a consumer that cannot read
// through the column map: a copy, or none for a rename.
func (s *pstream) flat() *pstream {
	if s.cols != nil {
		for i, part := range s.parts {
			s.parts[i] = engine.NewColMapIter(part, s.schema, s.cols)
		}
		s.cols = nil
	}
	return s
}

func (s *pstream) shape() shape { return shape{frags: len(s.parts), ordered: s.scan != nil} }

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
	root := engine.NewObsIter(engine.CheckNoAlias("parallel exec root", e.merge(s.flat(), opt.Stats)), opt.Stats)
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
	if it.gate() && it.guarded(b, func() bool { return it.it.NextBatch(b) }) && it.count(b, nil) {
		return true
	}
	b.Reset()
	return false
}

// NextRuns is NextBatch for runs: the root forwards the runs of a
// blocking or streaming difference or coalesce to the cursor.
func (it *execIter) NextRuns(b *engine.RowBatch, mult *[]int64) bool {
	if it.gate() && it.guarded(b, func() bool { return engine.NextRuns(it.it, b, mult) }) && it.count(b, mult) {
		return true
	}
	b.Reset()
	*mult = (*mult)[:0]
	return false
}

// guarded runs pull, one root pull into b, behind the consumer-side
// panic boundary — a panic unwinding out of it (every operator of a
// single-fragment pipeline runs on this goroutine) becomes the query
// error — and
// records why a pull came back empty. gate checks the context before
// each pull, but a cancellation (or chain error) that lands while the
// pull is blocked inside an exchange surfaces as a clean end of stream
// from a drained channel — and the consumer, seeing EOS, never pulls
// again, so gate never re-runs. Without this post-check that is a
// silent truncation.
func (it *execIter) guarded(b *engine.RowBatch, pull func() bool) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			it.e.fail(fmt.Errorf("parallel: panic in query root: %v\n%s", r, debug.Stack()))
			ok = false
		}
	}()
	if pull() {
		return true
	}
	it.e.fail(engine.FirstErr(it.it.Err(), it.e.ctx.Err()))
	return false
}

// count charges b's rows — its runs' counts, when mult is not nil —
// against the governor's row limit. A batch that crosses the limit is
// cut to the rows still allowed, which are delivered; the limit error is
// already recorded, so the next pull ends the stream with it.
func (it *execIter) count(b *engine.RowBatch, mult *[]int64) bool {
	keep, err := it.e.gov.CountRows(engine.RunRows(b, mult))
	if err != nil {
		it.e.fail(err)
		engine.CutRuns(b, mult, keep)
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
// streaming asks for begin-sorted partitions, which the scan partition
// reads straight off the sorted scans. A merge keeps the sort property
// whenever the stream carries it: sortedness survives the merge hop.
// This is deliberate even at the root, where no operator consumes the order:
// the cursor API then emits begin-ordered rows for ordered plans
// (clients see deterministic stream order). The price is a per-row heap compare on
// sorted scan-only plans; if that ever shows up in profiles, thread a
// need-order flag from the consumer instead.
func (e *executor) exchange(s *pstream, want int, keyIdx []int, streaming bool, parent *engine.OpStats) []engine.RowIter {
	switch exchangeFor(len(s.parts), want, keyIdx != nil) {
	case exMerge:
		if s.scan != nil {
			return []engine.RowIter{e.startOrderedMerge(s.parts, parent)}
		}
		return []engine.RowIter{e.startMerge(s.parts, parent)}
	case exRepartition:
		return e.repartition(s.parts[0], parent)
	case exHash:
		if streaming {
			return e.scanPartition(s, keyIdx, parent)
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
		return e.scanStream(n, t, t, parent.Child("Scan", n.Name)), nil
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
			var pruned *engine.Table
			if skip {
				pruned = &engine.Table{Schema: t.Schema}
			} else {
				pruned = t.Prefix(hi)
			}
			in = e.scanStream(scan, t, pruned, st.Child("Scan", scan.Name))
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
		schema, cols := in.schema, in.cols
		return e.mapStream("filter", n, in, st, func(it engine.RowIter) (engine.RowIter, error) {
			return engine.NewFilterIter(it, schema, cols, n.Pred)
		})
	case engine.ProjectP:
		return e.buildProject(n, parent)
	case engine.JoinP:
		s, _, err := e.buildJoin(n, parent, nil)
		return s, err
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
		lp := e.exchange(l.flat(), out.frags, nil, false, st)
		rp := e.exchange(r.flat(), out.frags, nil, false, st)
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
		return e.finish("", &pstream{parts: lp, schema: l.schema}, st), nil
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

// buildAt builds p as the executor does at the given worker count: a
// time partition builds each fragment's input at one worker. Plans are
// built on one goroutine, and no goroutine started by a build reads the
// worker count, so the swap is invisible outside the call.
func (e *executor) buildAt(workers int, p engine.Plan, parent *engine.OpStats) (*pstream, error) {
	defer func(w int) { e.workers = w }(e.workers)
	e.workers = workers
	return e.build(p, parent)
}

// buildProject compiles a projection. One that only reads columns —
// every rename REWR and the SQL translation wrap operators and tables
// in — is a column map on its input stream (pstream.cols) and copies no
// row; directly over a join it folds into the join's output row. One
// that computes an expression runs a projectIter, which reads its input
// through the input's map. Either way the Project keeps its EXPLAIN
// ANALYZE node.
func (e *executor) buildProject(n engine.ProjectP, parent *engine.OpStats) (*pstream, error) {
	st := parent.Child("Project", "")
	var in *pstream
	var err error
	if j, ok := n.In.(engine.JoinP); ok {
		var projected bool
		if in, projected, err = e.buildJoin(j, st, n.Exprs); err == nil && projected {
			return e.mapStream("project", n, in, st, nil)
		}
	} else {
		in, err = e.build(n.In, st)
	}
	if err != nil {
		return nil, err
	}
	if sel, ok := engine.ColumnMap(n.Exprs, in.schema); ok {
		in.cols, in.schema = in.cols.Of(sel), projectSchema(n.Exprs)
		return e.mapStream("project", n, in, st, nil)
	}
	schema, cols := in.schema, in.cols
	in.schema, in.cols, in.computed = projectSchema(n.Exprs), nil, true
	return e.mapStream("project", n, in, st, func(it engine.RowIter) (engine.RowIter, error) {
		return engine.NewProjectIter(it, schema, cols, n.Exprs)
	})
}

// projectSchema returns the period schema a projection emits.
func projectSchema(exprs []algebra.NamedExpr) tuple.Schema {
	cols := make([]string, len(exprs))
	for i, ne := range exprs {
		cols[i] = ne.Name
	}
	return engine.PeriodSchema(tuple.NewSchema(cols...))
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
// width. Over a begin-ordered input the scan partition keeps every
// partition begin-sorted and each fragment runs the streaming sweep
// with O(open intervals) state; otherwise each fragment materializes
// its partition on first pull and runs the blocking sweep.
func (e *executor) buildCoalesce(n engine.CoalesceP, parent *engine.OpStats) (*pstream, error) {
	st := parent.Child("Coalesce", "")
	in, err := e.build(n.In, st)
	if err != nil {
		return nil, err
	}
	schema, keys := in.schema, in.keys()
	out, streams := place(e.db, n, e.workers, false, in.shape())
	sweepForm(st, streams)
	codes := codeKeys(st, streams, [][]int{keys}, in)
	parts := e.exchange(in, out.frags, keys, streams, st)
	for i, part := range parts {
		if streams {
			parts[i] = e.govern(engine.NewStreamCountIter(schema, part, keys, nil, nil, codes))
		} else {
			parts[i] = newLazySweepIter(e.gov, schema, func(ts ...*engine.Table) (engine.RowIter, error) {
				return engine.NewBlockCountIter(e.gov, schema, ts[0], keys, nil, nil)
			}, e.drainHints(out.frags, n.In), part)
		}
	}
	return e.finish("coalesce", &pstream{parts: parts, schema: schema}, st), nil
}

// codeKeys decides whether a streaming sweep finds its groups by the
// dense key codes of its table (engine.Table.KeyCodes) and returns their
// number, or 0 when it hashes. It codes when every input is a chain over
// a scan of one stored table with no computing projection in it — so its
// rows are the scan's rows, clipped at most — and every input's key
// columns keys[i] are the same data columns of those rows: the case in
// which the scan partition routes at the scan. Then it sets the codes on
// every input's scan, which emits them beside its rows, and records
// their number on the sweep's node st. A blocking sweep, a computed
// chain, a join's output, inputs over different tables or different
// columns, and a global aggregation, which has no key, hash.
func codeKeys(st *engine.OpStats, streams bool, keys [][]int, ins ...*pstream) int {
	if !streams || len(keys[0]) == 0 {
		return 0
	}
	var src *engine.Table
	for i, s := range ins {
		if s.scan == nil || s.computed || i > 0 && (s.scan.src != src || !slices.Equal(keys[i], keys[0])) {
			return 0
		}
		src = s.scan.src
	}
	for _, c := range keys[0] {
		if c >= src.DataArity() {
			return 0 // a period column, which a window clips
		}
	}
	codes, n, ok := src.KeyCodes(keys[0])
	if !ok {
		return 0
	}
	for _, s := range ins {
		s.scan.codes = codes
	}
	st.SetKeyCodes(n)
	return n
}

// drainHints returns, for each input plan of a blocking sweep, the rows
// the drain of one of its frags partitions reserves room for: the
// plan's DB.SizeHint, spread evenly.
func (e *executor) drainHints(frags int, ins ...engine.Plan) []int64 {
	hints := make([]int64, len(ins))
	for i, p := range ins {
		hints[i] = e.db.SizeHint(p) / int64(frags)
	}
	return hints
}

// buildAgg compiles split-based aggregation. Grouped aggregation
// hash-partitions the input on the grouping columns and every fragment
// runs an independent split/aggregate sweep — the sweep never crosses
// group boundaries, so the merged output is multiset-identical. Global
// aggregation has a single group: at W > 1 it splits time instead
// (buildTimeAgg). Where engine.DB.TimeSplits cuts no split it runs as one
// fragment over the merge of its input, which with the sort property is
// the ordered merge, so it still streams. Over a begin-ordered input a
// pre-aggregated sweep runs in its STREAMING form in every fragment;
// otherwise each fragment materializes its partition on first pull and
// runs the blocking sweep.
func (e *executor) buildAgg(n engine.AggP, parent *engine.OpStats) (*pstream, error) {
	st := parent.Child("Agg", "")
	if splits := timeSplits(e.db, n, e.workers); len(splits) > 0 {
		return e.buildTimeAgg(n, splits, st)
	}
	in, err := e.build(n.In, st)
	if err != nil {
		return nil, err
	}
	// Resolve the partitioning key and the output schema (and surface
	// column errors) before starting any exchange.
	data, cols := in.dataSchema(), in.cols
	keyIdx, schema, err := engine.AggregateShape(data, n.GroupBy, n.Aggs)
	if err != nil {
		in.close()
		return nil, err
	}
	out, streams := place(e.db, n, e.workers, false, in.shape())
	aggForm(st, n, streams)
	codes := codeKeys(st, streams, [][]int{cols.Of(keyIdx)}, in)
	parts := e.exchange(in, out.frags, cols.Of(keyIdx), streams, st)
	hint := e.drainHints(out.frags, n.In)[0]
	for i, part := range parts {
		it, err := e.aggSweep(n, part, data, cols, schema, streams, e.db.Domain(), hint, codes)
		if err != nil {
			// The constructor closed part; release the rest. Exchange
			// goroutines are reaped by Exec's cancel path.
			closeAll(parts[:i])
			closeAll(parts[i+1:])
			return nil, err
		}
		parts[i] = it
	}
	return e.finish("agg", &pstream{parts: parts, schema: schema}, st), nil
}

// aggForm records the form of an aggregation's sweeps (sweepForm),
// marking a blocking pre-aggregated one.
func aggForm(st *engine.OpStats, n engine.AggP, streams bool) {
	sweepForm(st, streams)
	if st != nil && !streams && n.PreAgg {
		st.Detail += " pre-agg"
	}
}

// aggSweep is one fragment's aggregation sweep over part, with the gap
// rows of a global aggregation spanning dom: the streaming form, coded
// by codes key codes (codeKeys) or hashed at 0, or the blocking one,
// which materializes part on first pull with room for hint rows. On
// error part is closed.
func (e *executor) aggSweep(n engine.AggP, part engine.RowIter, data tuple.Schema, cols engine.ColMap, schema tuple.Schema, streams bool, dom interval.Domain, hint int64, codes int) (engine.RowIter, error) {
	if streams {
		it, err := engine.NewMappedStreamAggIter(part, data, cols, n.GroupBy, n.Aggs, dom, codes)
		if err != nil {
			return nil, err
		}
		return e.govern(it), nil
	}
	// Column errors were ruled out by the caller, so a failure here is
	// either a failed partition drain or a genuine executor bug — both
	// propagate through Err instead of yielding a silently empty
	// partition.
	return newLazySweepIter(e.gov, schema, func(ts ...*engine.Table) (engine.RowIter, error) {
		return engine.NewBlockAggIter(e.gov, ts[0], data, cols, n.GroupBy, n.Aggs, n.PreAgg, dom)
	}, []int64{hint}, part), nil
}

// buildDiff compiles snapshot-reducible difference. Both inputs are
// hash-partitioned on the full data tuple with the same hash, so
// value-equivalent groups of both sides meet in the same fragment and
// each fragment computes an independent fused diff sweep. When both
// children are begin-ordered, BOTH sides go through the scan
// partition — every partition pair stays begin-sorted — and each
// fragment runs the streaming merge-based diff with O(open intervals +
// active groups) state; otherwise it
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
	// The two sides may read through different column maps: each is
	// hashed and swept by its own key columns.
	schema, lKeys, rKeys := l.schema, l.keys(), r.keys()
	out, streams := place(e.db, n, e.workers, false, l.shape(), r.shape())
	sweepForm(st, streams)
	codes := codeKeys(st, streams, [][]int{lKeys, rKeys}, l, r)
	lp := e.exchange(l, out.frags, lKeys, streams, st)
	rp := e.exchange(r, out.frags, rKeys, streams, st)
	for i := range lp {
		if streams {
			lp[i] = e.govern(engine.NewStreamCountIter(schema, lp[i], lKeys, rp[i], rKeys, codes))
		} else {
			// Arity compatibility (checked above) is the only failure mode
			// of the blocking difference; a failure here still propagates
			// through Err rather than yielding a silently empty partition.
			lp[i] = newLazySweepIter(e.gov, schema, func(ts ...*engine.Table) (engine.RowIter, error) {
				return engine.NewBlockCountIter(e.gov, schema, ts[0], lKeys, ts[1], rKeys)
			}, e.drainHints(out.frags, n.L, n.R), lp[i], rp[i])
		}
	}
	return e.finish("diff", &pstream{parts: lp, schema: schema}, st), nil
}

// buildJoin compiles the temporal join the way engine.DB.JoinStrategy
// says it runs. A hash join drains its build side once into a shared
// immutable hash table, then every probe fragment streams its partition
// of the other input against it. A join without an equality conjunct
// runs as one endpoint-sorted overlap sweep (which drains both inputs
// anyway) over the merged inputs. Both forms read each input through
// its column map. exprs, when not nil, is a projection directly over
// the join: when it only reads data columns it folds into the output
// row each surviving pair gets, and projected reports that it did.
func (e *executor) buildJoin(n engine.JoinP, parent *engine.OpStats, exprs []algebra.NamedExpr) (s *pstream, projected bool, err error) {
	st := parent.Child("Join", "")
	l, err := e.build(n.L, st)
	if err != nil {
		return nil, false, err
	}
	r, err := e.build(n.R, st)
	if err != nil {
		l.close()
		return nil, false, err
	}
	prep, err := engine.PrepareJoin(l.dataSchema(), r.dataSchema(), n.Pred)
	if err != nil {
		l.close()
		r.close()
		return nil, false, err
	}
	hash, buildLeft, hint := e.db.JoinStrategy(n, prep)
	if st != nil {
		st.Detail = engine.JoinStrategyName(hash, buildLeft)
	}
	prep = prep.Through(l.cols, l.width(), r.cols)
	if exprs != nil {
		if sel, ok := engine.ColumnMap(exprs, prep.Schema()); ok {
			prep, projected = prep.Project(sel, projectSchema(exprs)), true
		}
	}
	out, _ := place(e.db, n, e.workers, hash, l.shape(), r.shape())
	if !hash {
		j, err := engine.NewOverlapJoinIter(e.merge(l, st), e.merge(r, st), prep)
		if err != nil {
			return nil, false, err
		}
		if err := e.ctx.Err(); err != nil {
			j.Close()
			return nil, false, err
		}
		return e.finish("join", &pstream{parts: []engine.RowIter{j}, schema: j.Schema()}, st), projected, nil
	}
	build, probe := r, l
	if buildLeft {
		build, probe = l, r
	}
	// The table holds the build side's rows as they come, map and all.
	rowBytes := engine.ApproxRowBytes(build.width())
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
		return nil, false, err
	}
	// The materialized build side is tracked query state: charge it
	// against the memory budget before fanning probes out.
	if err := e.gov.ChargeMem(jb.Rows() * rowBytes); err != nil {
		probe.close()
		return nil, false, err
	}
	parts := e.exchange(probe, out.frags, nil, false, st)
	for i, part := range parts {
		parts[i] = jb.Probe(part)
	}
	return e.finish("join", &pstream{parts: parts, schema: prep.Schema()}, st), projected, nil
}

// scanStream builds the scan of t, the stored table src or a pruned
// prefix of it: the shared construction of the ScanP case and the
// zone-map-pruned windowed scan. The stream's order is the stored
// table's (place), which a pruned prefix keeps, and so are its key codes.
func (e *executor) scanStream(n engine.ScanP, src, t *engine.Table, st *engine.OpStats) *pstream {
	out, _ := place(e.db, n, e.workers, false)
	cur := &scanCursor{src: src}
	parts := make([]engine.RowIter, out.frags)
	for i := range parts {
		parts[i] = &morselTableIter{ctx: e.ctx, t: t, cur: cur, frag: i, size: e.morsel}
	}
	s := &pstream{parts: parts, schema: t.Schema}
	if out.ordered {
		s.scan = cur
	}
	return e.finish("scan:"+n.Name, s, st)
}

// mapStream wraps every fragment of in with a streaming operator
// constructor, or with none when wrap is nil (a column map). wrap takes
// ownership of its input on error, matching the engine constructors'
// contract. The wrapped operators (Filter, Project, Window) are per-row
// and carry or monotonically clip the period attributes, so place()
// hands the input's shape through; the stream keeps the schema and the
// column map the caller left on in.
func (e *executor) mapStream(site string, n engine.Plan, in *pstream, st *engine.OpStats, wrap func(engine.RowIter) (engine.RowIter, error)) (*pstream, error) {
	for i := 0; wrap != nil && i < len(in.parts); i++ {
		it, err := wrap(in.parts[i])
		if err != nil {
			closeAll(in.parts[:i])
			closeAll(in.parts[i+1:])
			return nil, err
		}
		in.parts[i] = it
	}
	if out, _ := place(e.db, n, e.workers, false, in.shape()); !out.ordered {
		in.scan = nil
	}
	return e.finish(site, in, st), nil
}
