// Package rewrite implements REWR (Fig 4 of Dignös et al., PVLDB 2019):
// the reduction of a snapshot-semantics query over ℕᵀ-relations to a
// non-temporal multiset plan over the PERIODENC encoding, executed by
// package parallel — the engine's one executor, at every worker count.
//
// Two plan modes reproduce the §9 optimization study:
//
//   - ModeOptimized (the paper's middleware): coalesce is applied at most
//     once, as the final operator — justified by Lemma 6.1, which lets
//     C_K be pulled out of +KP, ·KP and the monus — and elided when the
//     root already emits the unique encoding (engine.Coalesced): the
//     difference and the pre-aggregated aggregation, which use
//     pre-aggregation intertwined with the split, close a segment only
//     where their output changes.
//   - ModeNaive (the strawman of §9's "preliminary experiments"):
//     coalesce after every rewritten operator, and split materialized
//     before aggregation without pre-aggregation.
package rewrite

import (
	"context"
	"fmt"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
	"snapk/internal/interval"
	"snapk/internal/tuple"
)

// Mode selects the coalesce placement / split strategy.
type Mode int

const (
	// ModeOptimized applies at most one final coalesce and
	// pre-aggregation.
	ModeOptimized Mode = iota
	// ModeNaive coalesces after every operator and materializes splits.
	ModeNaive
)

// Options configures the rewriting and the execution of its plan.
type Options struct {
	Mode Mode
	// Window restricts the query to the time window [Begin, End): the
	// timeslice τ_T, applied with clip semantics (row validity intervals
	// are intersected with the window; rows not overlapping it are
	// dropped). The zero value — an invalid interval — means no
	// restriction. The planner pushes the window toward the scans under
	// the legality rules of engine.PushWindow, and the executor prunes
	// every scan a window lands on by the table's endpoint envelope.
	Window interval.Interval
	// Parallelism is the number of fragments per partitioned operator
	// (internal/engine/parallel). Values <= 1 run every stream as one
	// fragment on the caller's goroutine, with no exchange. Results are
	// multiset-identical at every worker count.
	Parallelism int
	// Collect, when non-nil, enables EXPLAIN ANALYZE: Stream attaches the
	// executed plan's per-operator/per-fragment statistics tree under the
	// collector (one "result" node whose row count is exactly what the
	// cursor observes, with the operator tree beneath it). Nil — the
	// default — compiles every instrumentation hook to an identity no-op,
	// so the hot path is unchanged.
	Collect *engine.Collector
	// Limits configures the per-query resource governor: wall-clock
	// deadline, emitted-row limit and tracked-state memory budget. The
	// zero value (the default) disables governing entirely. A tripped
	// limit ends the stream and surfaces the governor's typed error
	// (engine.ErrRowLimit, engine.ErrMemBudget,
	// context.DeadlineExceeded) through the iterator's Err.
	Limits engine.Limits
	// Inject, when non-nil, wraps the iterator built at each operator
	// and exchange boundary — the chaos fault-injection hook
	// (internal/chaos). Production queries leave it nil.
	Inject engine.IterWrapper
}

// Rewrite reduces a snapshot query to a physical plan over the period
// encoding (the commuting diagram of Eq. 1). cat must resolve the data
// schemas of the base relations referenced by q. It is PlanQuery with
// the planner's decision record discarded — the entry point for callers
// that only need the plan.
func Rewrite(q algebra.Query, cat algebra.Catalog, opt Options) (engine.Plan, error) {
	p, _, err := PlanQuery(q, cat, opt)
	return p, err
}

// rewriter carries the per-Rewrite state: the options.
type rewriter struct {
	opt Options
}

// maybeCoalesce wraps p in a coalesce operator in naive mode, mirroring
// the per-operator C(...) of the unoptimized Fig 4 rules.
func (rw *rewriter) maybeCoalesce(p engine.Plan) engine.Plan {
	if rw.opt.Mode == ModeNaive {
		return engine.CoalesceP{In: p}
	}
	return p
}

func (rw *rewriter) rewr(q algebra.Query) (engine.Plan, error) {
	switch n := q.(type) {
	case algebra.Rel:
		// REWR(R) = R: snapshot queries run directly over natively stored
		// period relations, no preprocessing.
		return engine.ScanP{Name: n.Name}, nil
	case algebra.Select:
		in, err := rw.rewr(n.In)
		if err != nil {
			return nil, err
		}
		return rw.maybeCoalesce(engine.FilterP{Pred: n.Pred, In: in}), nil
	case algebra.Project:
		in, err := rw.rewr(n.In)
		if err != nil {
			return nil, err
		}
		return rw.maybeCoalesce(engine.ProjectP{Exprs: n.Exprs, In: in}), nil
	case algebra.Join:
		l, err := rw.rewr(n.L)
		if err != nil {
			return nil, err
		}
		r, err := rw.rewr(n.R)
		if err != nil {
			return nil, err
		}
		return rw.maybeCoalesce(engine.JoinP{L: l, R: r, Pred: n.Pred}), nil
	case algebra.Union:
		l, err := rw.rewr(n.L)
		if err != nil {
			return nil, err
		}
		r, err := rw.rewr(n.R)
		if err != nil {
			return nil, err
		}
		return rw.maybeCoalesce(engine.UnionP{L: l, R: r}), nil
	case algebra.Diff:
		l, err := rw.rewr(n.L)
		if err != nil {
			return nil, err
		}
		r, err := rw.rewr(n.R)
		if err != nil {
			return nil, err
		}
		return rw.maybeCoalesce(engine.DiffP{L: l, R: r}), nil
	case algebra.Agg:
		in, err := rw.rewr(n.In)
		if err != nil {
			return nil, err
		}
		p := engine.AggP{
			GroupBy: n.GroupBy,
			Aggs:    n.Aggs,
			PreAgg:  rw.opt.Mode == ModeOptimized,
			In:      in,
		}
		return rw.maybeCoalesce(p), nil
	default:
		return nil, fmt.Errorf("rewrite: unknown query node %T", q)
	}
}

// Run is the one-call middleware entry point: rewrite q and execute it on
// db, returning the coalesced period-encoded result — Stream, drained
// into a table.
func Run(db *engine.DB, q algebra.Query, opt Options) (*engine.Table, error) {
	it, err := Stream(context.Background(), db, q, opt)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	t, err := engine.MaterializeErr(it)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Stream rewrites q and returns a pull-based row stream over the
// period-encoded result, without materializing it: the streaming cursor
// entry point behind snapk.DB.QueryRows. The plan runs on
// parallel.Exec with Options.Parallelism fragments per partitioned
// operator; ctx cancellation tears the pipeline (and any fragment
// goroutines) down. A consumer that drains the returned iterator to
// end-of-stream must check its Err before trusting the result (the
// snapdebug build asserts exactly this at the root). The caller must
// Close the returned iterator.
func Stream(ctx context.Context, db *engine.DB, q algebra.Query, opt Options) (engine.RowIter, error) {
	p, _, err := PlanQuery(q, db, opt)
	if err != nil {
		return nil, err
	}
	// When collecting, the whole executed tree hangs under one "result"
	// node: its row count is exactly what the root cursor observes.
	var st *engine.OpStats
	if opt.Collect != nil {
		st = opt.Collect.Root.Child("result", "")
	}
	it, err := parallel.Exec(ctx, db, p, parallel.Options{
		Workers: max(opt.Parallelism, 1),
		Stats:   st,
		Gov:     engine.NewGovernor(opt.Limits),
		Inject:  opt.Inject,
	})
	if err != nil {
		return nil, err
	}
	return engine.CheckErrChecked("rewrite stream root", it), nil
}

// OutSchema returns the data schema of the result of q on db, mirroring
// algebra.OutSchema.
func OutSchema(db *engine.DB, q algebra.Query) (tuple.Schema, error) {
	return algebra.OutSchema(q, db)
}
