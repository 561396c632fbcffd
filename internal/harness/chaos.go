package harness

import (
	"context"
	"fmt"
	"io"
	"time"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
)

// chaosSizeCap bounds the chaos experiment input: the acceptance
// measurement for the fault-domain study is governor overhead within
// noise at the 50k-row input.
const chaosSizeCap = 50000

// governedVariants are the hot pipelines the governor is priced on: the
// pure filter/project chain (where per-row bookkeeping is most
// visible), the three streaming sweeps, and the exchange transport.
func governedVariants() []sweepVariant {
	cheap := func(scan engine.Plan) engine.Plan {
		// salaries are 40000..49000, so about half the rows survive —
		// the filter does real work without starving the pipeline above.
		return engine.FilterP{Pred: algebra.Lt(algebra.Col("salary"), algebra.IntC(45000)), In: scan}
	}
	return []sweepVariant{
		{name: "filter-project", plan: func(s engine.Plan) engine.Plan {
			return engine.ProjectP{Exprs: []algebra.NamedExpr{{Name: "emp_no", E: algebra.Col("emp_no")}}, In: cheap(s)}
		}},
		{name: "coalesce-streaming", plan: coalescePlan(true)},
		{name: "agg-streaming", plan: aggPlan(true)},
		{name: "diff-streaming", plan: func(s engine.Plan) engine.Plan {
			return engine.DiffP{L: s, R: cheap(s), Streaming: true}
		}},
		{name: fmt.Sprintf("coalesce-parallel-x%d", DefaultWorkers), plan: coalescePlan(false), par: DefaultWorkers},
	}
}

// Chaos measures the steady-state cost of the per-query fault domain:
// the resource governor (root row counting, operator-state and
// ordered-exchange memory accounting, the deadline context) on the same
// plans with governing off vs on, with limits generous enough that
// nothing ever trips. Both runs consume the SAME physical plan through
// the same executor, so the delta is exactly the governor's bookkeeping.
// The acceptance bar is overhead within noise at the 50k-row input. The
// chaos fault-injection layer itself costs nothing here: with no
// injector configured the wrap hook is nil and no site is touched.
func Chaos(w io.Writer, sc Scale, rep *Report) error {
	// Generous enough that a 50k-row pipeline never comes near a limit:
	// every checkpoint is exercised, none fires.
	generous := engine.Limits{Timeout: time.Hour, RowLimit: 1 << 62, MemBudget: 1 << 62}
	tw := NewTable("rows", "variant", "ungoverned (s)", "governed (s)", "overhead", "out rows")
	for _, n := range sc.Fig5Sizes {
		if n > chaosSizeCap {
			// Not silently: the report must show which configured sizes
			// were not measured.
			fmt.Fprintf(w, "chaos: skipping configured size %d (cap %d)\n", n, chaosSizeCap)
			continue
		}
		_, sortedDB := sweepInputs(n)
		for _, v := range governedVariants() {
			off, _, rowsOff, err := runGovernedVariant(sortedDB, v, sc.Runs, engine.Limits{})
			if err != nil {
				return fmt.Errorf("chaos %s (ungoverned): %w", v.name, err)
			}
			on, allocs, rowsOn, err := runGovernedVariant(sortedDB, v, sc.Runs, generous)
			if err != nil {
				return fmt.Errorf("chaos %s (governed): %w", v.name, err)
			}
			if rowsOn != rowsOff {
				return fmt.Errorf("chaos %s: governed run changed the result (%d vs %d rows)",
					v.name, rowsOn, rowsOff)
			}
			overhead := on.Seconds() / off.Seconds()
			tw.AddRow(fmt.Sprintf("%d", n), v.name, FormatDuration(off),
				FormatDuration(on), fmt.Sprintf("%.2fx", overhead), fmt.Sprintf("%d", rowsOn))
			rep.AddDetail("chaos", fmt.Sprintf("%s/ungoverned/rows=%d", v.name, n), off, 0, int64(rowsOff), nil)
			rep.AddDetail("chaos", fmt.Sprintf("%s/governed/rows=%d", v.name, n), on, allocs, int64(rowsOn),
				map[string]float64{"overhead": overhead})
		}
	}
	_, err := tw.WriteTo(w)
	return err
}

// runGovernedVariant times one variant under the given limits (the zero
// Limits value runs ungoverned on the nil-governor fast path) and
// returns its median runtime, median allocations and output
// cardinality. The governor is per query, so each run gets a fresh one.
func runGovernedVariant(db *engine.DB, v sweepVariant, runs int, lim engine.Limits) (d time.Duration, allocs float64, rows int, err error) {
	plan := v.plan(engine.ScanP{Name: "sal"})
	d, allocs, err = MedianAllocs(runs, func() error {
		rows = 0
		it, err := parallel.Exec(context.Background(), db, plan, parallel.Options{
			Workers: max(v.par, 1),
			Gov:     engine.NewGovernor(lim),
		})
		if err != nil {
			return err
		}
		defer it.Close()
		b := engine.NewRowBatch(engine.DefaultBatchSize)
		for it.NextBatch(b) {
			rows += b.Len()
		}
		if err := it.Err(); err != nil {
			return err
		}
		if rows == 0 {
			return fmt.Errorf("empty result")
		}
		return nil
	})
	return d, allocs, rows, err
}
