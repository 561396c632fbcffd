package harness

import (
	"context"
	"fmt"
	"io"
	"time"

	"snapk/internal/algebra"
	"snapk/internal/dataset"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
	"snapk/internal/krel"
)

// sweepVariant is one physical sweep configuration measured by the
// sweep and parstream experiments. The input selects the sweep's form:
// it streams over the begin-sorted copy and blocks over the unsorted one.
type sweepVariant struct {
	name   string
	sorted bool // run over the begin-sorted copy of the input
	plan   func(scan engine.Plan) engine.Plan
	par    int // workers; 0 = one fragment, no exchange
}

// coalescePlan wraps a scan in the coalesce operator.
func coalescePlan(s engine.Plan) engine.Plan { return engine.CoalesceP{In: s} }

// aggPlan wraps a scan in the pre-aggregated split/aggregate of the
// coalescing workload.
func aggPlan(s engine.Plan) engine.Plan {
	return engine.AggP{
		GroupBy: []string{"emp_no"},
		Aggs:    []algebra.AggSpec{{Fn: krel.Sum, Arg: "salary", As: "total"}, {Fn: krel.CountStar, As: "cnt"}},
		PreAgg:  true,
		In:      s,
	}
}

// Sweep measures the streaming vs materializing vs hash-partitioned
// sweep operators (coalesce and pre-aggregated split/aggregate) on the
// coalescing workload: streaming over the begin-sorted copy of the
// input, blocking over the unsorted one. The streaming sweeps should at
// least match the materializing baseline: they skip the per-group
// sorting passes and hold only the open intervals.
func Sweep(w io.Writer, sc Scale, rep *Report) error {
	coalesceVariants := []sweepVariant{
		{name: "coalesce-streaming/sorted", sorted: true, plan: coalescePlan},
		{name: "coalesce-blocking/unsorted", plan: coalescePlan},
		{name: fmt.Sprintf("coalesce-parallel-x%d/unsorted", DefaultWorkers), plan: coalescePlan, par: DefaultWorkers},
	}
	aggVariants := []sweepVariant{
		{name: "agg-streaming/sorted", sorted: true, plan: aggPlan},
		{name: "agg-blocking/unsorted", plan: aggPlan},
		{name: fmt.Sprintf("agg-parallel-x%d/unsorted", DefaultWorkers), plan: aggPlan, par: DefaultWorkers},
	}

	tw := NewTable("rows", "variant", "median (s)", "out rows")
	for _, n := range sc.Fig5Sizes {
		if n > 500000 {
			// Not silently: the report must show which configured sizes
			// were not measured.
			fmt.Fprintf(w, "sweep: skipping configured size %d (cap 500000)\n", n)
			continue
		}
		db, sortedDB := sweepInputs(n)
		for _, v := range append(append([]sweepVariant{}, coalesceVariants...), aggVariants...) {
			d, allocs, rows, err := runSweepVariant(db, sortedDB, v, sc.Runs)
			if err != nil {
				return fmt.Errorf("sweep %s: %w", v.name, err)
			}
			tw.AddRow(fmt.Sprintf("%d", n), v.name, FormatDuration(d), fmt.Sprintf("%d", rows))
			rep.AddDetail("sweep", fmt.Sprintf("%s/rows=%d", v.name, n), d, allocs, int64(rows), nil)
		}
	}
	_, err := tw.WriteTo(w)
	return err
}

// sweepInputs builds the coalescing workload twice: as generated
// (unsorted) and with the stored rows re-sorted into endpoint order, so
// the sweeps stream over the sorted copy.
func sweepInputs(n int) (unsorted, sorted *engine.DB) {
	unsorted = dataset.CoalesceInput(n, 3)
	tbl, err := unsorted.Table("sal")
	if err != nil {
		panic(err) // generated dataset always has the sal table
	}
	st := tbl.Clone()
	st.SortByEndpoints()
	sorted = engine.NewDB(unsorted.Domain())
	sorted.AddTable("sal", st)
	return unsorted, sorted
}

// runSweepVariant times one variant and returns its median runtime,
// median allocations per run and output cardinality.
func runSweepVariant(db, sortedDB *engine.DB, v sweepVariant, runs int) (d time.Duration, allocs float64, rows int, err error) {
	target := db
	if v.sorted {
		target = sortedDB
	}
	plan := v.plan(engine.ScanP{Name: "sal"})
	d, allocs, err = MedianAllocs(runs, func() error {
		it, err := parallel.Exec(context.Background(), target, plan, parallel.Options{Workers: max(v.par, 1)})
		if err != nil {
			return err
		}
		defer it.Close()
		t, merr := engine.MaterializeErr(it)
		if merr != nil {
			return merr
		}
		rows = t.Len()
		if rows == 0 {
			return fmt.Errorf("empty sweep result")
		}
		return nil
	})
	return d, allocs, rows, err
}
