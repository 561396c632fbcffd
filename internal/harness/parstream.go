package harness

import (
	"fmt"
	"io"
)

// parStreamSizeCap bounds the parstream experiment input: the
// acceptance measurement of the parallel streaming sweeps is the
// 50k-row sorted input, and larger configured Fig5 sizes add minutes
// without changing the comparison.
const parStreamSizeCap = 50000

// ParStream measures the parallel streaming sweeps: parallel STREAMING
// sweeps (scan partition — each worker reads the sorted scan and keeps
// its partition — and per-worker streaming coalesce / pre-aggregated
// split) over begin-sorted input against the parallel BLOCKING
// baseline (hash partition exchange, per-worker materializing sweeps)
// over the unsorted copy, both at DefaultWorkers, plus the
// one-worker streaming sweep as the no-exchange reference. The parallel
// streaming variants should run at or under the parallel blocking
// ones: they skip the per-partition materialization and per-group
// sorting passes. (On a single-core machine the parallel variants only
// interleave — compare streaming vs blocking within the same worker
// count, not against the sequential reference.)
func ParStream(w io.Writer, sc Scale, rep *Report) error {
	variants := []sweepVariant{
		{name: fmt.Sprintf("coalesce-blocking-x%d/unsorted", DefaultWorkers),
			plan: coalescePlan, par: DefaultWorkers},
		{name: fmt.Sprintf("coalesce-streaming-x%d/sorted", DefaultWorkers), sorted: true,
			plan: coalescePlan, par: DefaultWorkers},
		{name: "coalesce-streaming/sorted", sorted: true, plan: coalescePlan},
		{name: fmt.Sprintf("agg-blocking-x%d/unsorted", DefaultWorkers),
			plan: aggPlan, par: DefaultWorkers},
		{name: fmt.Sprintf("agg-streaming-x%d/sorted", DefaultWorkers), sorted: true,
			plan: aggPlan, par: DefaultWorkers},
		{name: "agg-streaming/sorted", sorted: true, plan: aggPlan},
	}
	tw := NewTable("rows", "variant", "median (s)", "out rows")
	for _, n := range sc.Fig5Sizes {
		if n > parStreamSizeCap {
			// Not silently: the report must show which configured sizes
			// were not measured.
			fmt.Fprintf(w, "parstream: skipping configured size %d (cap %d)\n", n, parStreamSizeCap)
			continue
		}
		db, sortedDB := sweepInputs(n)
		for _, v := range variants {
			d, allocs, rows, err := runSweepVariant(db, sortedDB, v, sc.Runs)
			if err != nil {
				return fmt.Errorf("parstream %s: %w", v.name, err)
			}
			tw.AddRow(fmt.Sprintf("%d", n), v.name, FormatDuration(d), fmt.Sprintf("%d", rows))
			rep.AddDetail("parstream", fmt.Sprintf("%s/rows=%d", v.name, n), d, allocs, int64(rows), nil)
		}
	}
	_, err := tw.WriteTo(w)
	return err
}
