package harness

import (
	"context"
	"fmt"
	"io"
	"time"

	"snapk/internal/dataset"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
)

// diffSizeCap bounds the diff experiment input, like parstream: the
// acceptance measurement of the streaming-difference study is the
// 50k-row begin-sorted input, and larger configured Fig5 sizes add
// minutes without changing the comparison.
const diffSizeCap = 50000

// diffVariant is one physical difference configuration measured by the
// diff experiment. The input selects the form: the difference streams
// over the begin-sorted copies and blocks over the unsorted ones.
type diffVariant struct {
	name   string
	sorted bool // run over the begin-sorted copies of the inputs
	par    int  // workers; 0 = one fragment, no exchange
}

// Diff measures the temporal difference in its physical forms: the
// blocking fused sweep (materialize both inputs, per-group delta maps)
// over the unsorted inputs against the streaming merge-based sweep
// (begin-sorted two-input merge, O(open intervals + active groups)
// state) over the sorted copies, sequential and at DefaultWorkers
// fragments (pairwise order-preserving repartition, per-worker streaming
// diffs). The streaming variants should run at or under the blocking
// ones: they skip both materializations and the per-group endpoint
// sorting.
func Diff(w io.Writer, sc Scale, rep *Report) error {
	variants := []diffVariant{
		{name: "diff-streaming/sorted", sorted: true},
		{name: "diff-blocking/unsorted"},
		{name: fmt.Sprintf("diff-blocking-x%d/unsorted", DefaultWorkers), par: DefaultWorkers},
		{name: fmt.Sprintf("diff-streaming-x%d/sorted", DefaultWorkers), sorted: true, par: DefaultWorkers},
	}
	tw := NewTable("rows", "variant", "median (s)", "out rows")
	for _, n := range sc.Fig5Sizes {
		if n > diffSizeCap {
			// Not silently: the report must show which configured sizes
			// were not measured.
			fmt.Fprintf(w, "diff: skipping configured size %d (cap %d)\n", n, diffSizeCap)
			continue
		}
		db, sortedDB := diffInputs(n)
		for _, v := range variants {
			d, allocs, rows, err := runDiffVariant(db, sortedDB, v, sc.Runs)
			if err != nil {
				return fmt.Errorf("diff %s: %w", v.name, err)
			}
			tw.AddRow(fmt.Sprintf("%d", n), v.name, FormatDuration(d), fmt.Sprintf("%d", rows))
			rep.AddDetail("diff", fmt.Sprintf("%s/rows=%d", v.name, n), d, allocs, int64(rows), nil)
		}
	}
	_, err := tw.WriteTo(w)
	return err
}

// diffInputs builds the difference workload twice — as generated
// (unsorted) and with the stored rows re-sorted into endpoint order.
// The left side is the n-row coalescing workload; the right side is
// generated with the SAME seed at half the size, so it reproduces the
// first half of the left rows exactly: value-equivalent groups exist on
// both sides everywhere and the ℕ monus has real truncation work, while
// the surviving left half keeps the result non-empty.
func diffInputs(n int) (unsorted, sorted *engine.DB) {
	ldb := dataset.CoalesceInput(n, 3)
	rdb := dataset.CoalesceInput(max(n/2, 1), 3)
	lt, err := ldb.Table("sal")
	if err != nil {
		panic(err) // generated dataset always has the sal table
	}
	rt, err := rdb.Table("sal")
	if err != nil {
		panic(err)
	}
	unsorted = engine.NewDB(ldb.Domain())
	unsorted.AddTable("l", lt)
	unsorted.AddTable("r", rt)
	ls, rs := lt.Clone(), rt.Clone()
	ls.SortByEndpoints()
	rs.SortByEndpoints()
	sorted = engine.NewDB(ldb.Domain())
	sorted.AddTable("l", ls)
	sorted.AddTable("r", rs)
	return unsorted, sorted
}

// runDiffVariant times one variant and returns its median runtime,
// median allocations per run and output cardinality.
func runDiffVariant(db, sortedDB *engine.DB, v diffVariant, runs int) (d time.Duration, allocs float64, rows int, err error) {
	target := db
	if v.sorted {
		target = sortedDB
	}
	plan := engine.DiffP{L: engine.ScanP{Name: "l"}, R: engine.ScanP{Name: "r"}}
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
			return fmt.Errorf("empty diff result")
		}
		return nil
	})
	return d, allocs, rows, err
}
