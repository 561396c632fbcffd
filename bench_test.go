// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Each benchmark name
// carries the experiment id; run all with
//
//	go test -bench=. -benchmem
//
// Benchmark datasets are scaled so the whole suite finishes in minutes;
// cmd/snapbench runs the same experiments at larger scales with
// paper-style table output.
package snapk_test

import (
	"context"
	"fmt"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/dataset"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
	"snapk/internal/harness"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/rewrite"
	"snapk/internal/workload"
)

// benchEmployees is the Employee dataset used by the Table 3 benchmarks.
var benchEmployees = dataset.EmployeesConfig{NumEmployees: 800, NumDepartments: 9, Seed: 42}

// benchTPCSmall / benchTPCLarge are the two TPC-BiH scales (the paper's
// SF1 → SF10 step, scaled down).
var (
	benchTPCSmall = dataset.TPCBiHConfig{ScaleFactor: 0.05, Seed: 7}
	benchTPCLarge = dataset.TPCBiHConfig{ScaleFactor: 0.15, Seed: 7}
)

// BenchmarkFig5Coalesce regenerates Figure 5: multiset coalescing runtime
// for varying input sizes; per-row cost should stay flat (linear
// scaling).
func BenchmarkFig5Coalesce(b *testing.B) {
	for _, n := range []int{1000, 10000, 50000, 100000} {
		db := dataset.CoalesceInput(n, 3)
		tbl, err := db.Table("sal")
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				engine.Coalesce(tbl)
			}
		})
	}
}

// benchWorkload runs one workload query under one approach.
func benchWorkload(b *testing.B, db *engine.DB, wq workload.Query, ap harness.Approach) {
	b.Helper()
	q, err := wq.Translate(db)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := harness.Run(db, q, ap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Employee regenerates the Employee half of Table 3:
// every query under Seq and both native comparators. The paper's shape:
// joins comparable, Seq far ahead on aggregation (except tiny inputs),
// Nat ahead on diff-1, Seq ahead on diff-2.
func BenchmarkTable3Employee(b *testing.B) {
	db := dataset.Employees(benchEmployees)
	for _, wq := range workload.Employees() {
		for _, ap := range []harness.Approach{harness.Seq, harness.NatIP, harness.NatAlign} {
			b.Run(fmt.Sprintf("q=%s/ap=%s", wq.ID, ap), func(b *testing.B) {
				benchWorkload(b, db, wq, ap)
			})
		}
	}
}

// BenchmarkTable3TPCBiH regenerates the TPC-BiH half of Table 3 at two
// scale factors. Nat-align is run only at the small scale — at larger
// scales it is the analogue of the paper's 2-hour timeouts.
func BenchmarkTable3TPCBiH(b *testing.B) {
	small := dataset.TPCBiH(benchTPCSmall)
	large := dataset.TPCBiH(benchTPCLarge)
	for _, wq := range workload.TPCH() {
		b.Run(fmt.Sprintf("q=%s/sf=small/ap=Seq", wq.ID), func(b *testing.B) {
			benchWorkload(b, small, wq, harness.Seq)
		})
		b.Run(fmt.Sprintf("q=%s/sf=small/ap=Nat-align", wq.ID), func(b *testing.B) {
			benchWorkload(b, small, wq, harness.NatAlign)
		})
		b.Run(fmt.Sprintf("q=%s/sf=large/ap=Seq", wq.ID), func(b *testing.B) {
			benchWorkload(b, large, wq, harness.Seq)
		})
	}
}

// BenchmarkAblationCoalescePlacement regenerates ablation E7 (§9): a
// single final coalesce (justified by Lemma 6.1) vs coalescing after
// every operator.
func BenchmarkAblationCoalescePlacement(b *testing.B) {
	db := dataset.Employees(benchEmployees)
	for _, id := range []string{"join-1", "agg-1", "diff-2"} {
		wq, ok := workload.ByID(workload.Employees(), id)
		if !ok {
			b.Fatalf("missing %s", id)
		}
		b.Run("q="+id+"/coalesce=final", func(b *testing.B) {
			benchWorkload(b, db, wq, harness.Seq)
		})
		b.Run("q="+id+"/coalesce=every-op", func(b *testing.B) {
			benchWorkload(b, db, wq, harness.SeqNaive)
		})
	}
}

// BenchmarkAblationPreAggregation regenerates ablation E8 (§9):
// pre-aggregated sweep vs materialized split, isolated on the temporal
// aggregation operator itself.
func BenchmarkAblationPreAggregation(b *testing.B) {
	db := dataset.Employees(benchEmployees)
	sal, err := db.Table("salaries")
	if err != nil {
		b.Fatal(err)
	}
	aggs := []algebra.AggSpec{{Fn: krel.Avg, Arg: "salary", As: "avg_salary"}}
	for _, mode := range []struct {
		name   string
		preAgg bool
	}{{"preagg", true}, {"naive-split", false}} {
		b.Run("mode="+mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.TemporalAggregate(sal, []string{"emp_no"}, aggs, mode.preAgg, db.Domain()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// streamingPipelinePlan is a pipeline-heavy physical plan in the shape
// REWR produces for Fig 4 chains: a Filter feeding the probe side of a
// TemporalJoin whose output streams through a Project. Under the
// reference evaluator every operator allocates its full intermediate;
// under the executor only the final result is materialized.
func streamingPipelinePlan() engine.Plan {
	return engine.ProjectP{
		Exprs: []algebra.NamedExpr{
			{Name: "emp_no", E: algebra.Col("emp_no")},
			{Name: "salary", E: algebra.Col("salary")},
			{Name: "title", E: algebra.Col("title")},
		},
		In: engine.JoinP{
			L: engine.FilterP{
				Pred: algebra.Gt(algebra.Col("salary"), algebra.IntC(45000)),
				In:   engine.ScanP{Name: "salaries"},
			},
			R:    engine.ScanP{Name: "titles"},
			Pred: algebra.Eq(algebra.Col("emp_no"), algebra.Col("r.emp_no")),
		},
	}
}

// BenchmarkStreamingPipeline compares the pull-based executor at one
// worker (parallel.Exec) against the node-at-a-time reference evaluator
// (DB.Exec) on the Filter→Join→Project pipeline; the allocation report
// shows the B/op reduction from never materializing the filter and join
// intermediates.
func BenchmarkStreamingPipeline(b *testing.B) {
	db := dataset.Employees(benchEmployees)
	plan := streamingPipelinePlan()
	b.Run("engine=stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			it, err := parallel.Exec(context.Background(), db, plan, parallel.Options{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			tbl := engine.Materialize(it)
			it.Close()
			if tbl.Len() == 0 {
				b.Fatal("empty pipeline result")
			}
		}
	})
	b.Run("engine=materialize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tbl, err := db.Exec(plan)
			if err != nil {
				b.Fatal(err)
			}
			if tbl.Len() == 0 {
				b.Fatal("empty pipeline result")
			}
		}
	})
}

// BenchmarkAblationStreaming runs full REWR workload queries through the
// harness under the Seq approach.
func BenchmarkAblationStreaming(b *testing.B) {
	db := dataset.Employees(benchEmployees)
	for _, id := range []string{"join-1", "join-3"} {
		wq, ok := workload.ByID(workload.Employees(), id)
		if !ok {
			b.Fatalf("missing %s", id)
		}
		b.Run("q="+id+"/engine=stream", func(b *testing.B) {
			benchWorkload(b, db, wq, harness.Seq)
		})
	}
}

// BenchmarkOverlapJoin measures the endpoint-sorted interval-overlap
// sweep that replaced the single-bucket hash fallback for join
// predicates without equality conjuncts.
func BenchmarkOverlapJoin(b *testing.B) {
	db := dataset.Employees(benchEmployees)
	plan := engine.JoinP{
		L:    engine.ScanP{Name: "employees"},
		R:    engine.ScanP{Name: "dept_manager"},
		Pred: algebra.BoolC(true),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTimeslice measures the τ_T operator on a query result — the
// cheap snapshot extraction that representation systems promise.
func BenchmarkTimeslice(b *testing.B) {
	db := dataset.Employees(benchEmployees)
	wq, _ := workload.ByID(workload.Employees(), "agg-1")
	res, err := harness.RunWorkload(db, wq, harness.Seq)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cnt := 0
		for _, row := range res.Rows {
			iv := res.Interval(row)
			if iv.Begin <= 500 && 500 < iv.End {
				cnt++
			}
		}
	}
}

// BenchmarkAblationWindowPushdown measures window placement on the
// selective join query join-3 under a window over the first tenth of
// the domain: pushed to the scans (what every windowed query plans) vs
// a hand-built plan that clips once at the root.
func BenchmarkAblationWindowPushdown(b *testing.B) {
	db := dataset.Employees(benchEmployees)
	wq, _ := workload.ByID(workload.Employees(), "join-3")
	q, err := wq.Translate(db)
	if err != nil {
		b.Fatal(err)
	}
	dom := db.Domain()
	window := interval.New(dom.Min, dom.Min+(dom.Max-dom.Min)/10)
	pushed, err := rewrite.Rewrite(q, db, rewrite.Options{Window: window})
	if err != nil {
		b.Fatal(err)
	}
	unwindowed, err := rewrite.Rewrite(q, db, rewrite.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		plan engine.Plan
	}{{"pushed", pushed}, {"at-root", engine.WindowP{T: window, In: unwindowed}}} {
		b.Run("window="+mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				it, err := parallel.Exec(context.Background(), db, mode.plan, parallel.Options{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				_, err = engine.MaterializeErr(it)
				it.Close()
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelPipeline measures the executor on the
// Filter→Join→Project pipeline at several worker counts, one worker
// (a single fragment, no exchange) being the baseline. Speedup
// tracks the available cores (GOMAXPROCS).
func BenchmarkParallelPipeline(b *testing.B) {
	db := dataset.Employees(benchEmployees)
	plan := streamingPipelinePlan()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				it, err := parallel.Exec(context.Background(), db, plan, parallel.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				tbl := engine.Materialize(it)
				it.Close()
				if tbl.Len() == 0 {
					b.Fatal("empty pipeline result")
				}
			}
		})
	}
}
