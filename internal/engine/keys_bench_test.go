package engine_test

// ReportAllocs benchmarks pinning the allocation-lean group-key work.
// The naive split aggregation and the hash-join build/probe look groups
// up through a reusable scratch buffer and map[string(scratch)]
// accesses, so a key string is materialized once per distinct group.
// Every sweep — the coalesce, the difference and the pre-aggregated
// split, blocking or streaming — hashes keys with tuple.HashKey into
// the sweep kernel's table of paged groups, so it materializes none.
// Either way allocations per ROW must stay flat as the row count grows,
// instead of the one-or-two strings per row the Tuple.Key() calls used
// to cost. Most inputs here have 16 groups; ManyGroups prices the
// group table itself.

import (
	"math/rand"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/tuple"
)

// benchTable builds rows over `groups` distinct data tuples with
// overlapping intervals, begin-sorted so the streaming sweeps accept it
// directly.
func benchTable(rows, groups int) *engine.Table {
	t := engine.NewTable(tuple.NewSchema("g", "v"))
	for i := 0; i < rows; i++ {
		begin := int64(i / 2)
		t.Append(tuple.Tuple{tuple.Int(int64(i % groups)), tuple.Int(int64(i % groups))}, interval.New(begin, begin+10), 1)
	}
	return t
}

const benchRows = 20000

func BenchmarkCoalesceKeys(b *testing.B) {
	in := benchTable(benchRows, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Coalesce(in)
	}
}

func BenchmarkAggSweepKeys(b *testing.B) {
	in := benchTable(benchRows, 16)
	aggs := []algebra.AggSpec{{Fn: krel.Sum, Arg: "v", As: "total"}, {Fn: krel.CountStar, As: "cnt"}}
	dom := interval.NewDomain(0, 1<<20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.TemporalAggregate(in, []string{"g"}, aggs, true, dom); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAggNaiveSegKeys(b *testing.B) {
	// The naive split path is where the double-allocating
	// `g.Key() + "@" + endpoints.Key()` concat used to live.
	in := benchTable(benchRows/4, 16)
	aggs := []algebra.AggSpec{{Fn: krel.CountStar, As: "cnt"}}
	dom := interval.NewDomain(0, 1<<20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.TemporalAggregate(in, []string{"g"}, aggs, false, dom); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTemporalDiffKeys(b *testing.B) {
	l := benchTable(benchRows, 16)
	r := benchTable(benchRows/2, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.TemporalDiff(l, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockDiffRuns drains a blocking difference whose segments
// have multiplicity about 100 — diff-2's shape, about 94 on table3 — by
// NextRuns, as the query root hands it to the Rows cursor: the sweep
// emits a few hundred runs standing for over 20,000 rows.
func BenchmarkBlockDiffRuns(b *testing.B) {
	l := engine.NewTable(tuple.NewSchema("g", "v"))
	for i := int64(0); i < 200; i++ {
		l.Append(tuple.Tuple{tuple.Int(i % 16), tuple.Int(i)}, interval.New(10*i, 10*i+10), 100)
	}
	r := benchTable(benchRows/20, 16)
	want, err := engine.TemporalDiff(l, r)
	if err != nil {
		b.Fatal(err)
	}
	batch, mult := engine.NewRowBatch(engine.DefaultBatchSize), []int64(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := engine.NewBlockDiffIter(l, r)
		if err != nil {
			b.Fatal(err)
		}
		var rows int64
		for it.(engine.RunIter).NextRuns(batch, &mult) {
			for _, k := range mult {
				rows += k
			}
		}
		if rows != int64(want.Len()) {
			b.Fatalf("%d rows, want %d", rows, want.Len())
		}
	}
}

func BenchmarkStreamCoalesceKeys(b *testing.B) {
	in := benchTable(benchRows, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Materialize(engine.NewStreamCoalesceIter(engine.NewTableIter(in)))
	}
}

// manyGroupTable is Fig 5's coalesce input in shape (see
// dataset.CoalesceInput) with many employees at once: each emp_no runs
// a chain of periods whose salary changes about every other period and
// which overlap one time in four, so about `emps` groups are live at
// every instant of the domain.
func manyGroupTable(emps int, span int64) *engine.Table {
	rng := rand.New(rand.NewSource(1))
	t := engine.NewTable(tuple.NewSchema("emp_no", "salary"))
	for emp := 0; emp < emps; emp++ {
		sal := int64(40000 + rng.Intn(10)*1000)
		for start := rng.Int63n(20); start < span-1; {
			end := min(start+20+rng.Int63n(150), span)
			t.Append(tuple.Tuple{tuple.Int(int64(emp)), tuple.Int(sal)}, interval.New(start, end), 1)
			if rng.Intn(2) == 0 {
				sal += 1000
			}
			if rng.Intn(4) == 0 {
				start = end - 10
			} else {
				start = end
			}
		}
	}
	t.SortByEndpoints()
	return t
}

// BenchmarkStreamCoalesceManyGroups is the streaming coalesce over
// ≥ 50 k live groups: the group table, not the 16-group inputs above,
// is what it prices.
func BenchmarkStreamCoalesceManyGroups(b *testing.B) {
	in := manyGroupTable(60000, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := engine.NewStreamCoalesceIter(engine.NewTableIter(in))
		engine.Materialize(it)
		if s := it.(engine.StateSizer).MaxState(); s < 50000 {
			b.Fatalf("peak sweep state %d, want ≥ 50,000 live groups", s)
		}
		it.Close()
	}
	b.ReportMetric(float64(in.Len()), "rows/op")
}

// BenchmarkStreamAggGlobal is a global count(*) over about 60 k
// intervals open at once — Fig 5's agg-global in shape: one group, so
// the end-event queue, not the group table, is what it prices.
func BenchmarkStreamAggGlobal(b *testing.B) {
	in := manyGroupTable(60000, 400)
	aggs := []algebra.AggSpec{{Fn: krel.CountStar, As: "c"}}
	dom := interval.NewDomain(0, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := engine.NewStreamAggIter(engine.NewTableIter(in), nil, aggs, dom)
		if err != nil {
			b.Fatal(err)
		}
		engine.Materialize(it)
		if s := it.(engine.StateSizer).MaxState(); s < 50000 {
			b.Fatalf("peak sweep state %d, want ≥ 50,000 open intervals", s)
		}
		it.Close()
	}
	b.ReportMetric(float64(in.Len()), "rows/op")
}

// TestStreamAggGlobalAllocatesPerBlock: a global count(*) over about
// 60 k intervals open at once queues every end in one queue, whose
// chunks come from blocks of tens of KiB, so the whole sweep makes
// fewer than one allocation per 512 queued ends. A chunk per
// allocation would make one per 32.
func TestStreamAggGlobalAllocatesPerBlock(t *testing.T) {
	in := manyGroupTable(60000, 400)
	aggs := []algebra.AggSpec{{Fn: krel.CountStar, As: "c"}}
	dom := interval.NewDomain(0, 400)
	b := engine.NewRowBatch(engine.DefaultBatchSize)
	var peak int64
	allocs := testing.AllocsPerRun(3, func() {
		it, err := engine.NewStreamAggIter(engine.NewTableIter(in), nil, aggs, dom)
		if err != nil {
			t.Fatal(err)
		}
		for it.NextBatch(b) {
		}
		peak = it.(engine.StateSizer).MaxState()
		it.Close()
	})
	if peak < 50000 {
		t.Fatalf("peak sweep state %d, want ≥ 50,000 open intervals", peak)
	}
	if limit := float64(peak) / 512; allocs > limit {
		t.Fatalf("global count(*) with %d ends queued at its peak made %.0f allocations, want at most %.0f", peak, allocs, limit)
	}
}

func BenchmarkStreamAggKeys(b *testing.B) {
	in := benchTable(benchRows, 16)
	aggs := []algebra.AggSpec{{Fn: krel.Sum, Arg: "v", As: "total"}}
	dom := interval.NewDomain(0, 1<<20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := engine.NewStreamAggIter(engine.NewTableIter(in), []string{"g"}, aggs, dom)
		if err != nil {
			b.Fatal(err)
		}
		engine.Materialize(it)
		it.Close()
	}
}

func BenchmarkHashJoinProbeKeys(b *testing.B) {
	l := benchTable(benchRows, 64)
	r := benchTable(benchRows/4, 64)
	pred := algebra.Eq(algebra.Col("g"), algebra.Col("r.g"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.TemporalJoin(l, r, pred); err != nil {
			b.Fatal(err)
		}
	}
}
