package engine_test

// ReportAllocs benchmarks pinning the allocation-lean group-key work:
// the hot grouping paths (coalesce, split/aggregate, difference,
// streaming sweeps, hash-join build/probe) look groups up through a
// reusable scratch buffer and map[string(scratch)] accesses, so key
// strings are materialized once per distinct group — allocations per
// ROW must stay flat as the row count grows, instead of the one-or-two
// strings per row the Tuple.Key() calls used to cost.

import (
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

func BenchmarkStreamCoalesceKeys(b *testing.B) {
	in := benchTable(benchRows, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Materialize(engine.NewStreamCoalesceIter(engine.NewTableIter(in)))
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
