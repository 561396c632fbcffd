package engine_test

// ReportAllocs benchmarks for hash-join build pre-sizing: Build with
// the cardinality hint DB.JoinStrategy computes must allocate measurably
// less than the unhinted build, because the bucket map never
// rehashes/grows during the drain. Run both with -benchmem to see the
// allocs/op delta:
//
//	go test -run - -bench 'BenchmarkJoinBuild' -benchmem ./internal/engine
//
// The companion correctness property (the hint never changes results)
// is pinned by every executed hash join that builds on a stored table:
// the executor passes the hint there.

import (
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/tuple"
)

// prepBuildBench returns the prepared join and the build-side input for
// a many-distinct-keys build — the worst case for incremental map
// growth, hence where pre-sizing pays.
func prepBuildBench(b *testing.B) (*engine.JoinPrep, *engine.Table) {
	b.Helper()
	build := benchTable(benchRows, benchRows) // one row per distinct key
	probe := benchTable(16, 16)
	prep, err := engine.PrepareJoin(
		tuple.NewSchema("g", "v"), probe.DataSchema(),
		algebra.Eq(algebra.Col("g"), algebra.Col("r.g")),
	)
	if err != nil {
		b.Fatal(err)
	}
	if !prep.HasEquiKey() {
		b.Fatal("bench predicate must be an equi join")
	}
	return prep, build
}

func BenchmarkJoinBuildUnsized(b *testing.B) {
	prep, build := prepBuildBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jb := prep.Build(engine.NewTableIter(build), false, 0)
		if jb.Rows() != benchRows {
			b.Fatalf("build retained %d rows", jb.Rows())
		}
	}
}

func BenchmarkJoinBuildPresized(b *testing.B) {
	prep, build := prepBuildBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jb := prep.Build(engine.NewTableIter(build), false, benchRows)
		if jb.Rows() != benchRows {
			b.Fatalf("build retained %d rows", jb.Rows())
		}
	}
}
