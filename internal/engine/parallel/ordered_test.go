package parallel_test

import (
	"context"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/tuple"
)

// sortedScanDB builds a begin-sorted stored table with interleaved
// groups, large enough that every worker claims many morsels.
func sortedScanDB(rows int) *engine.DB {
	dom := interval.NewDomain(0, 1<<20)
	db := engine.NewDB(dom)
	tbl := db.CreateTable("t", tuple.NewSchema("g", "v"))
	for i := 0; i < rows; i++ {
		begin := int64(i) // strictly ascending: begin-sorted by construction
		tbl.Append(tuple.Tuple{tuple.Int(int64(i % 7)), tuple.Int(int64(i))}, interval.New(begin, begin+50), 1)
	}
	if !tbl.BeginSorted() {
		panic("sortedScanDB built an unsorted table")
	}
	return db
}

// The ordered merge exchange must emit a begin-sorted stream when the
// fragments are begin-sorted: a parallel scan of a sorted table, merged
// at the root, keeps global begin order at every worker count.
func TestOrderedMergePreservesBeginOrder(t *testing.T) {
	db := sortedScanDB(5000)
	for _, workers := range []int{2, 3, 8} {
		it, err := parallel.Exec(context.Background(), db, engine.ScanP{Name: "t"},
			parallel.Options{Workers: workers, MorselSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		got := engine.Materialize(it)
		it.Close()
		if got.Len() != 5000 {
			t.Fatalf("workers %d: merged scan lost rows: %d", workers, got.Len())
		}
		if !engine.RowsBeginSorted(got.Rows) {
			t.Fatalf("workers %d: ordered merge emitted out-of-order rows", workers)
		}
	}
}

// Order must survive the operators that preserve it per fragment:
// Filter and Project above a sorted scan still merge ordered.
func TestOrderedMergeSurvivesFilterProject(t *testing.T) {
	db := sortedScanDB(4000)
	p := engine.ProjectP{
		Exprs: []algebra.NamedExpr{{Name: "g", E: algebra.Col("g")}},
		In: engine.FilterP{
			Pred: algebra.Gt(algebra.Col("v"), algebra.IntC(100)),
			In:   engine.ScanP{Name: "t"},
		},
	}
	it, err := parallel.Exec(context.Background(), db, p, parallel.Options{Workers: 4, MorselSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	got := engine.Materialize(it)
	if got.Len() == 0 {
		t.Fatal("empty filtered scan; test is vacuous")
	}
	if !engine.RowsBeginSorted(got.Rows) {
		t.Fatal("ordered merge above Filter→Project emitted out-of-order rows")
	}
}

// The parallel STREAMING sweeps over the scan partition must produce
// the exact multiset of the blocking sweeps of the reference evaluator
// (DB.Exec), on begin-sorted input, for coalesce and
// grouped/global pre-aggregated aggregation, at several worker counts.
// The tiny morsel size forces real partitioning.
func TestParallelStreamingSweepEquivalence(t *testing.T) {
	db := sortedScanDB(3000)
	aggs := []algebra.AggSpec{{Fn: krel.Sum, Arg: "v", As: "total"}, {Fn: krel.CountStar, As: "cnt"}}
	plans := []struct {
		name string
		plan engine.Plan
	}{
		{"coalesce", engine.CoalesceP{In: engine.ScanP{Name: "t"}}},
		{"agg-grouped", engine.AggP{GroupBy: []string{"g"}, Aggs: aggs, PreAgg: true, In: engine.ScanP{Name: "t"}}},
		{"agg-global", engine.AggP{Aggs: aggs, PreAgg: true, In: engine.ScanP{Name: "t"}}},
	}
	for _, p := range plans {
		mat, err := db.Exec(p.plan)
		if err != nil {
			t.Fatalf("%s: oracle: %v", p.name, err)
		}
		want := sortedKeys(mat)
		if len(want) == 0 {
			t.Fatalf("%s: empty oracle result; test is vacuous", p.name)
		}
		for _, workers := range []int{2, 3, 8} {
			it, err := parallel.Exec(context.Background(), db, p.plan,
				parallel.Options{Workers: workers, MorselSize: 8})
			if err != nil {
				t.Fatalf("%s workers %d: %v", p.name, workers, err)
			}
			got := sortedKeys(engine.Materialize(it))
			it.Close()
			if !sameMultiset(got, want) {
				t.Fatalf("%s workers %d: parallel streaming sweep diverges: got %d rows, want %d",
					p.name, workers, len(got), len(want))
			}
		}
	}
}

// The parallel sweep grid over random databases and queries: the REWR
// plans over unsorted and begin-sorted tables (blocking and streaming
// sweeps) must agree with the reference evaluator. This is the qgen
// equivalence suite's coverage of the new executor path (the
// rewrite-level commuting diagram covers the logical model; this one
// stresses the exchanges with a tiny morsel size).
func TestParStreamQgenGrid(t *testing.T) {
	for _, c := range parStreamGrid(t) {
		mat, err := c.db.Exec(c.plan)
		if err != nil {
			t.Fatalf("seed %d: Exec(%s): %v", c.seed, c.plan, err)
		}
		want := sortedKeys(mat)
		for _, workers := range []int{2, 3, 4} {
			it, err := parallel.Exec(context.Background(), c.db, c.plan, parallel.Options{Workers: workers, MorselSize: 4})
			if err != nil {
				t.Fatalf("seed %d sorted %v workers %d: %v", c.seed, c.sorted, workers, err)
			}
			got := sortedKeys(engine.Materialize(it))
			it.Close()
			if !sameMultiset(got, want) {
				t.Fatalf("seed %d sorted %v workers %d: diverges from sequential\nplan: %s\ngot %d rows, want %d",
					c.seed, c.sorted, workers, c.plan, len(got), len(want))
			}
		}
	}
}
