package engine_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/rewrite"
	"snapk/internal/tuple"
)

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for i := 0; i <= len(p); i++ {
			out = append(out, slices.Insert(slices.Clone(p), i, n-1))
		}
	}
	return out
}

// Min and max keep a sorted multiset of the live values, updated at
// every instant rows enter or leave. Rows that enter and leave at the
// same instants, in every insertion order, with values that are equal
// under one spelling and not another (1 and 1.0, 0.0 and −0.0), must
// give the abstract model's result under both sweeps and at one and
// two workers.
func TestMinMaxSameInstantUpdatesInAnyOrder(t *testing.T) {
	type row struct {
		g    int64
		x    tuple.Value
		b, e int64
	}
	rows := []row{
		{0, tuple.Int(1), 0, 4},
		{0, tuple.Float(1), 2, 6},
		{0, tuple.Float(math.Copysign(0, -1)), 0, 6},
		{0, tuple.Int(-3), 2, 4},
		{0, tuple.Float(2.5), 0, 4},
		{1, tuple.Float(0), 2, 6},
	}
	q := algebra.Agg{GroupBy: []string{"g"}, Aggs: []algebra.AggSpec{
		{Fn: krel.Min, Arg: "x", As: "lo"}, {Fn: krel.Max, Arg: "x", As: "hi"},
	}, In: algebra.Rel{Name: "t"}}
	dom := interval.NewDomain(0, 8)
	for _, perm := range permutations(len(rows)) {
		for _, sorted := range []bool{true, false} {
			order := make([]row, len(rows))
			for i, j := range perm {
				order[i] = rows[j]
			}
			if sorted {
				slices.SortStableFunc(order, func(a, b row) int { return int(a.b - b.b) })
			}
			db := engine.NewDB(dom)
			tbl := db.CreateTable("t", tuple.NewSchema("g", "x"))
			for _, r := range order {
				tbl.Append(tuple.Tuple{tuple.Int(r.g), r.x}, interval.New(r.b, r.e), 1)
			}
			p, err := rewrite.Rewrite(q, db, rewrite.Options{Mode: rewrite.ModeOptimized})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2} {
				it, err := parallel.Exec(context.Background(), db, p, parallel.Options{Workers: workers, MorselSize: 2})
				if err != nil {
					t.Fatal(err)
				}
				got, err := engine.MaterializeErr(it)
				it.Close()
				if err != nil {
					t.Fatal(err)
				}
				if err := engine.SnapshotOracle(dom, q, got, map[string]*engine.Table{"t": tbl}); err != nil {
					t.Fatalf("order %v, sorted=%v, %d workers: %v", perm, sorted, workers, err)
				}
			}
		}
	}
}
