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
	"snapk/internal/rewrite"
	"snapk/internal/tuple"
)

// TestIntOverflowIsNull runs Int +, − and × that overflow int64 through
// a computing projection and through filters, at one and two workers,
// over stored MaxInt64 and MinInt64 values: each overflowing result is
// NULL in the engine, not a wrapped value, and the abstract model
// agrees at every time point.
func TestIntOverflowIsNull(t *testing.T) {
	db := engine.NewDB(interval.NewDomain(0, 20))
	tbl := db.CreateTable("t", tuple.NewSchema("k", "a"))
	for k, a := range []int64{math.MaxInt64, math.MinInt64, 5, -3} {
		tbl.Append(tuple.Tuple{tuple.Int(int64(k)), tuple.Int(a)}, interval.New(int64(k), int64(k)+10), 1)
	}
	tables := map[string]*engine.Table{"t": tbl}
	a, one := algebra.Col("a"), algebra.IntC(1)
	exprs := []algebra.NamedExpr{
		{Name: "inc", E: algebra.Add(a, one)},
		{Name: "dec", E: algebra.Sub(a, one)},
		{Name: "neg", E: algebra.Mul(a, algebra.IntC(-1))},
		{Name: "dbl", E: algebra.Mul(a, algebra.IntC(2))},
	}
	null := tuple.Null
	wantProj := map[int64][]tuple.Value{
		0: {null, tuple.Int(math.MaxInt64 - 1), tuple.Int(-math.MaxInt64), null},
		1: {tuple.Int(math.MinInt64 + 1), null, null, null},
		2: {tuple.Int(6), tuple.Int(4), tuple.Int(-5), tuple.Int(10)},
		3: {tuple.Int(-2), tuple.Int(-4), tuple.Int(3), tuple.Int(-6)},
	}
	run := func(name string, q algebra.Query, workers int) *engine.Table {
		t.Helper()
		p, err := rewrite.Rewrite(q, db, rewrite.Options{Mode: rewrite.ModeOptimized})
		if err != nil {
			t.Fatalf("%s: rewrite: %v", name, err)
		}
		it, err := parallel.Exec(context.Background(), db, p, parallel.Options{Workers: workers, MorselSize: 2})
		if err != nil {
			t.Fatalf("%s: exec: %v", name, err)
		}
		got, err := engine.MaterializeErr(it)
		it.Close()
		if err != nil {
			t.Fatalf("%s, %d workers: drain: %v", name, workers, err)
		}
		if err := engine.SnapshotOracle(db.Domain(), q, got, tables); err != nil {
			t.Fatalf("%s, %d workers: %v", name, workers, err)
		}
		return got
	}
	keys := func(got *engine.Table) []int64 {
		var ks []int64
		for _, row := range got.Rows {
			ks = append(ks, row[0].AsInt())
		}
		slices.Sort(ks)
		return ks
	}
	for _, workers := range []int{1, 2} {
		project := algebra.Project{Exprs: append([]algebra.NamedExpr{{Name: "k", E: algebra.Col("k")}}, exprs...), In: relT}
		got := run("project", project, workers)
		if len(got.Rows) != len(wantProj) {
			t.Fatalf("project, %d workers: %d rows, want %d\n%s", workers, len(got.Rows), len(wantProj), got)
		}
		for _, row := range got.Rows {
			want := wantProj[row[0].AsInt()]
			for i, w := range want {
				if g := row[1+i]; g.IsNull() != w.IsNull() || !w.IsNull() && g.AsInt() != w.AsInt() {
					t.Errorf("project, %d workers: k=%d %s = %v, want %v", workers, row[0].AsInt(), exprs[i].Name, g, w)
				}
			}
		}
		// A filter on the NULL keeps exactly the rows that overflow.
		for i, want := range [][]int64{{0}, {1}, {1}, {0, 1}} {
			filter := algebra.Project{Exprs: []algebra.NamedExpr{{Name: "k", E: algebra.Col("k")}}, In: algebra.Select{Pred: algebra.IsNullExpr{E: exprs[i].E}, In: relT}}
			if ks := keys(run(exprs[i].Name+" IS NULL", filter, workers)); !slices.Equal(ks, want) {
				t.Errorf("%s IS NULL, %d workers: rows %v, want %v", exprs[i].Name, workers, ks, want)
			}
		}
		// A wrapped a + 1 would be less than a at MaxInt64; NULL is not.
		wrap := algebra.Select{Pred: algebra.Lt(exprs[0].E, a), In: relT}
		if ks := keys(run("a + 1 < a", wrap, workers)); len(ks) != 0 {
			t.Errorf("a + 1 < a, %d workers: rows %v, want none", workers, ks)
		}
	}
}
