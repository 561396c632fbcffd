package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/rewrite"
	"snapk/internal/tuple"
)

// colMapDB builds t(a, b, c) and the differently shaped u(x, y) over
// small value domains, so groups repeat, intervals overlap and the
// difference's two sides share rows, and returns them by name as well.
// Sorted tables are inserted in begin order, so every sweep over them
// streams; otherwise the rows stay in their random order and the sweeps
// block.
func colMapDB(seed int64, sorted bool) (*engine.DB, map[string]*engine.Table) {
	rng := rand.New(rand.NewSource(seed))
	dom := interval.NewDomain(0, 40)
	db, tables := engine.NewDB(dom), make(map[string]*engine.Table)
	gen := func(name string, cols []string, n int, val func(col int) tuple.Value) {
		rows := make([]tuple.Tuple, n)
		for i := range rows {
			b := rng.Int63n(36)
			row := make(tuple.Tuple, len(cols))
			for c := range row {
				row[c] = val(c)
			}
			rows[i] = append(row, tuple.Int(b), tuple.Int(min(b+1+rng.Int63n(12), dom.Max)))
		}
		if sorted {
			engine.SortRowsByEndpoints(rows)
		}
		t := db.CreateTable(name, tuple.NewSchema(cols...))
		tables[name] = t
		for _, row := range rows {
			n := len(row)
			t.Append(row[:n-2], interval.New(row[n-2].AsInt(), row[n-1].AsInt()), 1)
		}
	}
	small := func(int) tuple.Value { return tuple.Int(rng.Int63n(4)) }
	gen("t", []string{"a", "b", "c"}, 60, func(c int) tuple.Value {
		if c == 1 {
			return tuple.String_(fmt.Sprintf("s%d", rng.Intn(3)))
		}
		return small(c)
	})
	gen("u", []string{"x", "y"}, 40, small)
	return db, tables
}

// col is one projection item reading column from as name.
func col(name, from string) algebra.NamedExpr {
	return algebra.NamedExpr{Name: name, E: algebra.Col(from)}
}

func proj(in algebra.Query, items ...algebra.NamedExpr) algebra.Query {
	return algebra.Project{Exprs: items, In: in}
}

var (
	relT = algebra.Rel{Name: "t"}
	relU = algebra.Rel{Name: "u"}
)

// colMapQueries are projections that permute, drop, duplicate and
// rename columns, under each sweep (the final coalesce, the difference,
// the aggregation), over a join, over a filter and stacked. want names
// the plan node a column-only Project must sit directly below, or, as
// "over <node>", directly above (mapAt).
var colMapQueries = []struct {
	name string
	q    algebra.Query
	want string
}{
	{"coalesce over a permute and drop", proj(relT, col("k", "b"), col("v", "a")), "Coalesce"},
	{"coalesce over a duplicated column", proj(relT, col("a1", "a"), col("a2", "a"), col("c", "c")), "Coalesce"},
	{"coalesce over an identity rename", proj(relU, col("p", "x"), col("q", "y")), "Coalesce"},
	{"difference of differently mapped tables", algebra.Diff{
		L: proj(relT, col("p", "c"), col("q", "a")),
		R: proj(relU, col("p", "y"), col("q", "x")),
	}, "Diff"},
	{"difference of a map and an identity", algebra.Diff{
		L: proj(relU, col("p", "x"), col("q", "y")),
		R: proj(relT, col("p", "a"), col("q", "c")),
	}, "Diff"},
	{"grouped aggregation over a map", algebra.Agg{
		GroupBy: []string{"k"},
		Aggs:    []algebra.AggSpec{{Fn: krel.CountStar, As: "n"}, {Fn: krel.Sum, Arg: "v", As: "s"}, {Fn: krel.Max, Arg: "v", As: "hi"}},
		In:      proj(relT, col("v", "a"), col("k", "c")),
	}, "Agg"},
	{"global aggregation over a map", algebra.Agg{
		Aggs: []algebra.AggSpec{{Fn: krel.CountStar, As: "n"}, {Fn: krel.Min, Arg: "v", As: "lo"}},
		In:   proj(relT, col("v", "c")),
	}, "Agg"},
	{"map over a join of maps", proj(algebra.Join{
		L:    proj(relT, col("k", "c"), col("s", "b")),
		R:    proj(relU, col("w", "y"), col("k2", "x")),
		Pred: algebra.Eq(algebra.Col("k"), algebra.Col("k2")),
	}, col("w", "w"), col("s", "s"), col("w2", "w")), "over Join"},
	{"map over an overlap join", proj(algebra.Join{
		L:    proj(relT, col("k", "a")),
		R:    relU,
		Pred: algebra.Lt(algebra.Col("k"), algebra.Col("x")),
	}, col("y", "y"), col("k", "k")), "over Join"},
	{"map over a filter over a map", proj(algebra.Select{
		Pred: algebra.Ne(algebra.Col("s"), algebra.StrC("s1")),
		In:   proj(relT, col("s", "b"), col("n", "a"), col("m", "c")),
	}, col("m", "m"), col("n", "n")), "over Filter"},
	{"stacked maps", proj(proj(proj(relT, col("c", "c"), col("a", "a"), col("b", "b")), col("z", "b"), col("w", "a")), col("w", "w")), "over Project"},
	{"a computed projection over a map", proj(proj(relT, col("m", "c"), col("n", "a")),
		algebra.NamedExpr{Name: "s", E: algebra.Add(algebra.Col("n"), algebra.Col("m"))}), ""},
	{"union of differently mapped tables", algebra.Union{
		L: proj(relT, col("p", "c"), col("q", "a")),
		R: proj(relU, col("p", "y"), col("q", "x")),
	}, ""},
}

// TestColumnMapsAgainstSnapshotOracle runs every column-map query at one
// and two workers, over begin-sorted and unsorted tables, and checks the
// result against the abstract model (package snapshot) at every time
// point, and that it is the unique coalesced encoding. The plans must
// hold a column-only Project where the query says, so the map is read
// through by the operator under test.
func TestColumnMapsAgainstSnapshotOracle(t *testing.T) {
	for _, sorted := range []bool{true, false} {
		for seed := int64(0); seed < 6; seed++ {
			db, tables := colMapDB(seed, sorted)
			for _, tc := range colMapQueries {
				p, err := rewrite.Rewrite(tc.q, db, rewrite.Options{Mode: rewrite.ModeOptimized})
				if err != nil {
					t.Fatalf("%s: rewrite: %v", tc.name, err)
				}
				if tc.want != "" && !mapAt(p, tc.want) {
					t.Fatalf("%s: no column-only Project at %q in %s", tc.name, tc.want, p)
				}
				// Every sweep streams over the sorted tables and blocks over
				// the unsorted ones, so both drivers read through the maps.
				sweep := tc.want == "Coalesce" || tc.want == "Diff" || tc.want == "Agg"
				if streams := strings.Contains(parallel.Explain(db, p, 1).Render(), "sweep=streaming"); sweep && streams != sorted {
					t.Fatalf("%s: sorted=%v, but a sweep streams=%v", tc.name, sorted, streams)
				}
				for _, workers := range []int{1, 2} {
					it, err := parallel.Exec(context.Background(), db, p, parallel.Options{Workers: workers, MorselSize: 4})
					if err != nil {
						t.Fatalf("%s: exec: %v", tc.name, err)
					}
					got, err := engine.MaterializeErr(it)
					it.Close()
					if err != nil {
						t.Fatalf("%s: drain: %v", tc.name, err)
					}
					if err := engine.SnapshotOracle(db.Domain(), tc.q, got, tables); err != nil {
						t.Fatalf("%s, sorted=%v, seed %d, %d workers: %v\nplan: %s", tc.name, sorted, seed, workers, err, p)
					}
					// A group split across partitions by a key hashed off
					// the map would keep the snapshots but not the unique
					// encoding.
					if !engine.IsCoalesced(got) {
						t.Fatalf("%s, sorted=%v, seed %d, %d workers: the result is not coalesced\n%s", tc.name, sorted, seed, workers, got)
					}
				}
			}
		}
	}
}

// mapAt reports whether p holds a column-only Project directly below a
// node of type engine.<op>P, or, for want "over <op>", directly above
// one.
func mapAt(p engine.Plan, want string) bool {
	for _, in := range engine.Inputs(p) {
		if pr, ok := in.(engine.ProjectP); ok && columnOnly(pr.Exprs) {
			if above, ok := strings.CutPrefix(want, "over "); ok && nodeIs(pr.In, above) || !ok && nodeIs(p, want) {
				return true
			}
		}
		if mapAt(in, want) {
			return true
		}
	}
	return false
}

func nodeIs(p engine.Plan, op string) bool { return fmt.Sprintf("%T", p) == "engine."+op+"P" }

func columnOnly(exprs []algebra.NamedExpr) bool {
	for _, ne := range exprs {
		if _, ok := ne.E.(algebra.ColRef); !ok {
			return false
		}
	}
	return true
}
