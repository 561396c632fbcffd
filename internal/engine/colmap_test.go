package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
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
// "over <node>", directly above (mapAt). path names how the sweeps find
// their groups over the sorted tables, where they stream: "coded" by
// the table's key codes, or "hashed" (codeKeys in package parallel).
// Over the unsorted tables every sweep blocks, and hashes. window, when
// valid, restricts the query to a time window pushed to the scans.
var colMapQueries = []struct {
	name   string
	q      algebra.Query
	want   string
	path   string
	window interval.Interval
}{
	{name: "coalesce over a permute and drop", q: proj(relT, col("k", "b"), col("v", "a")), want: "Coalesce", path: "coded"},
	{name: "coalesce over a duplicated column", q: proj(relT, col("a1", "a"), col("a2", "a"), col("c", "c")), want: "Coalesce", path: "coded"},
	{name: "coalesce over an identity rename", q: proj(relU, col("p", "x"), col("q", "y")), want: "Coalesce", path: "coded"},
	{name: "difference of differently mapped tables", q: algebra.Diff{
		L: proj(relT, col("p", "c"), col("q", "a")),
		R: proj(relU, col("p", "y"), col("q", "x")),
	}, want: "Diff", path: "hashed"},
	{name: "difference of a map and an identity", q: algebra.Diff{
		L: proj(relU, col("p", "x"), col("q", "y")),
		R: proj(relT, col("p", "a"), col("q", "c")),
	}, want: "Diff", path: "hashed"},
	{name: "difference of one table under two maps", q: algebra.Diff{
		L: proj(relT, col("p", "a"), col("q", "c")),
		R: proj(proj(relT, col("x", "c"), col("y", "a")), col("p", "y"), col("q", "x")),
	}, want: "Diff", path: "coded"},
	{name: "difference of one table and its filter", q: algebra.Diff{
		L: proj(relT, col("p", "a"), col("q", "c")),
		R: proj(algebra.Select{Pred: algebra.Ne(algebra.Col("b"), algebra.StrC("s1")), In: relT}, col("p", "a"), col("q", "c")),
	}, want: "Diff", path: "coded"},
	{name: "difference of one table under maps of other columns", q: algebra.Diff{
		L: proj(relT, col("p", "a"), col("q", "c")),
		R: proj(relT, col("p", "c"), col("q", "a")),
	}, want: "Diff", path: "hashed"},
	{name: "difference with a computed side", q: algebra.Diff{
		L: proj(relT, col("p", "a"), col("q", "c")),
		R: proj(relT, algebra.NamedExpr{Name: "p", E: algebra.Add(algebra.Col("a"), algebra.IntC(0))}, col("q", "c")),
	}, want: "Diff", path: "hashed"},
	{name: "grouped aggregation over a map", q: algebra.Agg{
		GroupBy: []string{"k"},
		Aggs:    []algebra.AggSpec{{Fn: krel.CountStar, As: "n"}, {Fn: krel.Sum, Arg: "v", As: "s"}, {Fn: krel.Max, Arg: "v", As: "hi"}},
		In:      proj(relT, col("v", "a"), col("k", "c")),
	}, want: "Agg", path: "coded"},
	{name: "grouped aggregation over a filter", q: algebra.Agg{
		GroupBy: []string{"b"},
		Aggs:    []algebra.AggSpec{{Fn: krel.CountStar, As: "n"}, {Fn: krel.Min, Arg: "a", As: "lo"}},
		In:      algebra.Select{Pred: algebra.Lt(algebra.Col("c"), algebra.IntC(3)), In: relT},
	}, path: "coded"},
	{name: "global aggregation over a map", q: algebra.Agg{
		Aggs: []algebra.AggSpec{{Fn: krel.CountStar, As: "n"}, {Fn: krel.Min, Arg: "v", As: "lo"}},
		In:   proj(relT, col("v", "c")),
	}, want: "Agg", path: "hashed"},
	{name: "coalesce in a window", q: proj(relT, col("b", "b"), col("c", "c")), want: "Coalesce", path: "coded", window: interval.New(10, 30)},
	{name: "grouped aggregation in a window", q: algebra.Agg{
		GroupBy: []string{"k"},
		Aggs:    []algebra.AggSpec{{Fn: krel.CountStar, As: "n"}, {Fn: krel.Sum, Arg: "v", As: "s"}},
		In:      proj(relT, col("v", "a"), col("k", "b")),
	}, want: "Agg", path: "coded", window: interval.New(5, 25)},
	{name: "difference in a window", q: algebra.Diff{
		L: proj(relT, col("p", "a"), col("q", "c")),
		R: proj(algebra.Select{Pred: algebra.Ne(algebra.Col("b"), algebra.StrC("s2")), In: relT}, col("p", "a"), col("q", "c")),
	}, want: "Diff", path: "coded", window: interval.New(12, 20)},
	{name: "map over a join of maps", q: proj(algebra.Join{
		L:    proj(relT, col("k", "c"), col("s", "b")),
		R:    proj(relU, col("w", "y"), col("k2", "x")),
		Pred: algebra.Eq(algebra.Col("k"), algebra.Col("k2")),
	}, col("w", "w"), col("s", "s"), col("w2", "w")), want: "over Join", path: "hashed"},
	{name: "map over an overlap join", q: proj(algebra.Join{
		L:    proj(relT, col("k", "a")),
		R:    relU,
		Pred: algebra.Lt(algebra.Col("k"), algebra.Col("x")),
	}, col("y", "y"), col("k", "k")), want: "over Join", path: "hashed"},
	{name: "map over a filter over a map", q: proj(algebra.Select{
		Pred: algebra.Ne(algebra.Col("s"), algebra.StrC("s1")),
		In:   proj(relT, col("s", "b"), col("n", "a"), col("m", "c")),
	}, col("m", "m"), col("n", "n")), want: "over Filter", path: "coded"},
	{name: "stacked maps", q: proj(proj(proj(relT, col("c", "c"), col("a", "a"), col("b", "b")), col("z", "b"), col("w", "a")), col("w", "w")), want: "over Project", path: "coded"},
	{name: "a computed projection over a map", q: proj(proj(relT, col("m", "c"), col("n", "a")),
		algebra.NamedExpr{Name: "s", E: algebra.Add(algebra.Col("n"), algebra.Col("m"))}), path: "hashed"},
	{name: "union of differently mapped tables", q: algebra.Union{
		L: proj(relT, col("p", "c"), col("q", "a")),
		R: proj(relU, col("p", "y"), col("q", "x")),
	}, path: "hashed"},
}

// TestColumnMapsAgainstSnapshotOracle runs every column-map query at one
// and two workers, over begin-sorted and unsorted tables, and checks the
// result against the abstract model (package snapshot) at every time
// point, and that it is the unique coalesced encoding. The plans must
// hold a column-only Project where the query says, so the map is read
// through by the operator under test, and every sweep must find its
// groups the way the query says: by the table's key codes or by hashing.
func TestColumnMapsAgainstSnapshotOracle(t *testing.T) {
	for _, sorted := range []bool{true, false} {
		for seed := int64(0); seed < 6; seed++ {
			db, tables := colMapDB(seed, sorted)
			for _, tc := range colMapQueries {
				p, err := rewrite.Rewrite(tc.q, db, rewrite.Options{Mode: rewrite.ModeOptimized, Window: tc.window})
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
				dom, inputs := db.Domain(), tables
				if tc.window.Valid() {
					// The snapshots inside the window are the query's over the
					// tables clipped to it.
					dom, inputs = interval.NewDomain(tc.window.Begin, tc.window.End), make(map[string]*engine.Table)
					for name, tbl := range tables {
						inputs[name] = engine.ClipWindow(tbl, tc.window)
					}
				}
				for _, workers := range []int{1, 2} {
					c := engine.NewCollector()
					it, err := parallel.Exec(context.Background(), db, p, parallel.Options{Workers: workers, MorselSize: 4, Stats: c.Root})
					if err != nil {
						t.Fatalf("%s: exec: %v", tc.name, err)
					}
					got, err := engine.MaterializeErr(it)
					it.Close()
					if err != nil {
						t.Fatalf("%s: drain: %v", tc.name, err)
					}
					if err := engine.SnapshotOracle(dom, tc.q, got, inputs); err != nil {
						t.Fatalf("%s, sorted=%v, seed %d, %d workers: %v\nplan: %s", tc.name, sorted, seed, workers, err, p)
					}
					// A group split across partitions by a key hashed off
					// the map would keep the snapshots but not the unique
					// encoding.
					if !engine.IsCoalesced(got) {
						t.Fatalf("%s, sorted=%v, seed %d, %d workers: the result is not coalesced\n%s", tc.name, sorted, seed, workers, got)
					}
					want := tc.path
					if !sorted {
						want = "hashed"
					}
					if paths := sweepPaths(c.Root); len(paths) == 0 || slices.ContainsFunc(paths, func(p string) bool { return p != want }) {
						t.Fatalf("%s, sorted=%v, %d workers: sweeps ran %v, want every one %s\n%s", tc.name, sorted, workers, paths, want, c.Render())
					}
				}
			}
		}
	}
}

// sweepPaths returns, for every sweep node of an EXPLAIN ANALYZE tree,
// how its sweeps found their groups: "coded" or "hashed".
func sweepPaths(st *engine.OpStats) []string {
	var out []string
	for _, c := range st.Children() {
		if c.Label == "Coalesce" || c.Label == "Diff" || c.Label == "Agg" {
			path := "hashed"
			if c.KeyCodes() > 0 {
				path = "coded"
			}
			out = append(out, path)
		}
		out = append(out, sweepPaths(c)...)
	}
	return out
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
