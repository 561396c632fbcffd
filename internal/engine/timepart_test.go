package engine_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/tuple"
)

// A global aggregation at W > 1 runs as a time partition: W fragments
// over time ranges, each with its own gap rows, and a boundary merge
// that joins the segments meeting at a split. These tests check it
// against the abstract model and the one-worker result.

// tpAggs is every aggregation function over an integer argument.
var tpAggs = []algebra.AggSpec{
	{Fn: krel.CountStar, As: "n"}, {Fn: krel.Count, Arg: "x", As: "c"}, {Fn: krel.Sum, Arg: "x", As: "s"},
	{Fn: krel.Min, Arg: "x", As: "lo"}, {Fn: krel.Max, Arg: "x", As: "hi"}, {Fn: krel.Avg, Arg: "x", As: "avg"},
}

// tpRow is one stored row of the time-partition tests: its argument x
// (NULL when null is set, the float x/2 when half is) and its interval.
type tpRow struct {
	x          int64
	null, half bool
	b, e       int64
}

// timePartDB stores rows as table t over dom, begin-sorted when sorted
// is set and in reverse begin order otherwise.
func timePartDB(dom interval.Domain, rows []tpRow, sorted bool) *engine.DB {
	rows = slices.Clone(rows)
	slices.SortStableFunc(rows, func(a, b tpRow) int {
		if sorted {
			return cmpInt(a.b, b.b)
		}
		return cmpInt(b.b, a.b)
	})
	db := engine.NewDB(dom)
	tbl := db.CreateTable("t", tuple.NewSchema("x"))
	for _, r := range rows {
		x := tuple.Int(r.x)
		switch {
		case r.null:
			x = tuple.Null
		case r.half:
			x = tuple.Float(float64(r.x) / 2)
		}
		tbl.Append(tuple.Tuple{x}, interval.New(r.b, r.e), 1)
	}
	return db
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// globalAggPlan is the global aggregation of t, under window T (pushed
// as the planner pushes it) when T is valid.
func globalAggPlan(T interval.Interval) engine.Plan {
	p := engine.Plan(engine.AggP{Aggs: tpAggs, PreAgg: true, In: engine.ScanP{Name: "t"}})
	if T.Valid() {
		p = engine.PushWindow(p, T, nil)
	}
	return p
}

// runGlobalAgg runs p at the given worker count.
func runGlobalAgg(t testing.TB, db *engine.DB, p engine.Plan, workers int) *engine.Table {
	t.Helper()
	it, err := parallel.Exec(context.Background(), db, p, parallel.Options{Workers: workers, MorselSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := engine.MaterializeErr(it)
	it.Close()
	if err != nil {
		t.Fatalf("workers %d: %v", workers, err)
	}
	return got
}

// checkTimePartition runs the global aggregation of db's table t, under
// window T when it is valid, at one worker and at every width in
// widths. The one-worker result without the window is checked against
// the abstract model when oracle is set (the domain must then be small
// enough to walk), and every result must be that result clipped to T,
// as a multiset, and coalesced. It returns the most fragments any width
// ran.
func checkTimePartition(t testing.TB, db *engine.DB, T interval.Interval, oracle bool, widths ...int) int {
	t.Helper()
	tbl, err := db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	want := runGlobalAgg(t, db, globalAggPlan(interval.Interval{}), 1)
	if oracle {
		q := algebra.Agg{Aggs: tpAggs, In: algebra.Rel{Name: "t"}}
		if err := engine.SnapshotOracle(db.Domain(), q, want, map[string]*engine.Table{"t": tbl}); err != nil {
			t.Fatalf("one worker: %v\ninput:\n%s", err, tbl)
		}
	}
	if T.Valid() {
		want = engine.ClipWindow(want, T)
	}
	most := 1
	p := globalAggPlan(T)
	for _, w := range append([]int{1}, widths...) {
		got := runGlobalAgg(t, db, p, w)
		if !sameCounts(multisetKeys(want), multisetKeys(got)) {
			t.Fatalf("workers %d, window %v: time partition diverges from one worker\ninput:\n%s\nwant:\n%s\ngot:\n%s", w, T, tbl, want, got)
		}
		if !engine.IsCoalesced(got) {
			t.Fatalf("workers %d, window %v: output is not coalesced\ninput:\n%s\ngot:\n%s", w, T, tbl, got)
		}
		most = max(most, timeFragments(t, db, p, w))
	}
	return most
}

// timeFragments returns the fragments the global aggregation in p runs
// at the given worker count, read off its EXPLAIN placement: 1 unless
// it is a time partition.
func timeFragments(t testing.TB, db *engine.DB, p engine.Plan, workers int) int {
	t.Helper()
	n := parallel.Explain(db, p, workers)
	for n.Op != "Agg" {
		if len(n.Children) == 0 {
			t.Fatalf("no Agg node in %s", p)
		}
		n = n.Children[0]
	}
	var frags int
	if _, err := fmt.Sscanf(n.Placement, "fragments ×%d via time-partition", &frags); err != nil {
		return 1
	}
	return frags
}

func TestTimePartitionAggMatchesOracle(t *testing.T) {
	dom := interval.NewDomain(0, 64)
	spread := func(n int) []tpRow {
		rng := rand.New(rand.NewSource(int64(n)))
		rows := make([]tpRow, n)
		for i := range rows {
			b := rng.Int63n(60)
			rows[i] = tpRow{x: rng.Int63n(7) - 3, null: rng.Intn(9) == 0, b: b, e: min(b+1+rng.Int63n(12), 64)}
		}
		return rows
	}
	cases := []struct {
		name string
		rows []tpRow
		// The fragments the widest run uses over the sorted table; the
		// unsorted table is never time-partitioned.
		minFrags, maxFrags int
	}{
		{"spread", spread(200), 4, 4},
		// Many rows share the endpoint a split lands on.
		{"shared endpoint", append(spread(40), slices.Repeat([]tpRow{{x: 2, b: 30, e: 40}, {x: 5, b: 10, e: 30}}, 30)...), 2, 4},
		// All begins equal: no split has a begin on both sides.
		{"one begin", slices.Repeat([]tpRow{{x: 1, b: 7, e: 20}, {x: 3, b: 7, e: 9}}, 20), 1, 1},
		// Begins at two instants far apart: the fragments between them
		// hold only gap rows.
		{"empty fragments", append(slices.Repeat([]tpRow{{x: 1, b: 2, e: 4}}, 10), slices.Repeat([]tpRow{{x: 4, b: 50, e: 52}}, 10)...), 2, 2},
		// One row spans every split: its segments chain across them.
		{"spanning row", append(spread(30), tpRow{x: 9, b: 0, e: 64}), 4, 4},
		// More workers than distinct begins.
		{"few begins", []tpRow{{x: 1, b: 3, e: 9}, {x: 2, b: 5, e: 30}, {x: 3, b: 20, e: 21}}, 3, 3},
		{"empty table", nil, 1, 1},
	}
	for _, c := range cases {
		for _, sorted := range []bool{true, false} {
			db := timePartDB(dom, c.rows, sorted)
			for _, T := range []interval.Interval{{}, interval.New(5, 41), interval.New(33, 34)} {
				frags := checkTimePartition(t, db, T, true, 2, 3, 4)
				if !sorted && frags != 1 {
					t.Errorf("%s (unsorted): %d fragments, want one", c.name, frags)
				}
				if !T.Valid() && sorted && (frags < c.minFrags || frags > c.maxFrags) {
					t.Errorf("%s: %d fragments at four workers, want %d..%d", c.name, frags, c.minFrags, c.maxFrags)
				}
			}
		}
	}
}

// Endpoints near ±2⁶³: the splits, the open-ended outer ranges and the
// fragments' domains must not overflow.
func TestTimePartitionAggExtremeEndpoints(t *testing.T) {
	dom := interval.NewDomain(math.MinInt64, math.MaxInt64)
	rows := []tpRow{
		{x: 1, b: math.MinInt64, e: math.MinInt64 + 5},
		{x: 2, b: math.MinInt64 + 3, e: -1},
		{x: 3, b: -7, e: 1 << 62},
		{x: 4, b: 0, e: math.MaxInt64},
		{x: 5, b: 1 << 61, e: math.MaxInt64 - 1},
		{x: 6, b: math.MaxInt64 - 9, e: math.MaxInt64},
	}
	for _, sorted := range []bool{true, false} {
		db := timePartDB(dom, rows, sorted)
		for _, T := range []interval.Interval{{}, interval.New(-10, math.MaxInt64)} {
			frags := checkTimePartition(t, db, T, false, 2, 3, 4, 5)
			if sorted && !T.Valid() && frags < 3 || !sorted && frags != 1 {
				t.Errorf("sorted %v: %d fragments at five workers over six spread begins", sorted, frags)
			}
		}
	}
}

// FuzzTimePartitionAgg differences the time-partitioned global
// aggregation against the abstract model and the one-worker result on
// arbitrary tables, sorted and unsorted, at a fuzzed width and under an
// optional fuzzed window, and checks that its output is coalesced. Some
// arguments are floats: halves, whose sums are exact in any order, so
// the results still compare exactly; a table holding one runs whole,
// since the aggregation sums its argument.
func FuzzTimePartitionAgg(f *testing.F) {
	f.Add([]byte{}, uint8(2), uint8(0), uint8(0))
	f.Add([]byte{1, 3, 9, 1, 3, 9, 2, 0, 31}, uint8(3), uint8(4), uint8(20))
	f.Add([]byte{0, 0, 4, 0, 4, 4, 0, 8, 4, 2, 8, 4}, uint8(4), uint8(0), uint8(0))
	f.Add([]byte{3, 0, 31, 3, 5, 15, 3, 10, 2, 1, 20, 5}, uint8(5), uint8(6), uint8(9))
	f.Add([]byte{5, 0, 0x84, 1, 3, 0x89, 7, 9, 2, 0, 12, 0x83}, uint8(3), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, width, wb, wl uint8) {
		if len(data) > 240 {
			data = data[:240]
		}
		dom := interval.NewDomain(0, 32)
		var rows []tpRow
		floats := false
		for i := 0; i+2 < len(data); i += 3 {
			b := int64(data[i+1] % 31)
			r := tpRow{x: int64(data[i]%9) - 4, null: data[i]%9 == 8, half: data[i+2]&0x80 != 0, b: b, e: min(b+1+int64(data[i+2]%16), 32)}
			floats = floats || r.half && !r.null
			rows = append(rows, r)
		}
		var T interval.Interval
		if wl > 0 {
			T = interval.New(int64(wb%32), int64(wb%32)+int64(wl%32)+1)
		}
		w := 2 + int(width%4)
		for _, sorted := range []bool{true, false} {
			if frags := checkTimePartition(t, timePartDB(dom, rows, sorted), T, true, w); floats && frags != 1 {
				t.Fatalf("sorted %v: a float argument ran in %d time fragments", sorted, frags)
			}
		}
	})
}

// A float sum is a running sum whose rounding depends on every value
// added and retracted before it, so a fragment starting fresh at a split
// could read another value than one sweep over the whole domain. Here
// 1e17 + 1 rounds to 1e17, so one sweep reads 0 over [10, 20) once 1e17
// ends, while a fragment starting at 12 would read 1. A global
// aggregation whose sum or avg may read a float therefore runs whole;
// count, min and max over floats, and sums of integer columns, still
// split time.
func TestTimePartitionFloatSumsRunWhole(t *testing.T) {
	db := engine.NewDB(interval.NewDomain(0, 32))
	tbl := db.CreateTable("t", tuple.NewSchema("x", "y"))
	for _, r := range []struct {
		x    float64
		y    int64
		b, e int64
	}{{1e17, 1, 0, 10}, {1, 2, 0, 20}, {0, 3, 12, 13}, {0, 4, 14, 15}} {
		tbl.Append(tuple.Tuple{tuple.Float(r.x), tuple.Int(r.y)}, interval.New(r.b, r.e), 1)
	}
	agg := func(in engine.Plan, aggs ...algebra.AggSpec) engine.Plan {
		return engine.AggP{Aggs: aggs, PreAgg: true, In: in}
	}
	scan := engine.ScanP{Name: "t"}
	sumX, avgX := algebra.AggSpec{Fn: krel.Sum, Arg: "x", As: "s"}, algebra.AggSpec{Fn: krel.Avg, Arg: "x", As: "a"}
	plus := algebra.NamedExpr{Name: "x", E: algebra.Add(algebra.Col("y"), algebra.IntC(1))}
	for _, c := range []struct {
		name  string
		p     engine.Plan
		whole bool
	}{
		{"sum", agg(scan, sumX), true},
		{"avg", agg(scan, algebra.AggSpec{Fn: krel.CountStar, As: "n"}, avgX), true},
		{"sum through a rename", agg(engine.ProjectP{Exprs: []algebra.NamedExpr{{Name: "z", E: algebra.Col("x")}}, In: scan},
			algebra.AggSpec{Fn: krel.Sum, Arg: "z", As: "s"}), true},
		{"sum of a computed column", agg(engine.ProjectP{Exprs: []algebra.NamedExpr{plus}, In: scan}, sumX), true},
		{"count, min and max of floats", agg(scan, algebra.AggSpec{Fn: krel.Count, Arg: "x", As: "c"},
			algebra.AggSpec{Fn: krel.Min, Arg: "x", As: "lo"}, algebra.AggSpec{Fn: krel.Max, Arg: "x", As: "hi"}), false},
		{"sum of integers, avg of floats", agg(scan, algebra.AggSpec{Fn: krel.Sum, Arg: "y", As: "s"}, avgX), true},
		{"sum of integers only", agg(scan, algebra.AggSpec{Fn: krel.Sum, Arg: "y", As: "s"},
			algebra.AggSpec{Fn: krel.Avg, Arg: "y", As: "a"}), false},
	} {
		want := runGlobalAgg(t, db, c.p, 1)
		for _, w := range []int{2, 3, 4} {
			got := runGlobalAgg(t, db, c.p, w)
			if !sameCounts(multisetKeys(want), multisetKeys(got)) {
				t.Fatalf("%s, workers %d: diverges from one worker\nwant:\n%s\ngot:\n%s", c.name, w, want, got)
			}
			if frags := timeFragments(t, db, c.p, w); c.whole != (frags == 1) {
				t.Errorf("%s, workers %d: %d time fragments", c.name, w, frags)
			}
		}
	}
}

// Explain prints the time partition, and only for a pre-aggregated
// global aggregation at more than one worker.
func TestTimePartitionPlacement(t *testing.T) {
	db := timePartDB(interval.NewDomain(0, 64), []tpRow{{b: 1, e: 9}, {b: 20, e: 30}, {b: 40, e: 50}}, true)
	for _, c := range []struct {
		p       engine.Plan
		workers int
		want    string
	}{
		{globalAggPlan(interval.Interval{}), 3, "fragments ×3 via time-partition"},
		{globalAggPlan(interval.Interval{}), 1, "sequential sweep over ordered input"},
		{engine.AggP{Aggs: tpAggs, In: engine.ScanP{Name: "t"}}, 3, "sequential sweep, input materialized"},
		{engine.AggP{GroupBy: []string{"x"}, Aggs: tpAggs, PreAgg: true, In: engine.ScanP{Name: "t"}}, 3, "via scan-partition"},
	} {
		if got := parallel.Explain(db, c.p, c.workers).Render(); !strings.Contains(got, c.want) {
			t.Errorf("%s at %d workers: placement lacks %q:\n%s", c.p, c.workers, c.want, got)
		}
	}
}
