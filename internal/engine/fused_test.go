package engine_test

import (
	"math"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/tuple"
)

// The difference and the pre-aggregated aggregation emit the unique
// coalesced encoding themselves, which is what lets the planner drop the
// final Coalesce above them. These cases pin both physical forms of
// each against "sweep + separate Coalesce" computed by independent
// code, on the shapes where fusion can go wrong.

// fusedDom is the time domain of the fused-emission cases.
var fusedDom = interval.NewDomain(0, 24)

// frow is one input row of a fused-emission case: a data tuple, its
// period and its multiplicity.
type frow struct {
	data       tuple.Tuple
	begin, end int64
	mult       int64
}

func fusedTable(schema tuple.Schema, rows ...frow) *engine.Table {
	t := engine.NewTable(schema)
	for _, r := range rows {
		t.Append(r.data, interval.New(r.begin, r.end), r.mult)
	}
	return t
}

func vals(vs ...tuple.Value) tuple.Tuple { return vs }

// monusReference is the difference the slow way: the monus counted per
// unit time point, written as one row per point and multiplicity, then
// coalesced by the separate operator. Each value group keeps its
// first-seen representative, left side first, as the sweeps do.
func monusReference(l, r *engine.Table) *engine.Table {
	data := map[string]tuple.Tuple{}
	counts := map[string]map[int64]int64{}
	add := func(t *engine.Table, sign int64) {
		for _, row := range t.Rows {
			d := row[:t.DataArity()]
			k := d.Key()
			if _, ok := data[k]; !ok {
				data[k] = d
				counts[k] = map[int64]int64{}
			}
			iv := t.Interval(row)
			for p := iv.Begin; p < iv.End; p++ {
				counts[k][p] += sign
			}
		}
	}
	add(l, 1)
	add(r, -1)
	units := engine.NewTable(l.DataSchema())
	for k, pts := range counts {
		for p, c := range pts {
			units.Append(data[k], interval.New(p, p+1), c) // Append drops c ≤ 0
		}
	}
	return engine.Coalesce(units)
}

// assertFused checks that got is its own coalesced encoding and equals
// want row for row (under the canonical row key).
func assertFused(t *testing.T, form string, got, want *engine.Table) {
	t.Helper()
	if !engine.IsCoalesced(got) {
		t.Fatalf("%s output is not the coalesced encoding:\n%s", form, got)
	}
	if !sameCounts(multisetKeys(got), multisetKeys(want)) {
		t.Fatalf("%s output differs from sweep + separate Coalesce:\ngot:\n%s\nwant:\n%s", form, got, want)
	}
}

func TestFusedDiffEmitsUniqueEncoding(t *testing.T) {
	v := tuple.NewSchema("v")
	one, two := vals(tuple.Int(1)), vals(tuple.Int(2))
	cases := []struct {
		name string
		l, r []frow
		rows int // expected output rows
	}{
		// An interval ending exactly where another begins: one row.
		{"touching", []frow{{one, 0, 4, 1}, {one, 4, 8, 1}}, nil, 1},
		// The same across sides: a right interval ends where another
		// begins, the monus stays 0 throughout.
		{"touching-right", []frow{{one, 0, 8, 1}}, []frow{{one, 2, 4, 1}, {one, 4, 6, 1}}, 2},
		// left − right < 0 emits nothing, and changes among negative
		// counts do not split the positive runs around them.
		{"negative-run", []frow{{one, 0, 10, 1}}, []frow{{one, 2, 8, 3}, {one, 4, 6, 1}}, 2},
		{"right-exceeds", []frow{{one, 0, 4, 1}, {one, 6, 8, 1}}, []frow{{one, 0, 10, 3}}, 0},
		// A zero-net endpoint inside a run (a left and a right row both
		// ending and beginning at 5) leaves [3, 7) one maximal segment:
		// 2 rows on [0, 3), 1 on [3, 7), 2 on [7, 9).
		{"zero-net", []frow{{one, 0, 5, 2}, {one, 5, 9, 2}}, []frow{{one, 3, 5, 1}, {one, 5, 7, 1}}, 5},
		// Multiplicity changes split; duplicates are emitted per unit.
		{"duplicates", []frow{{one, 0, 8, 3}}, []frow{{one, 2, 5, 1}}, 3 + 2 + 3},
		// Int and integral Float, 0.0 and −0.0 are one value group.
		{"int-float", []frow{{one, 0, 4, 1}, {vals(tuple.Float(1)), 4, 8, 1}}, []frow{{vals(tuple.Float(1)), 6, 7, 1}}, 2},
		{"neg-zero", []frow{{vals(tuple.Float(0)), 0, 3, 1}, {vals(tuple.Float(math.Copysign(0, -1))), 3, 6, 1}}, nil, 1},
		// A group evicted by the streaming sweep (value 2 moves the sweep
		// past it) and re-opened later, adjacent to nothing.
		{"evict-reopen", []frow{{one, 0, 2, 1}, {two, 3, 4, 1}, {one, 5, 7, 1}}, nil, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l, r := fusedTable(v, c.l...), fusedTable(v, c.r...)
			want := monusReference(l, r)
			blocking, err := engine.TemporalDiff(l, r)
			if err != nil {
				t.Fatal(err)
			}
			assertFused(t, "blocking diff", blocking, want)
			assertFused(t, "streaming diff", streamDiff(t, l, r), want)
			if blocking.Len() != c.rows {
				t.Fatalf("%d output rows, want %d:\n%s", blocking.Len(), c.rows, blocking)
			}
		})
	}
}

func TestFusedAggEmitsUniqueEncoding(t *testing.T) {
	gv := tuple.NewSchema("g", "v")
	row := func(g int64, v tuple.Value, b, e int64) frow { return frow{vals(tuple.Int(g), v), b, e, 1} }
	i := tuple.Int
	aggs := []algebra.AggSpec{
		{Fn: krel.CountStar, As: "cnt"},
		{Fn: krel.Min, Arg: "v", As: "lo"},
		{Fn: krel.Sum, Arg: "v", As: "s"},
	}
	cases := []struct {
		name    string
		groupBy []string
		in      []frow
		rows    int // expected output rows
	}{
		// Adjacent equal aggregates merge into one row.
		{"adjacent-equal", []string{"g"}, []frow{row(1, i(5), 0, 4), row(1, i(5), 4, 8)}, 1},
		// Equal aggregates apart in time, or around a different value,
		// stay apart.
		{"non-adjacent-equal", []string{"g"}, []frow{row(1, i(5), 0, 4), row(1, i(5), 6, 8)}, 2},
		{"equal-around-change", []string{"g"}, []frow{row(1, i(5), 0, 8), row(1, i(7), 3, 5)}, 3},
		// Global aggregation: neutral gap rows merge like any other.
		{"global-gaps", nil, []frow{row(1, i(5), 2, 4), row(1, i(5), 4, 6), row(2, i(5), 9, 12)}, 5},
		{"global-empty", nil, nil, 1},
		// Int and integral Float, 0.0 and −0.0 aggregate to one value.
		{"int-float", []string{"g"}, []frow{row(1, i(3), 0, 4), row(1, tuple.Float(3), 4, 8)}, 1},
		{"neg-zero", []string{"g"}, []frow{row(1, tuple.Float(0), 0, 4), row(1, tuple.Float(math.Copysign(0, -1)), 4, 8)}, 1},
		// A group evicted by the streaming sweep (group 2 moves the sweep
		// past group 1) and re-opened later.
		{"evict-reopen", []string{"g"}, []frow{row(1, i(5), 0, 2), row(2, i(5), 3, 4), row(1, i(5), 5, 7)}, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := fusedTable(gv, c.in...)
			// The reference: the naive materialized split, one row per
			// elementary segment, then the separate Coalesce.
			naive, err := engine.TemporalAggregate(in, c.groupBy, aggs, false, fusedDom)
			if err != nil {
				t.Fatal(err)
			}
			want := engine.Coalesce(naive)
			blocking, err := engine.TemporalAggregate(in, c.groupBy, aggs, true, fusedDom)
			if err != nil {
				t.Fatal(err)
			}
			assertFused(t, "blocking aggregation", blocking, want)
			sorted := in.Clone()
			sorted.SortByEndpoints()
			it, err := engine.NewStreamAggIter(engine.NewTableIter(sorted), c.groupBy, aggs, fusedDom)
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			assertFused(t, "streaming aggregation", engine.Materialize(engine.CheckNoAlias("streaming aggregation", it)), want)
			if blocking.Len() != c.rows {
				t.Fatalf("%d output rows, want %d:\n%s", blocking.Len(), c.rows, blocking)
			}
		})
	}
}
