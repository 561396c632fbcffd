package engine_test

import (
	"context"
	"fmt"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/tuple"
)

// Empty inputs must flow through every operator — blocking and
// streaming, called directly and built by the executor at one and two
// workers — without panics and with the exact (mostly empty) result.
func TestOperatorsOnEmptyTables(t *testing.T) {
	dom := interval.NewDomain(0, 24)
	empty := engine.NewTable(tuple.NewSchema("a", "b"))
	one := engine.NewTable(tuple.NewSchema("a", "b"))
	oneRow := tuple.Tuple{tuple.Int(1), tuple.Int(2)}
	one.Append(oneRow, interval.New(3, 7), 1)
	db := engine.NewDB(dom)
	db.AddTable("empty", empty)
	db.AddTable("one", one)
	emptyP, oneP := engine.ScanP{Name: "empty"}, engine.ScanP{Name: "one"}
	// An empty table is begin-sorted, so sweeps over emptyP stream. The
	// blocking forms run over an empty stream from an unsorted table.
	unsorted := engine.NewTable(tuple.NewSchema("a", "b"))
	unsorted.Append(oneRow, interval.New(5, 7), 1)
	unsorted.Append(oneRow, interval.New(3, 7), 1)
	db.AddTable("unsorted", unsorted)
	noneP := engine.FilterP{Pred: algebra.BoolC(false), In: engine.ScanP{Name: "unsorted"}}

	scan := engine.NewTableIter
	drain := func(it engine.RowIter, err error) (*engine.Table, error) {
		if err != nil {
			return nil, err
		}
		defer it.Close()
		return engine.MaterializeErr(it)
	}
	key := func(data tuple.Tuple, iv interval.Interval) string {
		return append(data.Clone(), tuple.Int(iv.Begin), tuple.Int(iv.End)).Key()
	}
	count := []algebra.AggSpec{{Fn: krel.CountStar, As: "c"}}
	joinPred := algebra.Eq(algebra.Col("a"), algebra.Col("r.a"))

	cases := []struct {
		name string
		run  func() (*engine.Table, error)
		plan engine.Plan // the same operator on the executor; nil when it has no plan node
		want []string    // row keys
	}{
		{"filter", func() (*engine.Table, error) { return engine.Filter(empty, algebra.BoolC(true)) },
			engine.FilterP{Pred: algebra.BoolC(true), In: emptyP}, nil},
		{"project", func() (*engine.Table, error) {
			return engine.Project(empty, []algebra.NamedExpr{{Name: "a", E: algebra.Col("a")}})
		}, engine.ProjectP{Exprs: []algebra.NamedExpr{{Name: "a", E: algebra.Col("a")}}, In: emptyP}, nil},
		{"join", func() (*engine.Table, error) { return engine.TemporalJoin(empty, empty, joinPred) },
			engine.JoinP{L: emptyP, R: emptyP, Pred: joinPred}, nil},
		{"union", func() (*engine.Table, error) { return engine.UnionAll(empty, empty) },
			engine.UnionP{L: emptyP, R: emptyP}, nil},
		{"diff", func() (*engine.Table, error) { return engine.TemporalDiff(empty, empty) },
			engine.DiffP{L: noneP, R: noneP}, nil},
		{"coalesce", func() (*engine.Table, error) { return engine.Coalesce(empty), nil },
			engine.CoalesceP{In: noneP}, nil},
		{"split", func() (*engine.Table, error) { return engine.Split(empty, []int{0}), nil }, nil, nil},
		{"agg/grouped", func() (*engine.Table, error) { return engine.TemporalAggregate(empty, []string{"a"}, count, true, dom) },
			engine.AggP{GroupBy: []string{"a"}, Aggs: count, PreAgg: true, In: noneP}, nil},

		{"stream-diff/empty-left", func() (*engine.Table, error) { return drain(engine.NewStreamDiffIter(scan(empty), scan(one))) },
			engine.DiffP{L: emptyP, R: oneP}, nil},
		{"stream-diff/empty-right", func() (*engine.Table, error) { return drain(engine.NewStreamDiffIter(scan(one), scan(empty))) },
			engine.DiffP{L: oneP, R: emptyP}, []string{key(oneRow, interval.New(3, 7))}},
		{"stream-diff/empty-both", func() (*engine.Table, error) { return drain(engine.NewStreamDiffIter(scan(empty), scan(empty))) },
			engine.DiffP{L: emptyP, R: emptyP}, nil},
		{"stream-coalesce", func() (*engine.Table, error) { return drain(engine.NewStreamCoalesceIter(scan(empty)), nil) },
			engine.CoalesceP{In: emptyP}, nil},
		{"stream-agg/grouped", func() (*engine.Table, error) {
			return drain(engine.NewStreamAggIter(scan(empty), []string{"a"}, count, dom))
		}, engine.AggP{GroupBy: []string{"a"}, Aggs: count, PreAgg: true, In: emptyP}, nil},
		// Global aggregation sweeps the whole domain: exactly one neutral
		// row (count 0) over it.
		{"stream-agg/global", func() (*engine.Table, error) { return drain(engine.NewStreamAggIter(scan(empty), nil, count, dom)) },
			engine.AggP{Aggs: count, PreAgg: true, In: emptyP},
			[]string{key(tuple.Tuple{tuple.Int(0)}, dom.All())}},
	}
	check := func(t *testing.T, form string, got *engine.Table, err error, want []string) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", form, err)
		}
		if keys := sortedKeys(got); !sameMultiset(keys, want) {
			t.Fatalf("%s: rows %q, want %q", form, keys, want)
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := c.run()
			check(t, "direct", got, err, c.want)
			if c.plan == nil {
				return
			}
			for _, w := range []int{1, 2} {
				got, err := drain(parallel.Exec(context.Background(), db, c.plan, parallel.Options{Workers: w}))
				check(t, fmt.Sprintf("executor W=%d", w), got, err, c.want)
			}
		})
	}
}
