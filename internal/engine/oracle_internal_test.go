package engine

import (
	"fmt"

	"snapk/internal/algebra"
	"snapk/internal/interval"
	"snapk/internal/semiring"
	"snapk/internal/snapshot"
)

// snapshotOracle is the per-time-point oracle of the sweeps: it
// evaluates q in the abstract model (package snapshot) over the named
// tables — every row holds at each time point of its interval — and
// reports an error unless out holds the same snapshot at every time
// point of dom. Every interval must lie within dom.
func snapshotOracle(dom interval.Domain, q algebra.Query, out *Table, tables map[string]*Table) error {
	db := snapshot.NewDB[int64](semiring.N, dom)
	for name, tbl := range tables {
		loadSnapshot(db.CreateRelation(name, tbl.DataSchema()), tbl)
	}
	want, err := db.Eval(q)
	if err != nil {
		return err
	}
	got := snapshot.NewRelation[int64](semiring.N, dom, out.DataSchema())
	loadSnapshot(got, out)
	for t := dom.Min; t < dom.Max; t++ {
		if w, g := want.Timeslice(t), got.Timeslice(t); !w.Equal(g) {
			return fmt.Errorf("snapshot at %d differs from the abstract model\nwant:\n%s\ngot:\n%s", t, w, g)
		}
	}
	return nil
}

// loadSnapshot adds every row of tbl to r at each time point of its
// interval.
func loadSnapshot(r *snapshot.Relation[int64], tbl *Table) {
	for _, row := range tbl.Rows {
		r.AddPeriod(tbl.Interval(row), row[:tbl.DataArity()], 1)
	}
}

// SnapshotOracle gives the package's external tests the oracle.
var SnapshotOracle = snapshotOracle
