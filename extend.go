package snapk

import (
	"fmt"
	"io"

	"snapk/internal/algebra"
	"snapk/internal/csvio"
	"snapk/internal/engine"
	"snapk/internal/interval"
	"snapk/internal/period"
	"snapk/internal/semiring"
	"snapk/internal/snapshot"
	"snapk/internal/sqlfe"
	"snapk/internal/telement"
	"snapk/internal/tuple"
)

// QueryAt evaluates a snapshot query at a single time point t — the
// timeslice operator τ_t composed with the query. Because τ_t is a
// semiring homomorphism that commutes with queries (Thm 6.3/7.2 of the
// paper), QueryAt slices the *base tables* at t first and evaluates the
// query non-temporally over that single snapshot, instead of computing
// the full temporal result; TestQueryAtEqualsResultSlice verifies the
// two strategies coincide. Rows are returned with their per-snapshot
// multiplicities expanded, like any bag result.
func (db *DB) QueryAt(sql string, t int64) ([][]any, error) {
	if t < db.MinTime() || t >= db.MaxTime() {
		return nil, fmt.Errorf("snapk: time %d outside domain [%d, %d)", t, db.MinTime(), db.MaxTime())
	}
	q, err := sqlfe.ParseAndTranslate(sql, db.eng)
	if err != nil {
		return nil, err
	}
	// A one-point snapshot database containing only the slices at t.
	sdb := snapshot.NewDB[int64](semiring.N, interval.NewDomain(t, t+1))
	for _, name := range algebra.BaseRelations(q) {
		tbl, err := db.eng.Table(name)
		if err != nil {
			return nil, err
		}
		rel := sdb.CreateRelation(name, tbl.DataSchema())
		n := tbl.DataArity()
		for _, row := range tbl.Rows {
			if tbl.Interval(row).Contains(t) {
				rel.AddAt(t, row[:n], 1)
			}
		}
	}
	res, err := sdb.Eval(q)
	if err != nil {
		return nil, err
	}
	var out [][]any
	entries := res.Timeslice(t).Entries()
	vals := boxRows(len(entries), func(i int) tuple.Tuple { return entries[i].Tuple })
	for i, e := range entries {
		for m := int64(0); m < e.Ann; m++ {
			out = append(out, vals[i])
		}
	}
	return out, nil
}

// QuerySet evaluates a snapshot query under SET semantics (the 𝔹
// instantiation of the framework): duplicates are absorbed and the result
// uses classic set-based coalescing, i.e. maximal intervals during which
// a tuple is present at all. Aggregation is not defined under set
// semantics (Section 7.2); use Query for bag aggregation.
func (db *DB) QuerySet(sql string) (*Result, error) {
	q, err := sqlfe.ParseAndTranslate(sql, db.eng)
	if err != nil {
		return nil, err
	}
	dom := db.eng.Domain()
	balg := telement.NewMAlgebra[bool](semiring.B, dom)
	nalg := telement.NewMAlgebra[int64](semiring.N, dom)
	bdb := period.NewDB[bool](semiring.B, dom)
	for _, name := range algebra.BaseRelations(q) {
		t, err := db.eng.Table(name)
		if err != nil {
			return nil, err
		}
		bdb.AddRelation(name, period.Hom[int64, bool](t.ToPeriodRelation(nalg), balg, semiring.NToB))
	}
	rel, err := bdb.Eval(q)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: append([]string{}, rel.Schema().Cols...)}
	entries := rel.Entries()
	vals := boxRows(len(entries), func(i int) tuple.Tuple { return entries[i].Tuple })
	for i, e := range entries {
		for _, s := range e.Ann.Segs() {
			res.Rows = append(res.Rows, Row{Values: vals[i], Begin: s.Iv.Begin, End: s.Iv.End})
		}
	}
	return res, nil
}

// Delete removes tuples matching the SQL condition during [begin, end):
// the period of every matching row is reduced by interval subtraction,
// and rows that become empty disappear. This implements valid-time
// deletion over annotated period relations — one of the paper's
// future-work directions (§11, "updates over annotated relations").
// It returns the number of affected input rows.
func (t *Table) Delete(begin, end int64, where string) (int, error) {
	iv, ok := interval.TryNew(begin, end)
	if !ok {
		return 0, fmt.Errorf("snapk: invalid period [%d, %d)", begin, end)
	}
	pred := algebra.BoolC(true)
	if where != "" {
		// Parse the condition through a throwaway SELECT so the full
		// WHERE grammar is available.
		q, err := sqlfe.ParseAndTranslate(
			fmt.Sprintf("SELECT * FROM %s WHERE %s", t.name, where), t.db.eng)
		if err != nil {
			return 0, err
		}
		sel, okSel := q.(algebra.Select)
		if !okSel {
			return 0, fmt.Errorf("snapk: condition %q did not parse to a selection", where)
		}
		pred = sel.Pred
	}
	compiled, err := algebra.Compile(pred, t.tbl.DataSchema())
	if err != nil {
		return 0, err
	}
	affected := 0
	w := splitWriter{sorted: t.tbl.BeginSorted()}
	n := t.tbl.DataArity()
	for _, row := range t.tbl.Rows {
		data := row[:n]
		riv := t.tbl.Interval(row)
		if !algebra.Truthy(compiled(data)) || !riv.Overlaps(iv) {
			w.keep(row)
			continue
		}
		affected++
		// Keep the fragments of the row's period outside the deletion
		// window.
		if riv.Begin < iv.Begin {
			w.keep(periodRow(data, riv.Begin, iv.Begin))
		}
		if iv.End < riv.End {
			w.later(periodRow(data, iv.End, riv.End))
		}
	}
	w.set(t.tbl)
	return affected, nil
}

// splitWriter collects the rows of a sequenced Delete or Update, which
// keeps every row or splits it into fragments at the window's bounds. A
// fragment that begins later than its row would unsort a begin-sorted
// table where the row stood, so over one such table those fragments are
// set apart and merged in by begin at the end (engine.Table.SetRowsMerging):
// the table stays begin-sorted, and its sweeps stream.
type splitWriter struct {
	sorted      bool
	rows, moved []tuple.Tuple
}

// keep adds a row, or a fragment that begins where its row did.
func (w *splitWriter) keep(row tuple.Tuple) { w.rows = append(w.rows, row) }

// later adds a fragment that may begin later than its row.
func (w *splitWriter) later(frag tuple.Tuple) {
	if w.sorted {
		w.moved = append(w.moved, frag)
		return
	}
	w.keep(frag)
}

// set stores the rows in tbl: a bulk mutation, which drops the cached
// metadata, and records begin order where the table had it.
func (w *splitWriter) set(tbl *engine.Table) {
	if w.sorted {
		tbl.SetRowsMerging(w.rows, w.moved)
		return
	}
	tbl.SetRows(w.rows)
}

func periodRow(data tuple.Tuple, b, e int64) tuple.Tuple {
	row := data.Clone()
	return append(row, tuple.Int(b), tuple.Int(e))
}

// Update rewrites a column's value for tuples matching the SQL condition
// during [begin, end): matching rows are split at the window boundaries
// and the in-window fragments get the new value. Like Delete, this is
// valid-time sequenced update semantics. It returns the number of
// affected input rows.
func (t *Table) Update(begin, end int64, column string, newValue any, where string) (int, error) {
	iv, ok := interval.TryNew(begin, end)
	if !ok {
		return 0, fmt.Errorf("snapk: invalid period [%d, %d)", begin, end)
	}
	colIdx := t.tbl.DataSchema().Index(column)
	if colIdx < 0 {
		return 0, fmt.Errorf("snapk: unknown column %q", column)
	}
	val, err := toValue(newValue)
	if err != nil {
		return 0, err
	}
	pred := algebra.BoolC(true)
	if where != "" {
		q, err := sqlfe.ParseAndTranslate(
			fmt.Sprintf("SELECT * FROM %s WHERE %s", t.name, where), t.db.eng)
		if err != nil {
			return 0, err
		}
		sel, okSel := q.(algebra.Select)
		if !okSel {
			return 0, fmt.Errorf("snapk: condition %q did not parse to a selection", where)
		}
		pred = sel.Pred
	}
	compiled, err := algebra.Compile(pred, t.tbl.DataSchema())
	if err != nil {
		return 0, err
	}
	affected := 0
	w := splitWriter{sorted: t.tbl.BeginSorted()}
	n := t.tbl.DataArity()
	for _, row := range t.tbl.Rows {
		data := row[:n]
		riv := t.tbl.Interval(row)
		inter, overlaps := riv.Intersect(iv)
		if !algebra.Truthy(compiled(data)) || !overlaps {
			w.keep(row)
			continue
		}
		affected++
		if riv.Begin < inter.Begin {
			w.keep(periodRow(data, riv.Begin, inter.Begin))
		}
		updated := data.Clone()
		updated[colIdx] = val
		w.later(periodRow(updated, inter.Begin, inter.End))
		if inter.End < riv.End {
			w.later(periodRow(data, inter.End, riv.End))
		}
	}
	w.set(t.tbl)
	return affected, nil
}

// CreateTableFromCSV registers a period relation loaded from CSV. The
// header names the data columns followed by two period columns; see
// internal/csvio for the format.
func (db *DB) CreateTableFromCSV(name string, r io.Reader) (*Table, error) {
	if _, err := db.eng.Table(name); err == nil {
		return nil, fmt.Errorf("snapk: table %q already exists", name)
	}
	tbl, err := csvio.ReadTable(r)
	if err != nil {
		return nil, err
	}
	dom := db.eng.Domain()
	for _, row := range tbl.Rows {
		if !dom.ContainsInterval(tbl.Interval(row)) {
			return nil, fmt.Errorf("snapk: row period %s outside time domain %s", tbl.Interval(row), dom)
		}
	}
	db.eng.AddTable(name, tbl)
	return &Table{db: db, name: name, tbl: tbl}, nil
}

// WriteCSV dumps the table's rows as CSV in canonical order.
func (t *Table) WriteCSV(w io.Writer) error { return csvio.WriteTable(w, t.tbl) }

// WriteCSV dumps a query result as CSV with begin/end columns.
func (r *Result) WriteCSV(w io.Writer) error {
	tbl := engine.NewTable(tuple.Schema{Cols: r.Columns})
	for _, row := range r.Rows {
		data := make(tuple.Tuple, len(row.Values))
		for i, v := range row.Values {
			tv, err := tupleValue(v)
			if err != nil {
				return err
			}
			data[i] = tv
		}
		iv, ok := interval.TryNew(row.Begin, row.End)
		if !ok {
			return fmt.Errorf("snapk: result row has empty period [%d, %d)", row.Begin, row.End)
		}
		tbl.Append(data, iv, 1)
	}
	return csvio.WriteTable(w, tbl)
}

// Coalesced returns whether the table's stored rows are already in the
// unique coalesced encoding, and a coalesced copy row count. Loading data
// does not require coalescing (queries coalesce their results), but the
// method is useful to inspect storage redundancy.
func (t *Table) Coalesced() (bool, int) {
	if t.tbl.KnownCoalesced() {
		// Metadata fast path: a table whose rows came out of a coalesce
		// is its own coalesced encoding, no rescan needed.
		return true, t.tbl.Len()
	}
	c := engine.Coalesce(t.tbl)
	return sameRows(t.tbl, c), c.Len()
}

// sameRows reports whether a and b hold the same multiset of rows. b is
// sorted in place; a is sorted on a copy.
func sameRows(a, b *engine.Table) bool {
	if a.Len() != b.Len() {
		return false
	}
	a = a.Clone()
	a.Sort()
	b.Sort()
	var ka, kb []byte
	for i := range a.Rows {
		ka = a.Rows[i].AppendKey(ka[:0], nil)
		kb = b.Rows[i].AppendKey(kb[:0], nil)
		if string(ka) != string(kb) {
			return false
		}
	}
	return true
}
