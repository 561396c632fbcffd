// Package baseline implements the two classes of pre-existing
// interval-based approaches to snapshot semantics that the paper compares
// against (Table 1 and Table 3), with their documented bugs:
//
//   - IntervalPreservation: ATSQL-style interval preservation (Böhlen et
//     al. 2000) as also offered natively by the commercial system "DBX" in
//     the paper's experiments. Snapshot-reducible for RA+ over multisets,
//     but: aggregation produces no rows over gaps (the AG bug), bag
//     difference is evaluated like NOT EXISTS (the BD bug), and results
//     are never coalesced, so the interval encoding of a result is not
//     unique.
//
//   - Alignment: the timestamp-adjustment / temporal-alignment approach of
//     the Postgres kernel extension ("PG-Nat", Dignös et al. 2012/2016).
//     Operators first align (split) their inputs against each other, then
//     apply conventional non-temporal operators on the fragments. It
//     exhibits the AG bug, implements difference with set semantics only,
//     materializes aligned fragments (the overhead visible in Table 3),
//     and does not produce a unique encoding.
//
// Both evaluators consume the same algebra.Query trees and engine tables
// as the paper-faithful middleware (package rewrite), which makes the
// Table 1 bug demonstrations and the Table 3 runtime comparisons direct.
package baseline

import (
	"fmt"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/tuple"
)

// Approach selects which legacy semantics to emulate.
type Approach int

const (
	// IntervalPreservation is the ATSQL/DBX-style approach.
	IntervalPreservation Approach = iota
	// Alignment is the PG-Nat-style timestamp-adjustment approach.
	Alignment
)

// String returns the display name used in experiment output.
func (a Approach) String() string {
	switch a {
	case IntervalPreservation:
		return "interval-preservation"
	case Alignment:
		return "alignment"
	default:
		return fmt.Sprintf("Approach(%d)", int(a))
	}
}

// Eval evaluates q over db under the selected legacy approach. The result
// is a period-encoded table; by design it reproduces the approach's bugs
// (AG, BD/set difference) and non-unique encodings.
func Eval(db *engine.DB, q algebra.Query, ap Approach) (*engine.Table, error) {
	e := evaluator{db: db, ap: ap}
	return e.eval(q)
}

type evaluator struct {
	db *engine.DB
	ap Approach
}

func (e evaluator) eval(q algebra.Query) (*engine.Table, error) {
	switch n := q.(type) {
	case algebra.Rel:
		return e.db.Table(n.Name)
	case algebra.Select:
		in, err := e.eval(n.In)
		if err != nil {
			return nil, err
		}
		return engine.Filter(in, n.Pred)
	case algebra.Project:
		in, err := e.eval(n.In)
		if err != nil {
			return nil, err
		}
		return engine.Project(in, n.Exprs)
	case algebra.Join:
		l, err := e.eval(n.L)
		if err != nil {
			return nil, err
		}
		r, err := e.eval(n.R)
		if err != nil {
			return nil, err
		}
		if e.ap == Alignment {
			return alignmentJoin(l, r, n.Pred)
		}
		return engine.TemporalJoin(l, r, n.Pred)
	case algebra.Union:
		l, err := e.eval(n.L)
		if err != nil {
			return nil, err
		}
		r, err := e.eval(n.R)
		if err != nil {
			return nil, err
		}
		return engine.UnionAll(l, r)
	case algebra.Diff:
		l, err := e.eval(n.L)
		if err != nil {
			return nil, err
		}
		r, err := e.eval(n.R)
		if err != nil {
			return nil, err
		}
		if e.ap == Alignment {
			return setDiff(l, r)
		}
		return notExistsDiff(l, r)
	case algebra.Agg:
		in, err := e.eval(n.In)
		if err != nil {
			return nil, err
		}
		return buggyAggregate(in, n, e.ap)
	default:
		return nil, fmt.Errorf("baseline: unknown query node %T", q)
	}
}

// alignmentJoin reproduces the PG-Nat join strategy: each input is first
// aligned (split) against the join partners from the other input, the
// fragments are materialized, and only then are they joined. The result
// is snapshot-equivalent to the temporal join but costs an extra
// materialization pass per input — the overhead the paper measures — and
// fragments the output intervals (non-unique encoding).
func alignmentJoin(l, r *engine.Table, pred algebra.Expr) (*engine.Table, error) {
	lData, rData := l.DataSchema(), r.DataSchema()
	joined := lData.Concat(rData, "r.")
	lKeys, rKeys, _ := equiJoinColumns(pred, joined, lData.Arity())
	lAligned := alignAgainst(l, r, lKeys, rKeys)
	rAligned := alignAgainst(r, l, rKeys, lKeys)
	return engine.TemporalJoin(lAligned, rAligned, pred)
}

// equiJoinColumns extracts the column index pairs of equality conjuncts
// (left side, right side) from a join predicate.
func equiJoinColumns(pred algebra.Expr, joined tuple.Schema, lArity int) (lIdx, rIdx []int, residual bool) {
	var walk func(e algebra.Expr)
	walk = func(e algebra.Expr) {
		b, ok := e.(algebra.BinOp)
		if !ok {
			residual = true
			return
		}
		switch b.Op {
		case algebra.OpAnd:
			walk(b.L)
			walk(b.R)
		case algebra.OpEq:
			lc, lok := b.L.(algebra.ColRef)
			rc, rok := b.R.(algebra.ColRef)
			if lok && rok {
				li, ri := joined.Index(lc.Name), joined.Index(rc.Name)
				if li >= 0 && ri >= 0 && li < lArity && ri >= lArity {
					lIdx = append(lIdx, li)
					rIdx = append(rIdx, ri-lArity)
					return
				}
				if li >= 0 && ri >= 0 && ri < lArity && li >= lArity {
					lIdx = append(lIdx, ri)
					rIdx = append(rIdx, li-lArity)
					return
				}
			}
			residual = true
		default:
			residual = true
		}
	}
	walk(pred)
	return lIdx, rIdx, residual
}

// alignAgainst splits every row of t at the interval end points of the
// rows of other that share its join-key values.
func alignAgainst(t, other *engine.Table, tKeys, oKeys []int) *engine.Table {
	eps := make(map[string][]interval.Time)
	for _, row := range other.Rows {
		key := row.Project(oKeys).Key()
		iv := other.Interval(row)
		eps[key] = append(eps[key], iv.Begin, iv.End)
	}
	for k, ts := range eps {
		eps[k] = interval.DedupTimes(ts)
	}
	out := &engine.Table{Schema: t.Schema}
	n := t.DataArity()
	for _, row := range t.Rows {
		key := row.Project(tKeys).Key()
		for _, seg := range t.Interval(row).Segments(eps[key]) {
			nr := row[:n].Clone()
			nr = append(nr, tuple.Int(seg.Begin), tuple.Int(seg.End))
			out.Rows = append(out.Rows, nr)
		}
	}
	return out
}

// notExistsDiff evaluates EXCEPT ALL the way most systems do — as a NOT
// EXISTS anti-join (the BD bug): a left row is removed at every time
// point where an equal right tuple exists at all, regardless of
// multiplicities on either side.
func notExistsDiff(l, r *engine.Table) (*engine.Table, error) {
	if l.Schema.Arity() != r.Schema.Arity() {
		return nil, fmt.Errorf("baseline: difference-incompatible arities")
	}
	n := l.DataArity()
	coverage := make(map[string][]interval.Interval)
	for _, row := range r.Rows {
		key := tuple.Tuple(row[:n]).Key()
		coverage[key] = append(coverage[key], r.Interval(row))
	}
	out := &engine.Table{Schema: l.Schema}
	for _, row := range l.Rows {
		key := tuple.Tuple(row[:n]).Key()
		for _, frag := range subtractIntervals(l.Interval(row), coverage[key]) {
			nr := tuple.Tuple(row[:n]).Clone()
			nr = append(nr, tuple.Int(frag.Begin), tuple.Int(frag.End))
			out.Rows = append(out.Rows, nr)
		}
	}
	return out, nil
}

// setDiff evaluates difference with set semantics (PG-Nat): duplicates on
// the left collapse to one, and a tuple survives at a time point iff no
// equal right tuple exists there.
func setDiff(l, r *engine.Table) (*engine.Table, error) {
	ne, err := notExistsDiff(l, r)
	if err != nil {
		return nil, err
	}
	// Collapse multiplicities: keep one row per (tuple, fragment) after
	// merging value-equivalent coverage.
	n := ne.DataArity()
	type acc struct {
		data tuple.Tuple
		ivs  []interval.Interval
	}
	byTuple := make(map[string]*acc)
	for _, row := range ne.Rows {
		key := tuple.Tuple(row[:n]).Key()
		a, ok := byTuple[key]
		if !ok {
			a = &acc{data: row[:n]}
			byTuple[key] = a
		}
		a.ivs = append(a.ivs, ne.Interval(row))
	}
	out := &engine.Table{Schema: l.Schema}
	for _, a := range byTuple {
		for _, iv := range mergeIntervals(a.ivs) {
			nr := a.data.Clone()
			nr = append(nr, tuple.Int(iv.Begin), tuple.Int(iv.End))
			out.Rows = append(out.Rows, nr)
		}
	}
	return out, nil
}

// subtractIntervals returns the fragments of iv not covered by any
// interval in cover.
func subtractIntervals(iv interval.Interval, cover []interval.Interval) []interval.Interval {
	frags := []interval.Interval{iv}
	for _, c := range cover {
		var next []interval.Interval
		for _, f := range frags {
			if !f.Overlaps(c) {
				next = append(next, f)
				continue
			}
			if f.Begin < c.Begin {
				next = append(next, interval.New(f.Begin, c.Begin))
			}
			if c.End < f.End {
				next = append(next, interval.New(c.End, f.End))
			}
		}
		frags = next
	}
	return frags
}

// mergeIntervals merges overlapping or adjacent intervals into maximal
// ones.
func mergeIntervals(ivs []interval.Interval) []interval.Interval {
	if len(ivs) == 0 {
		return nil
	}
	interval.Sort(ivs)
	out := []interval.Interval{ivs[0]}
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if u, ok := last.Union(iv); ok {
			*last = u
			continue
		}
		out = append(out, iv)
	}
	return out
}

// buggyAggregate reproduces how native implementations evaluate snapshot
// aggregation: a split on the grouping attributes followed by a standard
// aggregation — with NO neutral row unioned in, so time periods where the
// aggregation input is empty produce no result rows (the AG bug).
func buggyAggregate(in *engine.Table, n algebra.Agg, ap Approach) (*engine.Table, error) {
	data := in.DataSchema()
	groupIdx := make([]int, len(n.GroupBy))
	for i, g := range n.GroupBy {
		idx := data.Index(g)
		if idx < 0 {
			return nil, fmt.Errorf("baseline: unknown group-by column %q", g)
		}
		groupIdx[i] = idx
	}
	argIdx := make([]int, len(n.Aggs))
	outCols := append([]string{}, n.GroupBy...)
	for i, a := range n.Aggs {
		argIdx[i] = -1
		if a.Fn != krel.CountStar {
			idx := data.Index(a.Arg)
			if idx < 0 {
				return nil, fmt.Errorf("baseline: unknown aggregation column %q", a.Arg)
			}
			argIdx[i] = idx
		}
		outCols = append(outCols, a.As)
	}
	// Materialized split, then hash aggregation — the plan shape of the
	// native systems (no pre-aggregation).
	split := engine.Split(in, groupIdx)
	type acc struct {
		group  tuple.Tuple
		seg    interval.Interval
		states []*krel.AggState
	}
	groups := make(map[string]*acc)
	for _, row := range split.Rows {
		g := row.Project(groupIdx)
		iv := split.Interval(row)
		key := g.Key() + "@" + tuple.Tuple{tuple.Int(iv.Begin), tuple.Int(iv.End)}.Key()
		a, ok := groups[key]
		if !ok {
			a = &acc{group: g, seg: iv, states: make([]*krel.AggState, len(n.Aggs))}
			for i, sp := range n.Aggs {
				a.states[i] = krel.NewAggState(sp.Fn)
			}
			groups[key] = a
		}
		for i := range n.Aggs {
			var arg tuple.Value
			if argIdx[i] >= 0 {
				arg = row[argIdx[i]]
			}
			a.states[i].AddValue(arg, 1)
		}
	}
	// A literal, not engine.NewTable: rows are written directly below
	// (in nondeterministic map order), so the table must start with
	// UNKNOWN metadata, not NewTable's known-sorted empty state.
	out := &engine.Table{Schema: engine.PeriodSchema(tuple.NewSchema(outCols...))}
	for _, a := range groups {
		row := a.group.Clone()
		for _, st := range a.states {
			row = append(row, st.Result())
		}
		row = append(row, tuple.Int(a.seg.Begin), tuple.Int(a.seg.End))
		out.Rows = append(out.Rows, row)
	}
	_ = ap
	return out, nil
}
