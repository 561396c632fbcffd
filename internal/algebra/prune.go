package algebra

import (
	"maps"
	"slices"

	"snapk/internal/krel"
)

// colSet is a set of column names; the nil set stands for "every
// column" — the requirement at the query root and under the positional
// operators.
type colSet map[string]bool

// addCols adds the columns e reads to s.
func (s colSet) addCols(e Expr) {
	allCols(e, func(name string) bool { s[name] = true; return true })
}

// with returns s extended by the columns e reads, leaving s unchanged.
func (s colSet) with(e Expr) colSet {
	out := maps.Clone(s)
	out.addCols(e)
	return out
}

// prune is rule 3 of Optimize, join-input pruning: a top-down walk that
// tracks which output columns of each node some ancestor predicate,
// projection, grouping or aggregate names, and narrows the projections
// feeding a join to those — so a join row carries the columns the query
// reads instead of every column of every joined table. It only ever
// drops items from an existing Project: no node is added or removed.
//
// need is what q's consumers read of its output (nil = every column, the
// requirement at the root). The result's schema contains every needed
// column under its original name; it is q's schema exactly when need is
// nil. feedsJoin reports that a join consumes q's rows, through
// selections and projections only: elsewhere — single-table queries,
// inputs of the positional Union/Diff, aggregation inputs — nothing is
// narrowed.
func prune(q Query, need colSet, feedsJoin bool, cat Catalog) (Query, error) {
	switch n := q.(type) {
	case Select:
		if need != nil {
			need = need.with(n.Pred)
		}
		in, err := prune(n.In, need, feedsJoin, cat)
		if err != nil {
			return nil, err
		}
		return Select{Pred: n.Pred, In: in}, nil
	case Project:
		exprs := n.Exprs
		if feedsJoin && need != nil {
			exprs = nil
			for _, ne := range n.Exprs {
				if need[ne.Name] {
					exprs = append(exprs, ne)
				}
			}
			if len(exprs) == 0 && len(n.Exprs) > 0 {
				// A join row keeps at least one data column (count(*)
				// over a join names none).
				exprs = n.Exprs[:1]
			}
		}
		inNeed := colSet{}
		for _, ne := range exprs {
			inNeed.addCols(ne.E)
		}
		in, err := prune(n.In, inNeed, feedsJoin, cat)
		if err != nil {
			return nil, err
		}
		return Project{Exprs: exprs, In: in}, nil
	case Join:
		lNeed, rNeed, err := joinNeeds(n, need, cat)
		if err != nil {
			return nil, err
		}
		l, err := prune(n.L, lNeed, true, cat)
		if err != nil {
			return nil, err
		}
		r, err := prune(n.R, rNeed, true, cat)
		if err != nil {
			return nil, err
		}
		return Join{L: l, R: r, Pred: n.Pred}, nil
	case Union:
		l, r, err := prune2(n.L, n.R, cat)
		if err != nil {
			return nil, err
		}
		return Union{L: l, R: r}, nil
	case Diff:
		l, r, err := prune2(n.L, n.R, cat)
		if err != nil {
			return nil, err
		}
		return Diff{L: l, R: r}, nil
	case Agg:
		inNeed := colSet{}
		for _, g := range n.GroupBy {
			inNeed[g] = true
		}
		for _, a := range n.Aggs {
			if a.Fn != krel.CountStar {
				inNeed[a.Arg] = true
			}
		}
		in, err := prune(n.In, inNeed, false, cat)
		if err != nil {
			return nil, err
		}
		return Agg{GroupBy: n.GroupBy, Aggs: n.Aggs, In: in}, nil
	default: // Rel: a stored table has no projection to narrow
		return q, nil
	}
}

// prune2 walks the inputs of a positional operator, which needs every
// column of both, in place.
func prune2(l, r Query, cat Catalog) (Query, Query, error) {
	pl, err := prune(l, nil, false, cat)
	if err != nil {
		return nil, nil, err
	}
	pr, err := prune(r, nil, false, cat)
	return pl, pr, err
}

// joinNeeds splits what a join's consumers need of its output — plus
// what its own predicate reads — into the needs of its two inputs, in
// the inputs' own column names. The join names a right column c that
// collides with a left column "r.c"; when such a right column is needed
// the left collider is kept too, so pruning never changes which name a
// collision gets. If the join's schema already repeats a name (an "r."
// prefix colliding in a deeper chain) names do not identify columns and
// both inputs keep everything, so the engine rejects the query as it
// would unpruned.
func joinNeeds(j Join, need colSet, cat Catalog) (lNeed, rNeed colSet, err error) {
	if need == nil {
		return nil, nil, nil
	}
	ls, err := outSchema(j.L, cat, false)
	if err != nil {
		return nil, nil, err
	}
	rs, err := outSchema(j.R, cat, false)
	if err != nil {
		return nil, nil, err
	}
	joined := ls.Concat(rs, "r.")
	need = need.with(j.Pred)
	lNeed, rNeed = colSet{}, colSet{}
	for _, c := range ls.Cols {
		if need[c] {
			lNeed[c] = true
		}
	}
	for i, c := range rs.Cols {
		out := joined.Cols[ls.Arity()+i]
		if out != c && slices.Contains(joined.Cols[:ls.Arity()+i], out) {
			return nil, nil, nil // "r."+c is taken too: names are ambiguous
		}
		if need[out] {
			rNeed[c] = true
			if out != c {
				lNeed[c] = true
			}
		}
	}
	return lNeed, rNeed, nil
}
