package algebra

import (
	"fmt"
	"slices"
)

// Optimize is the stats-free logical pass every snapshot query takes
// before REWR. It returns a snapshot-equivalent query with the same
// output schema, rewritten by three rules:
//
//  1. σ-pushdown: cascading selections merge, and selection predicates
//     distribute over union and difference, move through projections by
//     expression substitution, into the applicable side of a join
//     (conjunct by conjunct), and below aggregations when they only
//     constrain grouping columns.
//  2. σ→⋈ absorption: conjuncts that read both sides of a join are
//     ANDed into the join predicate, so the engine turns cross-side
//     equalities into hash keys and evaluates the rest per candidate
//     pair instead of filtering a materialized join.
//  3. Join-input pruning (prune.go): projections feeding a join keep
//     only the columns some ancestor names.
//
// All three are bag-algebra identities and therefore — by
// snapshot-reducibility — snapshot-semantics identities; the
// differential tests in rewrite check the optimized plans against the
// per-snapshot oracle (package snapshot), which never runs this pass.
func Optimize(q Query, cat Catalog) (Query, error) {
	if _, err := OutSchema(q, cat); err != nil {
		return nil, err
	}
	q, err := optimize(q, cat)
	if err != nil {
		return nil, err
	}
	return prune(q, nil, false, cat)
}

func optimize(q Query, cat Catalog) (Query, error) {
	switch n := q.(type) {
	case Rel:
		return n, nil
	case Select:
		in, err := optimize(n.In, cat)
		if err != nil {
			return nil, err
		}
		return pushSelect(n.Pred, in, cat)
	case Project:
		in, err := optimize(n.In, cat)
		if err != nil {
			return nil, err
		}
		return Project{Exprs: n.Exprs, In: in}, nil
	case Join:
		l, err := optimize(n.L, cat)
		if err != nil {
			return nil, err
		}
		r, err := optimize(n.R, cat)
		if err != nil {
			return nil, err
		}
		return Join{L: l, R: r, Pred: n.Pred}, nil
	case Union:
		l, err := optimize(n.L, cat)
		if err != nil {
			return nil, err
		}
		r, err := optimize(n.R, cat)
		if err != nil {
			return nil, err
		}
		return Union{L: l, R: r}, nil
	case Diff:
		l, err := optimize(n.L, cat)
		if err != nil {
			return nil, err
		}
		r, err := optimize(n.R, cat)
		if err != nil {
			return nil, err
		}
		return Diff{L: l, R: r}, nil
	case Agg:
		in, err := optimize(n.In, cat)
		if err != nil {
			return nil, err
		}
		return Agg{GroupBy: n.GroupBy, Aggs: n.Aggs, In: in}, nil
	default:
		return nil, fmt.Errorf("algebra: unknown query node %T", q)
	}
}

// pushSelect pushes the predicate as deep as possible into in (already
// optimized) and returns the resulting query.
func pushSelect(pred Expr, in Query, cat Catalog) (Query, error) {
	switch n := in.(type) {
	case Select:
		// σp(σq(x)) = σ(p ∧ q)(x): merge and retry as one selection.
		return pushSelect(And(n.Pred, pred), n.In, cat)
	case Union:
		l, err := pushSelect(pred, n.L, cat)
		if err != nil {
			return nil, err
		}
		r, err := pushSelect(pred, n.R, cat)
		if err != nil {
			return nil, err
		}
		return Union{L: l, R: r}, nil
	case Diff:
		// σθ(L − R) = σθ(L) − σθ(R) holds for the monus because θ(t) is
		// 0K-or-1K per tuple and multiplication distributes over monus on
		// these values.
		l, err := pushSelect(pred, n.L, cat)
		if err != nil {
			return nil, err
		}
		r, err := pushSelect(pred, n.R, cat)
		if err != nil {
			return nil, err
		}
		return Diff{L: l, R: r}, nil
	case Project:
		// σp(Π_E(x)) = Π_E(σ(p[E])(x)): substitute output columns by
		// their defining expressions.
		rewritten, ok := substitute(pred, func(name string) (Expr, bool) {
			for _, ne := range n.Exprs {
				if ne.Name == name {
					return ne.E, true
				}
			}
			return nil, false
		})
		if !ok {
			return Select{Pred: pred, In: n}, nil
		}
		pushed, err := pushSelect(rewritten, n.In, cat)
		if err != nil {
			return nil, err
		}
		return Project{Exprs: n.Exprs, In: pushed}, nil
	case Join:
		return pushSelectJoin(pred, n, cat)
	case Agg:
		// Push conjuncts that only constrain grouping columns.
		groupSet := map[string]bool{}
		for _, g := range n.GroupBy {
			groupSet[g] = true
		}
		var pushable, rest []Expr
		for _, c := range conjuncts(pred) {
			// A conjunct may only move below the aggregation if it
			// references at least one column and all of them are grouping
			// columns. Column-free conjuncts (e.g. FALSE) must stay above:
			// pushing them below a global aggregation would turn "no
			// result rows" into a gap row (count 0).
			refs := 0
			ok := allCols(c, func(name string) bool { refs++; return groupSet[name] })
			if ok && refs > 0 {
				pushable = append(pushable, c)
			} else {
				rest = append(rest, c)
			}
		}
		out := in
		if len(pushable) > 0 {
			pushed, err := pushSelect(And(pushable...), n.In, cat)
			if err != nil {
				return nil, err
			}
			out = Agg{GroupBy: n.GroupBy, Aggs: n.Aggs, In: pushed}
		}
		if len(rest) > 0 {
			out = Select{Pred: And(rest...), In: out}
		}
		return out, nil
	default:
		return Select{Pred: pred, In: in}, nil
	}
}

// pushSelectJoin routes each conjunct of pred to the join side whose
// schema covers all of its columns and absorbs the remainder — the
// conjuncts over both sides — into the join predicate.
func pushSelectJoin(pred Expr, j Join, cat Catalog) (Query, error) {
	ls, err := outSchema(j.L, cat, false)
	if err != nil {
		return nil, err
	}
	rs, err := outSchema(j.R, cat, false)
	if err != nil {
		return nil, err
	}
	joined := ls.Concat(rs, "r.")
	inLeft := func(name string) bool { return slices.Contains(ls.Cols, name) }
	// rightCol maps a join-output column name back to the right input's
	// own name for it (a collision reads "r.c" above the join, "c" below).
	rightCol := func(name string) (Expr, bool) {
		i := slices.Index(joined.Cols[ls.Arity():], name)
		if i < 0 {
			return nil, false
		}
		return Col(rs.Cols[i]), true
	}
	var toL, toR, rest []Expr
	for _, c := range conjuncts(pred) {
		if allCols(c, inLeft) {
			toL = append(toL, c)
		} else if rc, ok := substitute(c, rightCol); ok {
			toR = append(toR, rc)
		} else {
			rest = append(rest, c)
		}
	}
	l := j.L
	if len(toL) > 0 {
		pushed, err := pushSelect(And(toL...), j.L, cat)
		if err != nil {
			return nil, err
		}
		l = pushed
	}
	r := j.R
	if len(toR) > 0 {
		pushed, err := pushSelect(And(toR...), j.R, cat)
		if err != nil {
			return nil, err
		}
		r = pushed
	}
	// What reads both sides joins the join predicate: σθ(L ⋈φ R) = L ⋈(φ∧θ) R.
	if !IsTrue(j.Pred) {
		rest = append([]Expr{j.Pred}, rest...)
	}
	return Join{L: l, R: r, Pred: And(rest...)}, nil
}

// conjuncts flattens a predicate's top-level AND tree.
func conjuncts(e Expr) []Expr {
	if b, ok := e.(BinOp); ok && b.Op == OpAnd {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []Expr{e}
}

// allCols reports whether every column reference in e satisfies ok.
func allCols(e Expr, ok func(string) bool) bool {
	switch n := e.(type) {
	case ColRef:
		return ok(n.Name)
	case Const:
		return true
	case Not:
		return allCols(n.E, ok)
	case IsNullExpr:
		return allCols(n.E, ok)
	case BinOp:
		return allCols(n.L, ok) && allCols(n.R, ok)
	default:
		return false
	}
}

// substitute replaces column references by the expressions m maps them
// to; it fails (ok=false) if a referenced column has no mapping.
func substitute(e Expr, m func(name string) (Expr, bool)) (Expr, bool) {
	switch n := e.(type) {
	case ColRef:
		return m(n.Name)
	case Const:
		return n, true
	case Not:
		s, ok := substitute(n.E, m)
		if !ok {
			return nil, false
		}
		return Not{E: s}, true
	case IsNullExpr:
		s, ok := substitute(n.E, m)
		if !ok {
			return nil, false
		}
		return IsNullExpr{E: s}, true
	case BinOp:
		l, ok := substitute(n.L, m)
		if !ok {
			return nil, false
		}
		r, ok := substitute(n.R, m)
		if !ok {
			return nil, false
		}
		return BinOp{Op: n.Op, L: l, R: r}, true
	default:
		return nil, false
	}
}
