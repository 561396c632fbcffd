package algebra

import (
	"fmt"
	"strings"

	"snapk/internal/krel"
	"snapk/internal/tuple"
)

// Query is a node of the RA_agg query tree. Queries are independent of
// the model layer: the abstract oracle, the logical evaluator and the
// rewritten engine plans all interpret the same tree.
type Query interface {
	queryNode()
	String() string
}

// Rel scans a base relation by catalog name.
type Rel struct{ Name string }

// Select filters tuples by a boolean predicate (σ_θ).
type Select struct {
	Pred Expr
	In   Query
}

// NamedExpr is a projection item: an expression with an output column name.
type NamedExpr struct {
	Name string
	E    Expr
}

// Project evaluates projection expressions (Π_A, duplicate-preserving:
// annotations of colliding tuples are summed).
type Project struct {
	Exprs []NamedExpr
	In    Query
}

// Join is an inner θ-join. The output schema is the concatenation of both
// input schemas with right-side collisions prefixed "r."; the predicate
// is evaluated over the concatenated tuple.
type Join struct {
	L, R Query
	Pred Expr
}

// Union is bag union (UNION ALL); inputs must be union-compatible.
type Union struct{ L, R Query }

// Diff is monus difference (EXCEPT ALL under ℕ); inputs must be
// union-compatible.
type Diff struct{ L, R Query }

// AggSpec is one aggregation function application. Arg is the input
// column; it is ignored for count(*).
type AggSpec struct {
	Fn  krel.AggFunc
	Arg string
	As  string
}

// Agg groups the input on the GroupBy columns and evaluates every AggSpec
// (Def 7.1, extended to several aggregation functions per grouping). The
// output schema is GroupBy columns followed by one column per spec.
type Agg struct {
	GroupBy []string
	Aggs    []AggSpec
	In      Query
}

func (Rel) queryNode()     {}
func (Select) queryNode()  {}
func (Project) queryNode() {}
func (Join) queryNode()    {}
func (Union) queryNode()   {}
func (Diff) queryNode()    {}
func (Agg) queryNode()     {}

func (q Rel) String() string    { return q.Name }
func (q Select) String() string { return fmt.Sprintf("σ[%s](%s)", q.Pred, q.In) }
func (q Project) String() string {
	parts := make([]string, len(q.Exprs))
	for i, ne := range q.Exprs {
		parts[i] = fmt.Sprintf("%s→%s", ne.E, ne.Name)
	}
	return fmt.Sprintf("Π[%s](%s)", strings.Join(parts, ", "), q.In)
}
func (q Join) String() string  { return fmt.Sprintf("(%s ⋈[%s] %s)", q.L, q.Pred, q.R) }
func (q Union) String() string { return fmt.Sprintf("(%s ∪ %s)", q.L, q.R) }
func (q Diff) String() string  { return fmt.Sprintf("(%s − %s)", q.L, q.R) }
func (q Agg) String() string {
	parts := make([]string, len(q.Aggs))
	for i, a := range q.Aggs {
		if a.Fn == krel.CountStar {
			parts[i] = fmt.Sprintf("count(*)→%s", a.As)
		} else {
			parts[i] = fmt.Sprintf("%s(%s)→%s", a.Fn, a.Arg, a.As)
		}
	}
	return fmt.Sprintf("γ[%s; %s](%s)", strings.Join(q.GroupBy, ","), strings.Join(parts, ", "), q.In)
}

// ProjectCols is a convenience constructor projecting the named columns
// unchanged.
func ProjectCols(in Query, cols ...string) Project {
	exprs := make([]NamedExpr, len(cols))
	for i, c := range cols {
		exprs[i] = NamedExpr{Name: c, E: Col(c)}
	}
	return Project{Exprs: exprs, In: in}
}

// Catalog resolves base-relation names to their (non-temporal) schemas.
type Catalog interface {
	RelationSchema(name string) (tuple.Schema, error)
}

// MapCatalog is a Catalog backed by a map.
type MapCatalog map[string]tuple.Schema

// RelationSchema implements Catalog.
func (c MapCatalog) RelationSchema(name string) (tuple.Schema, error) {
	s, ok := c[name]
	if !ok {
		return tuple.Schema{}, fmt.Errorf("algebra: unknown relation %q", name)
	}
	return s, nil
}

// OutSchema computes the output schema of a query against a catalog,
// validating column references along the way. Every evaluator derives
// its result schema from this single implementation so all three model
// layers agree on output shape.
func OutSchema(q Query, cat Catalog) (tuple.Schema, error) {
	return outSchema(q, cat, true)
}

// outSchema is OutSchema with validation optional: the logical pass
// validates a query once and then asks for the schemas of its subtrees
// many times. Without validation no expression is compiled and the walk
// stops at the first node that names its own columns.
func outSchema(q Query, cat Catalog, validate bool) (tuple.Schema, error) {
	switch n := q.(type) {
	case Rel:
		return cat.RelationSchema(n.Name)
	case Select:
		s, err := outSchema(n.In, cat, validate)
		if err != nil {
			return tuple.Schema{}, err
		}
		if validate {
			if _, err := Compile(n.Pred, s); err != nil {
				return tuple.Schema{}, err
			}
		}
		return s, nil
	case Project:
		cols := make([]string, len(n.Exprs))
		for i, ne := range n.Exprs {
			cols[i] = ne.Name
		}
		if !validate {
			return tuple.Schema{Cols: cols}, nil
		}
		s, err := outSchema(n.In, cat, true)
		if err != nil {
			return tuple.Schema{}, err
		}
		for _, ne := range n.Exprs {
			if _, err := Compile(ne.E, s); err != nil {
				return tuple.Schema{}, err
			}
		}
		return tuple.NewSchema(cols...), nil
	case Join:
		ls, err := outSchema(n.L, cat, validate)
		if err != nil {
			return tuple.Schema{}, err
		}
		rs, err := outSchema(n.R, cat, validate)
		if err != nil {
			return tuple.Schema{}, err
		}
		out := ls.Concat(rs, "r.")
		if validate {
			if _, err := Compile(n.Pred, out); err != nil {
				return tuple.Schema{}, err
			}
		}
		return out, nil
	case Union, Diff:
		var l, r Query
		if u, ok := n.(Union); ok {
			l, r = u.L, u.R
		} else {
			d := n.(Diff)
			l, r = d.L, d.R
		}
		ls, err := outSchema(l, cat, validate)
		if err != nil || !validate {
			return ls, err
		}
		rs, err := outSchema(r, cat, true)
		if err != nil {
			return tuple.Schema{}, err
		}
		if ls.Arity() != rs.Arity() {
			return tuple.Schema{}, fmt.Errorf("algebra: union-incompatible arities %d and %d", ls.Arity(), rs.Arity())
		}
		return ls, nil
	case Agg:
		cols := make([]string, 0, len(n.GroupBy)+len(n.Aggs))
		cols = append(cols, n.GroupBy...)
		for _, a := range n.Aggs {
			cols = append(cols, a.As)
		}
		if !validate {
			return tuple.Schema{Cols: cols}, nil
		}
		s, err := outSchema(n.In, cat, true)
		if err != nil {
			return tuple.Schema{}, err
		}
		for _, g := range n.GroupBy {
			if s.Index(g) < 0 {
				return tuple.Schema{}, fmt.Errorf("algebra: unknown group-by column %q", g)
			}
		}
		for _, a := range n.Aggs {
			if a.Fn != krel.CountStar && s.Index(a.Arg) < 0 {
				return tuple.Schema{}, fmt.Errorf("algebra: unknown aggregation column %q", a.Arg)
			}
		}
		return tuple.NewSchema(cols...), nil
	default:
		return tuple.Schema{}, fmt.Errorf("algebra: unknown query node %T", q)
	}
}

// Walk visits q and all of its descendants in pre-order.
func Walk(q Query, visit func(Query)) {
	visit(q)
	switch n := q.(type) {
	case Select:
		Walk(n.In, visit)
	case Project:
		Walk(n.In, visit)
	case Join:
		Walk(n.L, visit)
		Walk(n.R, visit)
	case Union:
		Walk(n.L, visit)
		Walk(n.R, visit)
	case Diff:
		Walk(n.L, visit)
		Walk(n.R, visit)
	case Agg:
		Walk(n.In, visit)
	}
}

// BaseRelations returns the distinct base-relation names referenced by q,
// in first-use order.
func BaseRelations(q Query) []string {
	var names []string
	seen := map[string]struct{}{}
	Walk(q, func(n Query) {
		if r, ok := n.(Rel); ok {
			if _, dup := seen[r.Name]; !dup {
				seen[r.Name] = struct{}{}
				names = append(names, r.Name)
			}
		}
	})
	return names
}
