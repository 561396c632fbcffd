package algebra

import (
	"strings"
	"testing"

	"snapk/internal/krel"
	"snapk/internal/tuple"
)

var optCat = MapCatalog{
	"works":  tuple.NewSchema("name", "skill"),
	"assign": tuple.NewSchema("mach", "skill"),
}

func TestOptimizeMergesCascadingSelects(t *testing.T) {
	q := Select{
		Pred: Eq(Col("skill"), StrC("SP")),
		In:   Select{Pred: Ne(Col("name"), StrC("Joe")), In: Rel{Name: "works"}},
	}
	opt, err := Optimize(q, optCat)
	if err != nil {
		t.Fatal(err)
	}
	sel, ok := opt.(Select)
	if !ok {
		t.Fatalf("optimized = %s", opt)
	}
	if _, nested := sel.In.(Select); nested {
		t.Fatalf("selections not merged: %s", opt)
	}
	if !strings.Contains(sel.Pred.String(), "AND") {
		t.Fatalf("predicates not conjoined: %s", sel.Pred)
	}
}

func TestOptimizePushesThroughJoin(t *testing.T) {
	// σ(name<>'Joe' ∧ mach='M1')(works ⋈ assign): the first conjunct goes
	// left, the second right, nothing remains above.
	q := Select{
		Pred: And(Ne(Col("name"), StrC("Joe")), Eq(Col("mach"), StrC("M1"))),
		In: Join{
			L:    Rel{Name: "works"},
			R:    Rel{Name: "assign"},
			Pred: Eq(Col("skill"), Col("r.skill")),
		},
	}
	opt, err := Optimize(q, optCat)
	if err != nil {
		t.Fatal(err)
	}
	if _, stillAbove := opt.(Select); stillAbove {
		t.Fatalf("selection not fully pushed: %s", opt)
	}
	if got := countSelectsBelowJoins(opt); got != 2 {
		t.Fatalf("selects below joins = %d, want 2: %s", got, opt)
	}
	// Schema must be unchanged.
	s1, err := OutSchema(q, optCat)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := OutSchema(opt, optCat)
	if err != nil {
		t.Fatal(err)
	}
	if !s1.Equal(s2) {
		t.Fatalf("schema changed: %v vs %v", s1, s2)
	}
}

func TestOptimizePushesRenamedRightColumns(t *testing.T) {
	// The right side's skill column is renamed to r.skill in the join
	// output; a conjunct over r.skill must be rewritten back to skill.
	q := Select{
		Pred: Eq(Col("r.skill"), StrC("SP")),
		In:   Join{L: Rel{Name: "works"}, R: Rel{Name: "assign"}, Pred: BoolC(true)},
	}
	opt, err := Optimize(q, optCat)
	if err != nil {
		t.Fatal(err)
	}
	j, ok := opt.(Join)
	if !ok {
		t.Fatalf("optimized = %s", opt)
	}
	rs, ok := j.R.(Select)
	if !ok {
		t.Fatalf("right side = %s", j.R)
	}
	if !strings.Contains(rs.Pred.String(), "skill = 'SP'") || strings.Contains(rs.Pred.String(), "r.skill") {
		t.Fatalf("right predicate = %s", rs.Pred)
	}
}

func TestOptimizePushesThroughUnionAndDiff(t *testing.T) {
	base := ProjectCols(Rel{Name: "works"}, "skill")
	q := Select{
		Pred: Eq(Col("skill"), StrC("SP")),
		In:   Diff{L: Union{L: base, R: base}, R: base},
	}
	opt, err := Optimize(q, optCat)
	if err != nil {
		t.Fatal(err)
	}
	if _, stillAbove := opt.(Select); stillAbove {
		t.Fatalf("selection not distributed: %s", opt)
	}
	// The selection must now sit below the projections (substituted).
	found := 0
	Walk(opt, func(n Query) {
		if _, ok := n.(Select); ok {
			found++
		}
	})
	if found != 3 {
		t.Fatalf("expected 3 pushed selections, got %d: %s", found, opt)
	}
}

func TestOptimizePushesThroughProjectionSubstitution(t *testing.T) {
	// σ(v > 5)(Π(v := a+1)) becomes Π(σ(a+1 > 5)).
	q := Select{
		Pred: Gt(Col("v"), IntC(5)),
		In: Project{
			Exprs: []NamedExpr{{Name: "v", E: Add(Col("mach"), IntC(1))}},
			In:    Rel{Name: "assign"},
		},
	}
	opt, err := Optimize(q, optCat)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := opt.(Project)
	if !ok {
		t.Fatalf("optimized = %s", opt)
	}
	s, ok := p.In.(Select)
	if !ok {
		t.Fatalf("projection input = %s", p.In)
	}
	if !strings.Contains(s.Pred.String(), "mach + 1") {
		t.Fatalf("substituted predicate = %s", s.Pred)
	}
}

func TestOptimizeAggGroupColumnPushdown(t *testing.T) {
	agg := Agg{
		GroupBy: []string{"skill"},
		Aggs:    []AggSpec{{Fn: krel.CountStar, As: "cnt"}},
		In:      Rel{Name: "works"},
	}
	// skill is a grouping column: pushable. cnt is computed: not pushable.
	q := Select{Pred: And(Eq(Col("skill"), StrC("SP")), Gt(Col("cnt"), IntC(0))), In: agg}
	opt, err := Optimize(q, optCat)
	if err != nil {
		t.Fatal(err)
	}
	top, ok := opt.(Select)
	if !ok {
		t.Fatalf("optimized = %s", opt)
	}
	if !strings.Contains(top.Pred.String(), "cnt") || strings.Contains(top.Pred.String(), "skill") {
		t.Fatalf("top predicate = %s", top.Pred)
	}
	inner, ok := top.In.(Agg)
	if !ok {
		t.Fatalf("below top = %s", top.In)
	}
	if _, ok := inner.In.(Select); !ok {
		t.Fatalf("group predicate not pushed below agg: %s", inner.In)
	}
}

func TestOptimizeErrors(t *testing.T) {
	if _, err := Optimize(Rel{Name: "nope"}, optCat); err == nil {
		t.Fatal("unknown relation must error")
	}
	bad := Select{Pred: Col("zzz"), In: Rel{Name: "works"}}
	if _, err := Optimize(bad, optCat); err == nil {
		t.Fatal("bad predicate must error")
	}
}

// TestAbsorbCrossSideConjuncts: conjuncts over both join sides join the
// join predicate — no Select survives above the join — and a comma
// join's literal TRUE disappears from the conjunction.
func TestAbsorbCrossSideConjuncts(t *testing.T) {
	cross := []Expr{Eq(Col("name"), Col("mach")), Or(Eq(Col("skill"), StrC("SP")), Lt(Col("name"), Col("mach")))}
	for _, on := range []Expr{BoolC(true), Eq(Col("skill"), Col("r.skill"))} {
		q := Select{
			Pred: And(append(cross[:2:2], Ne(Col("name"), StrC("Joe")))...),
			In:   Join{L: Rel{Name: "works"}, R: Rel{Name: "assign"}, Pred: on},
		}
		opt, err := Optimize(q, optCat)
		if err != nil {
			t.Fatal(err)
		}
		j, ok := opt.(Join)
		if !ok {
			t.Fatalf("cross-side conjuncts left above the join: %s", opt)
		}
		want := And(cross...)
		if !IsTrue(on) {
			want = And(append([]Expr{on}, cross...)...)
		}
		if j.Pred.String() != want.String() {
			t.Fatalf("join predicate = %s, want %s", j.Pred, want)
		}
		if got := countSelectsBelowJoins(opt); got != 1 {
			t.Fatalf("single-side conjunct not pushed: %s", opt)
		}
	}
}

// pruneCat has wide tables so pruning has something to drop.
var pruneCat = MapCatalog{
	"t": tuple.NewSchema("k", "a", "b", "c"),
	"u": tuple.NewSchema("k", "a", "d"),
}

// alias is the rename projection the SQL frontend puts over an aliased
// FROM item.
func alias(name, table string, cols ...string) Project {
	exprs := make([]NamedExpr, len(cols))
	for i, c := range cols {
		exprs[i] = NamedExpr{Name: name + "." + c, E: Col(c)}
	}
	return Project{Exprs: exprs, In: Rel{Name: table}}
}

func projectNames(t *testing.T, q Query) []string {
	t.Helper()
	p, ok := q.(Project)
	if !ok {
		t.Fatalf("not a projection: %s", q)
	}
	names := make([]string, len(p.Exprs))
	for i, ne := range p.Exprs {
		names[i] = ne.Name
	}
	return names
}

// TestPruneColsNarrowsJoinInputs: the projections feeding a join keep
// what the projection above, the join predicate and an absorbed
// selection name, and nothing else; the query's schema is unchanged.
func TestPruneColsNarrowsJoinInputs(t *testing.T) {
	q := Project{
		Exprs: []NamedExpr{{Name: "out", E: Col("x.a")}},
		In: Select{
			Pred: Lt(Col("x.b"), Col("y.d")),
			In: Join{
				L:    alias("x", "t", "k", "a", "b", "c"),
				R:    alias("y", "u", "k", "a", "d"),
				Pred: Eq(Col("x.k"), Col("y.k")),
			},
		},
	}
	opt, err := Optimize(q, pruneCat)
	if err != nil {
		t.Fatal(err)
	}
	j, ok := opt.(Project).In.(Join)
	if !ok {
		t.Fatalf("optimized = %s", opt)
	}
	if got := strings.Join(projectNames(t, j.L), ","); got != "x.k,x.a,x.b" {
		t.Fatalf("left input columns = %s", got)
	}
	if got := strings.Join(projectNames(t, j.R), ","); got != "y.k,y.d" {
		t.Fatalf("right input columns = %s", got)
	}
	s, err := OutSchema(opt, pruneCat)
	if err != nil || !s.Equal(tuple.NewSchema("out")) {
		t.Fatalf("schema = %v, %v", s, err)
	}
}

// TestPruneColsKeepsCollisionNames: a self-join's right columns are
// named r.<col> because they collide with the left ones; when r.a is
// needed the left a stays, so the collision resolves as before.
func TestPruneColsKeepsCollisionNames(t *testing.T) {
	side := func() Query { return ProjectCols(Rel{Name: "t"}, "k", "a", "b") }
	q := Project{
		Exprs: []NamedExpr{{Name: "out", E: Col("r.a")}},
		In:    Join{L: side(), R: side(), Pred: Eq(Col("k"), Col("r.k"))},
	}
	opt, err := Optimize(q, pruneCat)
	if err != nil {
		t.Fatal(err)
	}
	j := opt.(Project).In.(Join)
	if got := strings.Join(projectNames(t, j.L), ","); got != "k,a" {
		t.Fatalf("left input columns = %s (a must stay: r.a is named after it)", got)
	}
	if got := strings.Join(projectNames(t, j.R), ","); got != "k,a" {
		t.Fatalf("right input columns = %s", got)
	}
	if _, err := OutSchema(opt, pruneCat); err != nil {
		t.Fatalf("pruned query no longer type-checks: %v", err)
	}
}

// TestPruneColsBypass: nothing is narrowed where no join consumes the
// row, under the positional operators, or below a count(*) (which keeps
// one column per join input).
func TestPruneColsBypass(t *testing.T) {
	single := Project{Exprs: []NamedExpr{{Name: "out", E: Col("x.a")}}, In: alias("x", "t", "k", "a", "b", "c")}
	wide := Join{L: alias("x", "t", "k", "a"), R: alias("y", "u", "k", "d"), Pred: Eq(Col("x.k"), Col("y.k"))}
	for _, q := range []Query{single, Union{L: wide, R: wide}, Diff{L: wide, R: wide}} {
		opt, err := Optimize(q, pruneCat)
		if err != nil {
			t.Fatal(err)
		}
		if opt.String() != q.String() {
			t.Fatalf("pruned where nothing may be:\n%s\nfrom\n%s", opt, q)
		}
	}
	cnt := Agg{
		Aggs: []AggSpec{{Fn: krel.CountStar, As: "cnt"}},
		In:   Join{L: alias("x", "t", "k", "a"), R: alias("y", "u", "k", "d"), Pred: BoolC(true)},
	}
	opt, err := Optimize(cnt, pruneCat)
	if err != nil {
		t.Fatal(err)
	}
	j := opt.(Agg).In.(Join)
	if l, r := projectNames(t, j.L), projectNames(t, j.R); len(l) != 1 || len(r) != 1 {
		t.Fatalf("count(*) join inputs = %v, %v; want one column each", l, r)
	}
}

// countSelectsBelowJoins reports how many Select nodes sit strictly below
// a Join in q — a structural measure of pushdown effectiveness.
func countSelectsBelowJoins(q Query) int {
	count := 0
	var walk func(n Query, belowJoin bool)
	walk = func(n Query, belowJoin bool) {
		switch x := n.(type) {
		case Select:
			if belowJoin {
				count++
			}
			walk(x.In, belowJoin)
		case Project:
			walk(x.In, belowJoin)
		case Join:
			walk(x.L, true)
			walk(x.R, true)
		case Union:
			walk(x.L, belowJoin)
			walk(x.R, belowJoin)
		case Diff:
			walk(x.L, belowJoin)
			walk(x.R, belowJoin)
		case Agg:
			walk(x.In, belowJoin)
		}
	}
	walk(q, false)
	return count
}
