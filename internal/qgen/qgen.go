// Package qgen generates random temporal databases and random RA_agg
// queries over them. It powers the cross-layer equivalence tests that
// mechanically verify the commuting diagram of Figure 2: the abstract
// model (package snapshot), the logical model (package period) and the
// rewritten implementation (packages rewrite + engine) must agree on
// every generated (database, query) pair.
package qgen

import (
	"math/rand"
	"sort"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/period"
	"snapk/internal/semiring"
	"snapk/internal/snapshot"
	"snapk/internal/tuple"
)

// Fact is one interval-timestamped tuple with a multiplicity.
type Fact struct {
	Tuple tuple.Tuple
	Iv    interval.Interval
	Mult  int64
}

// Table is a generated period multiset table.
type Table struct {
	Name   string
	Schema tuple.Schema
	Facts  []Fact
}

// DBSpec is a generated temporal database in a model-neutral form; it can
// be loaded into any of the three model layers.
type DBSpec struct {
	Dom    interval.Domain
	Tables []Table
}

// Gen bundles a random source with generation parameters.
type Gen struct {
	R *rand.Rand
	// MaxDepth bounds the operator depth of generated queries.
	MaxDepth int
	// MaxFacts bounds facts per table.
	MaxFacts int
}

// New returns a generator with sensible defaults for unit tests.
func New(seed int64) *Gen {
	return &Gen{R: rand.New(rand.NewSource(seed)), MaxDepth: 4, MaxFacts: 12}
}

// twoColSchema is the fixed schema of generated tables: two integer
// columns. Keeping every subquery at this schema makes union/difference
// compatibility trivial while still exercising all operators.
var twoColSchema = tuple.NewSchema("a", "b")

// GenDB generates a database with two tables r and s over domain [0, 16).
func (g *Gen) GenDB() DBSpec {
	dom := interval.NewDomain(0, 16)
	spec := DBSpec{Dom: dom}
	for _, name := range []string{"r", "s"} {
		t := Table{Name: name, Schema: twoColSchema}
		n := g.R.Intn(g.MaxFacts + 1)
		for i := 0; i < n; i++ {
			begin := dom.Min + int64(g.R.Intn(int(dom.Size()-1)))
			end := begin + 1 + int64(g.R.Intn(int(dom.Max-begin)))
			t.Facts = append(t.Facts, Fact{
				Tuple: tuple.Tuple{g.genValue(), g.genValue()},
				Iv:    interval.New(begin, end),
				Mult:  1 + int64(g.R.Intn(2)),
			})
		}
		spec.Tables = append(spec.Tables, t)
	}
	return spec
}

// genValue produces a small integer or, occasionally, NULL — so the
// cross-layer tests also pin down SQL NULL semantics (three-valued
// predicates, NULL-excluding joins, NULL-skipping aggregates) across the
// oracle, the logical model and the engine.
func (g *Gen) genValue() tuple.Value {
	if g.R.Intn(8) == 0 {
		return tuple.Null
	}
	return tuple.Int(int64(g.R.Intn(4)))
}

// SortedByBegin returns a copy of the spec whose facts are ordered by
// ascending interval begin within each table. Loading the copy into the
// engine yields begin-sorted stored tables, over which the sweeps
// stream — the deliberately
// pre-sorted half of the equivalence suite (the original spec is the
// unsorted half).
func (spec DBSpec) SortedByBegin() DBSpec {
	out := DBSpec{Dom: spec.Dom}
	for _, t := range spec.Tables {
		nt := Table{Name: t.Name, Schema: t.Schema, Facts: append([]Fact(nil), t.Facts...)}
		sort.SliceStable(nt.Facts, func(i, j int) bool { return nt.Facts[i].Iv.Begin < nt.Facts[j].Iv.Begin })
		out.Tables = append(out.Tables, nt)
	}
	return out
}

// ToSnapshotDB loads the spec into the abstract model.
func (spec DBSpec) ToSnapshotDB() *snapshot.DB[int64] {
	db := snapshot.NewDB[int64](semiring.N, spec.Dom)
	for _, t := range spec.Tables {
		r := db.CreateRelation(t.Name, t.Schema)
		for _, f := range t.Facts {
			r.AddPeriod(f.Iv, f.Tuple, f.Mult)
		}
	}
	return db
}

// ToPeriodDB loads the spec into the logical model.
func (spec DBSpec) ToPeriodDB() *period.DB[int64] {
	db := period.NewDB[int64](semiring.N, spec.Dom)
	for _, t := range spec.Tables {
		r := db.CreateRelation(t.Name, t.Schema)
		for _, f := range t.Facts {
			r.AddPeriod(f.Tuple, f.Iv, f.Mult)
		}
	}
	return db
}

// ToEngineDB loads the spec into the implementation layer as PERIODENC-
// encoded multiset tables.
func (spec DBSpec) ToEngineDB() *engine.DB {
	db := engine.NewDB(spec.Dom)
	for _, t := range spec.Tables {
		tbl := db.CreateTable(t.Name, t.Schema)
		for _, f := range t.Facts {
			tbl.Append(f.Tuple, f.Iv, f.Mult)
		}
	}
	return db
}

// GenQuery generates a random RA_agg query whose input tables are r and
// s. Positive subqueries all have schema (a, b); an aggregation, if any,
// appears at the root (mirroring the shape of the paper's workloads).
func (g *Gen) GenQuery() algebra.Query {
	q := g.genPositive(g.MaxDepth, true)
	switch g.R.Intn(4) {
	case 0:
		return algebra.Agg{
			GroupBy: []string{"a"},
			Aggs:    []algebra.AggSpec{{Fn: krel.CountStar, As: "cnt"}},
			In:      q,
		}
	case 1:
		fn := []krel.AggFunc{krel.Sum, krel.Min, krel.Max, krel.Avg, krel.Count}[g.R.Intn(5)]
		return algebra.Agg{
			Aggs: []algebra.AggSpec{{Fn: fn, Arg: "b", As: "v"}, {Fn: krel.CountStar, As: "cnt"}},
			In:   q,
		}
	default:
		return q
	}
}

// GenDiffQuery generates a random query with a difference at the root —
// the dedicated generator of the streaming-difference equivalence grid,
// which must exercise the DiffP physical forms on every iteration
// (GenQuery only reaches a difference by chance).
func (g *Gen) GenDiffQuery() algebra.Query {
	return algebra.Diff{
		L: g.genPositive(g.MaxDepth-1, true),
		R: g.genPositive(g.MaxDepth-1, true),
	}
}

// GenPositiveQuery generates a random RA+ query (no difference, no
// aggregation) — the fragment for which the legacy baselines are still
// snapshot-reducible (Table 1).
func (g *Gen) GenPositiveQuery() algebra.Query {
	return g.genPositive(g.MaxDepth, false)
}

// GenJoinQuery generates a query built around a selection over a join —
// the shapes the logical pass (algebra.Optimize) rewrites: cross-side
// equalities (hash keys once absorbed) and inequalities (residuals) in
// the WHERE, OR-of-ANDs residuals (TPC-H Q19's shape), NULL join keys
// (genValue), alias-renamed inputs and bare ones whose schemas collide
// (the "r." prefix, self-joins included), three-way joins, count(*) over
// a join, and selections over an aggregation, union or difference above
// joins.
func (g *Gen) GenJoinQuery() algebra.Query {
	switch g.R.Intn(5) {
	case 0:
		sel, _, _ := g.joinSelect()
		return algebra.Agg{Aggs: []algebra.AggSpec{{Fn: krel.CountStar, As: "cnt"}}, In: sel}
	case 1:
		sel, la, rb := g.joinSelect()
		agg := algebra.Agg{
			GroupBy: []string{la},
			Aggs:    []algebra.AggSpec{{Fn: krel.Sum, Arg: rb, As: "v"}, {Fn: krel.CountStar, As: "cnt"}},
			In:      sel,
		}
		return algebra.Select{
			Pred: algebra.And(algebra.Le(algebra.Col(la), g.smallInt()), algebra.Ge(algebra.Col("v"), g.smallInt())),
			In:   agg,
		}
	case 2:
		return algebra.Select{Pred: g.genPred(), In: algebra.Union{L: g.joinCore(), R: g.joinCore()}}
	case 3:
		return algebra.Select{Pred: g.genPred(), In: algebra.Diff{L: g.joinCore(), R: g.joinCore()}}
	default:
		return g.joinCore()
	}
}

func (g *Gen) smallInt() algebra.Expr { return algebra.IntC(int64(g.R.Intn(4))) }

// joinInput is one join input: a base table, bare or behind the rename
// projection the SQL frontend puts over an aliased FROM item, sometimes
// under a selection of its own.
func (g *Gen) joinInput(alias string) algebra.Query {
	in := g.baseRel()
	if g.R.Intn(3) == 0 {
		in = algebra.Select{Pred: g.genPred(), In: in}
	}
	if alias == "" {
		if g.R.Intn(2) == 0 {
			return algebra.ProjectCols(in, "a", "b")
		}
		return in
	}
	return algebra.Project{
		Exprs: []algebra.NamedExpr{
			{Name: alias + ".a", E: algebra.Col("a")},
			{Name: alias + ".b", E: algebra.Col("b")},
		},
		In: in,
	}
}

// joinSelect generates σ_where(L ⋈_on R), sometimes joined to a third
// input, and returns it with the output names of the left input's a and
// the right input's b.
func (g *Gen) joinSelect() (q algebra.Query, la, rb string) {
	// Aliased inputs keep apart as x.*, y.*; bare ones collide, so the
	// join names the right side's columns r.a, r.b.
	aliased := g.R.Intn(2) == 0
	la, lb, ra, rb := "a", "b", "r.a", "r.b"
	l, r := g.joinInput(""), g.joinInput("")
	if aliased {
		la, lb, ra, rb = "x.a", "x.b", "y.a", "y.b"
		l, r = g.joinInput("x"), g.joinInput("y")
	}
	col := algebra.Col
	ons := []algebra.Expr{
		algebra.BoolC(true),
		algebra.Eq(col(la), col(ra)),
		algebra.And(algebra.Eq(col(la), col(ra)), algebra.Lt(col(lb), col(rb))),
	}
	q = algebra.Join{L: l, R: r, Pred: ons[g.R.Intn(len(ons))]}
	if aliased && g.R.Intn(3) == 0 {
		// A third input (only aliased: bare, its a would collide with both
		// a and r.a, and the engine rejects a schema that repeats a name).
		q = algebra.Join{L: q, R: g.joinInput("z"), Pred: algebra.Eq(col(lb), col("z.b"))}
	}
	conjuncts := []algebra.Expr{
		algebra.Eq(col(lb), col(rb)),
		algebra.Lt(col(la), col(rb)),
		algebra.Ne(col(lb), col(ra)),
		algebra.Le(col(la), g.smallInt()),
		algebra.Gt(col(rb), g.smallInt()),
		algebra.Or(
			algebra.And(algebra.Eq(col(la), g.smallInt()), algebra.Ge(col(rb), g.smallInt())),
			algebra.And(algebra.Eq(col(lb), g.smallInt()), algebra.Le(col(ra), g.smallInt())),
		),
	}
	g.R.Shuffle(len(conjuncts), func(i, j int) { conjuncts[i], conjuncts[j] = conjuncts[j], conjuncts[i] })
	return algebra.Select{Pred: algebra.And(conjuncts[:1+g.R.Intn(3)]...), In: q}, la, rb
}

// joinCore is joinSelect projected back to schema (a, b).
func (g *Gen) joinCore() algebra.Query {
	sel, la, rb := g.joinSelect()
	return algebra.Project{
		Exprs: []algebra.NamedExpr{{Name: "a", E: algebra.Col(la)}, {Name: "b", E: algebra.Col(rb)}},
		In:    sel,
	}
}

// genPositive generates a query with output schema (a, b); with allowDiff
// it may contain difference (the full RA of Section 7.1).
func (g *Gen) genPositive(depth int, allowDiff bool) algebra.Query {
	if depth <= 0 {
		return g.baseRel()
	}
	switch g.R.Intn(7) {
	case 0:
		return g.baseRel()
	case 1:
		return algebra.Select{Pred: g.genPred(), In: g.genPositive(depth-1, allowDiff)}
	case 2:
		// Column permutation / computed projection, keeping schema (a, b).
		exprs := [][]algebra.NamedExpr{
			{{Name: "a", E: algebra.Col("b")}, {Name: "b", E: algebra.Col("a")}},
			{{Name: "a", E: algebra.Col("a")}, {Name: "b", E: algebra.Add(algebra.Col("b"), algebra.IntC(1))}},
			{{Name: "a", E: algebra.Col("a")}, {Name: "b", E: algebra.Col("a")}},
		}
		return algebra.Project{Exprs: exprs[g.R.Intn(len(exprs))], In: g.genPositive(depth-1, allowDiff)}
	case 3:
		// Equi-join on a, projecting back to (a, b).
		j := algebra.Join{
			L:    g.genPositive(depth-1, allowDiff),
			R:    g.genPositive(depth-1, allowDiff),
			Pred: algebra.Eq(algebra.Col("a"), algebra.Col("r.a")),
		}
		return algebra.Project{
			Exprs: []algebra.NamedExpr{
				{Name: "a", E: algebra.Col("a")},
				{Name: "b", E: algebra.Col("r.b")},
			},
			In: j,
		}
	case 4:
		return algebra.Union{L: g.genPositive(depth-1, allowDiff), R: g.genPositive(depth-1, allowDiff)}
	case 5:
		if allowDiff {
			return algebra.Diff{L: g.genPositive(depth-1, allowDiff), R: g.genPositive(depth-1, allowDiff)}
		}
		return algebra.Union{L: g.genPositive(depth-1, allowDiff), R: g.genPositive(depth-1, allowDiff)}
	default:
		return g.baseRel()
	}
}

func (g *Gen) baseRel() algebra.Query {
	if g.R.Intn(2) == 0 {
		return algebra.Rel{Name: "r"}
	}
	return algebra.Rel{Name: "s"}
}

func (g *Gen) genPred() algebra.Expr {
	col := []string{"a", "b"}[g.R.Intn(2)]
	val := g.smallInt()
	switch g.R.Intn(4) {
	case 0:
		return algebra.Eq(algebra.Col(col), val)
	case 1:
		return algebra.Le(algebra.Col(col), val)
	case 2:
		return algebra.Gt(algebra.Col(col), val)
	default:
		return algebra.Ne(algebra.Col(col), val)
	}
}
