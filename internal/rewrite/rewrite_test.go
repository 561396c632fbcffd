package rewrite_test

import (
	"context"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/period"
	"snapk/internal/qgen"
	"snapk/internal/rewrite"
	"snapk/internal/semiring"
	"snapk/internal/telement"
	"snapk/internal/tuple"
)

var dom = interval.NewDomain(0, 24)
var alg = telement.NewMAlgebra[int64](semiring.N, dom)

func str(s string) tuple.Value { return tuple.String_(s) }

func exampleDB() *engine.DB {
	db := engine.NewDB(dom)
	works := db.CreateTable("works", tuple.NewSchema("name", "skill"))
	works.Append(tuple.Tuple{str("Ann"), str("SP")}, interval.New(3, 10), 1)
	works.Append(tuple.Tuple{str("Joe"), str("NS")}, interval.New(8, 16), 1)
	works.Append(tuple.Tuple{str("Sam"), str("SP")}, interval.New(8, 16), 1)
	works.Append(tuple.Tuple{str("Ann"), str("SP")}, interval.New(18, 20), 1)
	assign := db.CreateTable("assign", tuple.NewSchema("mach", "skill"))
	assign.Append(tuple.Tuple{str("M1"), str("SP")}, interval.New(3, 12), 1)
	assign.Append(tuple.Tuple{str("M2"), str("SP")}, interval.New(6, 14), 1)
	assign.Append(tuple.Tuple{str("M3"), str("NS")}, interval.New(3, 16), 1)
	return db
}

func qOnduty() algebra.Query {
	return algebra.Agg{
		Aggs: []algebra.AggSpec{{Fn: krel.CountStar, As: "cnt"}},
		In:   algebra.Select{Pred: algebra.Eq(algebra.Col("skill"), algebra.StrC("SP")), In: algebra.Rel{Name: "works"}},
	}
}

func qSkillreq() algebra.Query {
	return algebra.Diff{
		L: algebra.ProjectCols(algebra.Rel{Name: "assign"}, "skill"),
		R: algebra.ProjectCols(algebra.Rel{Name: "works"}, "skill"),
	}
}

// TestExample81QondutyRewritten reproduces Example 8.1: the rewritten
// Qonduty over the period encoding produces exactly Figure 1b, including
// the gap rows.
func TestExample81QondutyRewritten(t *testing.T) {
	db := exampleDB()
	for _, mode := range []rewrite.Mode{rewrite.ModeOptimized, rewrite.ModeNaive} {
		got, err := rewrite.Run(db, qOnduty(), rewrite.Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		want := engine.NewTable(tuple.NewSchema("cnt"))
		want.Append(tuple.Tuple{tuple.Int(0)}, interval.New(0, 3), 1)
		want.Append(tuple.Tuple{tuple.Int(1)}, interval.New(3, 8), 1)
		want.Append(tuple.Tuple{tuple.Int(2)}, interval.New(8, 10), 1)
		want.Append(tuple.Tuple{tuple.Int(1)}, interval.New(10, 16), 1)
		want.Append(tuple.Tuple{tuple.Int(0)}, interval.New(16, 18), 1)
		want.Append(tuple.Tuple{tuple.Int(1)}, interval.New(18, 20), 1)
		want.Append(tuple.Tuple{tuple.Int(0)}, interval.New(20, 24), 1)
		if !engine.EqualAsPeriodRelations(got, want, alg) {
			t.Fatalf("mode %d: Qonduty =\n%s\nwant\n%s", mode, got, want)
		}
		// The Figure 1b table is the unique coalesced encoding; check the
		// row set matches exactly, not just up to equivalence.
		if got.Len() != want.Len() {
			t.Fatalf("mode %d: %d rows, want %d", mode, got.Len(), want.Len())
		}
	}
}

// TestFigure1cSkillreqRewritten reproduces Figure 1c through REWR,
// demonstrating the absence of the BD bug.
func TestFigure1cSkillreqRewritten(t *testing.T) {
	db := exampleDB()
	got, err := rewrite.Run(db, qSkillreq(), rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := engine.NewTable(tuple.NewSchema("skill"))
	want.Append(tuple.Tuple{str("SP")}, interval.New(6, 8), 1)
	want.Append(tuple.Tuple{str("SP")}, interval.New(10, 12), 1)
	want.Append(tuple.Tuple{str("NS")}, interval.New(3, 8), 1)
	if !engine.EqualAsPeriodRelations(got, want, alg) {
		t.Fatalf("Qskillreq =\n%s\nwant\n%s", got, want)
	}
}

// TestTheorem81CommutingDiagram is the implementation-layer half of the
// Figure 2 diagram: for random databases and queries, executing REWR(Q)
// over PERIODENC(R) and decoding equals evaluating Q in the logical model
// — in both plan modes.
func TestTheorem81CommutingDiagram(t *testing.T) {
	g := qgen.New(131)
	// The full physical grid: every worker count (one fragment, ×2, ×4)
	// must close the same diagram. The loop below runs each (database,
	// query) pair over unsorted AND begin-sorted stored tables, which
	// pick the blocking and the streaming sweeps (the latter behind the
	// order-preserving exchange at ×2, ×4), so the grid is parallelism ×
	// sortedness.
	var opts []rewrite.Options
	for _, par := range []int{0, 2, 4} {
		opts = append(opts, rewrite.Options{Mode: rewrite.ModeOptimized, Parallelism: par})
	}
	opts = append(opts,
		rewrite.Options{Mode: rewrite.ModeNaive},
		rewrite.Options{Mode: rewrite.ModeNaive, Parallelism: 4},
	)
	for i := 0; i < 100; i++ {
		spec := g.GenDB()
		q := g.GenQuery()
		pdb := spec.ToPeriodDB()
		wantRel, err := pdb.Eval(q)
		if err != nil {
			t.Fatalf("period eval: %v (%s)", err, q)
		}
		for _, sorted := range []bool{false, true} {
			s := spec
			if sorted {
				s = spec.SortedByBegin()
			}
			edb := s.ToEngineDB()
			for _, opt := range opts {
				got, err := rewrite.Run(edb, q, opt)
				if err != nil {
					t.Fatalf("rewrite run: %v (%s)", err, q)
				}
				gotRel := got.ToPeriodRelation(pdb.Algebra())
				if !gotRel.Equal(wantRel) {
					t.Fatalf("iteration %d, sorted %v, opt %+v: implementation disagrees with logical model\nquery: %s\ngot:  %v\nwant: %v",
						i, sorted, opt, q, gotRel, wantRel)
				}
			}
		}
	}
}

// TestDiffGridEquivalence is the difference-focused half of the
// equivalence grid: every generated query has a difference at the root,
// so each iteration exercises the DiffP physical forms — blocking over
// unsorted stored tables, streaming over begin-sorted ones, and the
// parallel pairwise-partitioned variants — over parallelism ×
// sortedness, against the logical model.
func TestDiffGridEquivalence(t *testing.T) {
	g := qgen.New(421)
	var opts []rewrite.Options
	for _, par := range []int{0, 2, 4} {
		opts = append(opts, rewrite.Options{Mode: rewrite.ModeOptimized, Parallelism: par})
	}
	opts = append(opts,
		rewrite.Options{Mode: rewrite.ModeNaive},
		rewrite.Options{Mode: rewrite.ModeNaive, Parallelism: 4},
	)
	for i := 0; i < 60; i++ {
		spec := g.GenDB()
		q := g.GenDiffQuery()
		pdb := spec.ToPeriodDB()
		wantRel, err := pdb.Eval(q)
		if err != nil {
			t.Fatalf("period eval: %v (%s)", err, q)
		}
		for _, sorted := range []bool{false, true} {
			s := spec
			if sorted {
				s = spec.SortedByBegin()
			}
			edb := s.ToEngineDB()
			for _, opt := range opts {
				got, err := rewrite.Run(edb, q, opt)
				if err != nil {
					t.Fatalf("rewrite run: %v (%s)", err, q)
				}
				gotRel := got.ToPeriodRelation(pdb.Algebra())
				if !gotRel.Equal(wantRel) {
					t.Fatalf("iteration %d, sorted %v, opt %+v: difference disagrees with logical model\nquery: %s\ngot:  %v\nwant: %v",
						i, sorted, opt, q, gotRel, wantRel)
				}
			}
		}
	}
}

// TestDiffSweepPlanning pins the physical form of the difference: it
// streams exactly when BOTH children carry the order.
func TestDiffSweepPlanning(t *testing.T) {
	db := engine.NewDB(dom)
	sortedT := db.CreateTable("st", tuple.NewSchema("a"))
	sortedT.Append(tuple.Tuple{tuple.Int(1)}, interval.New(1, 5), 1)
	sortedT.Append(tuple.Tuple{tuple.Int(2)}, interval.New(3, 9), 1)
	unsortedT := db.CreateTable("ut", tuple.NewSchema("a"))
	unsortedT.Append(tuple.Tuple{tuple.Int(1)}, interval.New(6, 8), 1)
	unsortedT.Append(tuple.Tuple{tuple.Int(2)}, interval.New(2, 4), 1)
	if !sortedT.BeginSorted() || unsortedT.BeginSorted() {
		t.Fatal("fixture sortedness is wrong")
	}
	modeOf := func(l, r string) string {
		t.Helper()
		q := algebra.Diff{L: algebra.Rel{Name: l}, R: algebra.Rel{Name: r}}
		p, err := rewrite.Rewrite(q, db, rewrite.Options{Mode: rewrite.ModeOptimized})
		if err != nil {
			t.Fatal(err)
		}
		// The difference is the root: it emits the unique encoding, so no
		// coalesce is planned above it.
		n := db.ExplainPlan(p)
		if n.Op != "Diff" {
			t.Fatalf("plan root is %s, want Diff: %s", n.Op, p)
		}
		return n.Mode
	}

	if m := modeOf("st", "st"); m != "streaming" {
		t.Fatalf("a difference over two sorted scans must stream, got %s", m)
	}
	for _, pair := range [][2]string{{"st", "ut"}, {"ut", "st"}, {"ut", "ut"}} {
		if m := modeOf(pair[0], pair[1]); m != "blocking" {
			t.Fatalf("a difference with unsorted child %v must block, got %s", pair, m)
		}
	}
}

// TestUniqueEncodingOfResults: in optimized mode the final coalesce —
// or the difference or aggregation root that makes it unnecessary —
// makes the result the unique encoding, the exact PERIODENC image of
// the logical result.
func TestUniqueEncodingOfResults(t *testing.T) {
	g := qgen.New(7)
	for i := 0; i < 50; i++ {
		spec := g.GenDB()
		q := g.GenQuery()
		edb := spec.ToEngineDB()
		got, err := rewrite.Run(edb, q, rewrite.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !engine.IsCoalesced(got) {
			t.Fatalf("result of %s is not coalesced:\n%s", q, got)
		}
		// Canonical: identical to PERIODENC of the decoded relation.
		pdb := spec.ToPeriodDB()
		canon := engine.FromPeriodRelation(got.ToPeriodRelation(pdb.Algebra()))
		a, b := got.Clone(), canon
		a.Sort()
		b.Sort()
		if a.Len() != b.Len() {
			t.Fatalf("result row multiset differs from canonical encoding for %s", q)
		}
		for j := range a.Rows {
			if a.Rows[j].Key() != b.Rows[j].Key() {
				t.Fatalf("result row %d differs from canonical encoding for %s", j, q)
			}
		}
	}
}

// TestCoalescePlacement checks the §9 optimization structurally: the
// optimized plan contains at most one coalesce — none over a difference
// or aggregation root, which already emit the unique encoding, and one
// over a join, union or scan root — and the naive plan one per
// rewritten operator.
func TestCoalescePlacement(t *testing.T) {
	db := exampleDB()
	join := algebra.Join{
		L:    algebra.Rel{Name: "works"},
		R:    algebra.Rel{Name: "assign"},
		Pred: algebra.Eq(algebra.Col("skill"), algebra.Col("r.skill")),
	}
	union := algebra.Union{
		L: algebra.ProjectCols(algebra.Rel{Name: "assign"}, "skill"),
		R: algebra.ProjectCols(algebra.Rel{Name: "works"}, "skill"),
	}
	grouped := algebra.Agg{
		GroupBy: []string{"skill"},
		Aggs:    []algebra.AggSpec{{Fn: krel.CountStar, As: "cnt"}},
		In:      algebra.Rel{Name: "works"},
	}
	for _, c := range []struct {
		name string
		q    algebra.Query
		want int
	}{
		{"global agg", qOnduty(), 0},
		{"grouped agg", grouped, 0},
		{"diff", qSkillreq(), 0},
		{"join", join, 1},
		{"union", union, 1},
		{"scan", algebra.Rel{Name: "works"}, 1},
	} {
		opt, err := rewrite.Rewrite(c.q, db, rewrite.Options{Mode: rewrite.ModeOptimized})
		if err != nil {
			t.Fatal(err)
		}
		if got := engine.CountCoalesce(opt); got != c.want {
			t.Fatalf("%s: optimized plan has %d coalesce operators, want %d:\n%s", c.name, got, c.want, opt)
		}
	}
	naive, err := rewrite.Rewrite(qOnduty(), db, rewrite.Options{Mode: rewrite.ModeNaive})
	if err != nil {
		t.Fatal(err)
	}
	// Qonduty = Agg(Select(Rel)): two rewritten operators ⇒ two coalesces.
	if got := engine.CountCoalesce(naive); got != 2 {
		t.Fatalf("naive plan has %d coalesce operators, want 2:\n%s", got, naive)
	}
}

// TestCoalescedPlansEmitUniqueEncoding checks engine.Coalesced against
// execution, since the planner drops the final coalesce exactly where it
// holds: over qgen databases and queries (half of them begin-sorted, so
// both sweep forms run), in both plan modes and at one and two workers,
// every subplan it calls
// coalesced must run to output that engine.IsCoalesced accepts — which
// pins its projection rule on the renamings, permutations, duplicated
// and computed columns qgen generates — and every plan must equal the
// snapshot oracle.
func TestCoalescedPlansEmitUniqueEncoding(t *testing.T) {
	g := qgen.New(2207)
	run := func(db *engine.DB, p engine.Plan, workers int) *engine.Table {
		t.Helper()
		it, err := parallel.Exec(context.Background(), db, p, parallel.Options{Workers: workers})
		if err != nil {
			t.Fatalf("exec %s: %v", p, err)
		}
		defer it.Close()
		got, err := engine.MaterializeErr(it)
		if err != nil {
			t.Fatalf("exec %s: %v", p, err)
		}
		return got
	}
	var walk func(p engine.Plan, visit func(engine.Plan))
	walk = func(p engine.Plan, visit func(engine.Plan)) {
		visit(p)
		for _, in := range engine.Inputs(p) {
			walk(in, visit)
		}
	}
	for i := 0; i < 120; i++ {
		spec := g.GenDB()
		if i%2 == 1 {
			spec = spec.SortedByBegin()
		}
		q := []func() algebra.Query{g.GenQuery, g.GenDiffQuery, g.GenJoinQuery}[i%3]()
		want, err := spec.ToSnapshotDB().Eval(q)
		if err != nil {
			t.Fatalf("oracle eval: %v (%s)", err, q)
		}
		edb := spec.ToEngineDB()
		qalg := telement.NewMAlgebra[int64](semiring.N, spec.Dom)
		for _, mode := range []rewrite.Mode{rewrite.ModeOptimized, rewrite.ModeNaive} {
			for _, w := range []int{1, 2} {
				p, err := rewrite.Rewrite(q, edb, rewrite.Options{Mode: mode, Parallelism: w})
				if err != nil {
					t.Fatalf("rewrite: %v (%s)", err, q)
				}
				if mode == rewrite.ModeOptimized && !engine.Coalesced(p) {
					t.Fatalf("iteration %d: the optimized root is not coalesced: %s", i, p)
				}
				walk(p, func(s engine.Plan) {
					if !engine.Coalesced(s) {
						return
					}
					if got := run(edb, s, w); !engine.IsCoalesced(got) {
						t.Fatalf("iteration %d, mode %d, workers %d: Coalesced(%s) holds but its output is not coalesced:\n%s",
							i, mode, w, s, got)
					}
				})
				if got := run(edb, p, w); !period.Dec(got.ToPeriodRelation(qalg), spec.Dom).Equal(want) {
					t.Fatalf("iteration %d, mode %d, workers %d: plan disagrees with the snapshot oracle\nquery: %s\nplan:  %s\ngot:\n%s",
						i, mode, w, q, p, got)
				}
			}
		}
	}
}

func TestRewriteErrors(t *testing.T) {
	db := exampleDB()
	if _, err := rewrite.Rewrite(algebra.Rel{Name: "nope"}, db, rewrite.Options{}); err == nil {
		t.Fatal("unknown relation must error")
	}
	bad := algebra.Select{Pred: algebra.Col("zzz"), In: algebra.Rel{Name: "works"}}
	if _, err := rewrite.Rewrite(bad, db, rewrite.Options{}); err == nil {
		t.Fatal("bad predicate must error")
	}
	if _, err := rewrite.Run(db, bad, rewrite.Options{}); err == nil {
		t.Fatal("Run must propagate errors")
	}
}

func TestOutSchema(t *testing.T) {
	db := exampleDB()
	s, err := rewrite.OutSchema(db, qOnduty())
	if err != nil || !s.Equal(tuple.NewSchema("cnt")) {
		t.Fatalf("OutSchema = %v, %v", s, err)
	}
}

// TestMixedQueryAllOperators runs one query exercising every operator
// through the middleware and cross-checks against the logical model.
func TestMixedQueryAllOperators(t *testing.T) {
	db := exampleDB()
	// Number of machines per skill that lack a worker of that skill.
	q := algebra.Agg{
		GroupBy: []string{"skill"},
		Aggs:    []algebra.AggSpec{{Fn: krel.CountStar, As: "missing"}},
		In:      qSkillreq(),
	}
	got, err := rewrite.Run(db, q, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pdb := period.NewDB[int64](semiring.N, dom)
	loadPeriod(pdb, db, "works")
	loadPeriod(pdb, db, "assign")
	wantRel, err := pdb.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ToPeriodRelation(alg).Equal(wantRel) {
		t.Fatalf("mixed query mismatch:\n%v\nwant %v", got.ToPeriodRelation(alg), wantRel)
	}
}

func loadPeriod(pdb *period.DB[int64], edb *engine.DB, name string) {
	t, err := edb.Table(name)
	if err != nil {
		panic(err)
	}
	pdb.AddRelation(name, t.ToPeriodRelation(pdb.Algebra()))
}

// TestOptimizeAgainstSnapshotOracle specifies the logical pass
// (algebra.Optimize: σ-pushdown, σ→⋈ absorption, join-input pruning) by
// the abstract model, not by plan snapshots: rewrite.Run always plans
// through the pass, the per-snapshot oracle (package snapshot) never
// does, and on random databases the decoded result must equal the
// oracle's at every time point — for the general query grid and for the
// join shapes the pass rewrites, in both plan modes, at one and two
// workers.
func TestOptimizeAgainstSnapshotOracle(t *testing.T) {
	g := qgen.New(977)
	var opts []rewrite.Options
	for _, mode := range []rewrite.Mode{rewrite.ModeOptimized, rewrite.ModeNaive} {
		for _, par := range []int{1, 2} {
			opts = append(opts, rewrite.Options{Mode: mode, Parallelism: par})
		}
	}
	for i := 0; i < 300; i++ {
		spec := g.GenDB()
		q := g.GenJoinQuery()
		if i%4 == 0 {
			q = g.GenQuery()
		}
		want, err := spec.ToSnapshotDB().Eval(q)
		if err != nil {
			t.Fatalf("oracle eval: %v (%s)", err, q)
		}
		edb := spec.ToEngineDB()
		qalg := telement.NewMAlgebra[int64](semiring.N, spec.Dom)
		for _, opt := range opts {
			got, err := rewrite.Run(edb, q, opt)
			if err != nil {
				t.Fatalf("rewrite run: %v (%s)", err, q)
			}
			if !period.Dec(got.ToPeriodRelation(qalg), spec.Dom).Equal(want) {
				oq, _ := algebra.Optimize(q, edb)
				t.Fatalf("iteration %d, mode %d, workers %d: optimized plan disagrees with the snapshot oracle\nquery:     %s\noptimized: %s\ngot:\n%s",
					i, opt.Mode, opt.Parallelism, q, oq, got)
			}
		}
	}
}

// TestOptimizeKeepsFalseAboveGlobalAgg: the soundness guard — a FALSE
// selection above a global aggregation must NOT be pushed below it,
// where it would turn "no rows" into a zero-count gap row.
func TestOptimizeKeepsFalseAboveGlobalAgg(t *testing.T) {
	db := exampleDB()
	q := algebra.Select{
		Pred: algebra.BoolC(false),
		In: algebra.Agg{
			Aggs: []algebra.AggSpec{{Fn: krel.CountStar, As: "cnt"}},
			In:   algebra.Rel{Name: "works"},
		},
	}
	got, err := rewrite.Run(db, q, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("FALSE selection must empty the result, got %d rows", got.Len())
	}
}
