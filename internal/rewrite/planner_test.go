package rewrite_test

// Tests for the phased planner: the windowed differential grid (every
// parallelism × sortedness configuration must equal the clip-at-root
// oracle), the window law on clipped base tables, the pushdown plan
// shapes, and what the planner leaves to the executor.

import (
	"context"
	"strings"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
	"snapk/internal/interval"
	"snapk/internal/qgen"
	"snapk/internal/rewrite"
)

// TestWindowGridEquivalence is the windowed extension of the Theorem 8.1
// grid: for random databases/queries and several windows, running with
// Options.Window set must equal clipping the unwindowed logical result —
// τ_T applied at the root is the semantics; the pushed plan must
// reproduce it exactly. The grid is parallelism × sortedness (which
// picks the sweep form).
func TestWindowGridEquivalence(t *testing.T) {
	g := qgen.New(509)
	// qgen's domain is [0, 16): a middle slice, the whole domain, a point
	// window and one reaching past the domain edge.
	windows := []interval.Interval{
		interval.New(3, 11),
		interval.New(0, 16),
		interval.New(5, 6),
		interval.New(12, 40),
	}
	for i := 0; i < 30; i++ {
		spec := g.GenDB()
		q := g.GenQuery()
		pdb := spec.ToPeriodDB()
		wantRel, err := pdb.Eval(q)
		if err != nil {
			t.Fatalf("period eval: %v (%s)", err, q)
		}
		for _, T := range windows {
			// The oracle: encode the logical result and clip it at the root.
			want := engine.ClipWindow(engine.FromPeriodRelation(wantRel), T).ToPeriodRelation(pdb.Algebra())
			for _, sorted := range []bool{false, true} {
				s := spec
				if sorted {
					s = spec.SortedByBegin()
				}
				edb := s.ToEngineDB()
				for _, par := range []int{0, 2, 4} {
					opt := rewrite.Options{Mode: rewrite.ModeOptimized, Parallelism: par, Window: T}
					got, err := rewrite.Run(edb, q, opt)
					if err != nil {
						t.Fatalf("windowed run: %v (%s)", err, q)
					}
					if !got.ToPeriodRelation(pdb.Algebra()).Equal(want) {
						t.Fatalf("iteration %d, window %s, sorted %v, opt %+v: windowed result disagrees with clip-at-root oracle\nquery: %s\ngot:  %v\nwant: %v",
							i, T, sorted, opt, q, got.ToPeriodRelation(pdb.Algebra()), want)
					}
				}
			}
		}
	}
}

// clipSpec returns spec with every fact clipped to T — τ_T applied to
// the base tables. Facts not overlapping T are dropped.
func clipSpec(spec qgen.DBSpec, T interval.Interval) qgen.DBSpec {
	out := qgen.DBSpec{Dom: spec.Dom}
	for _, tb := range spec.Tables {
		ct := qgen.Table{Name: tb.Name, Schema: tb.Schema}
		for _, f := range tb.Facts {
			if iv, ok := f.Iv.Intersect(T); ok {
				f.Iv = iv
				ct.Facts = append(ct.Facts, f)
			}
		}
		out.Tables = append(out.Tables, ct)
	}
	return out
}

// TestWindowLawOnClippedBase is the metamorphic form of snapshot-
// reducibility the window pushdown rests on: τ_T(Q(τ_T(D))) = τ_T(Q(D)).
// The left side runs Q with no window over base tables already clipped
// to T and clips the result; the right side is the logical model's
// result on the unclipped database, clipped. Both sides must agree at
// one and two workers.
func TestWindowLawOnClippedBase(t *testing.T) {
	g := qgen.New(887)
	windows := []interval.Interval{
		interval.New(3, 11),
		interval.New(5, 6),
		interval.New(0, 16),
		interval.New(12, 40),
	}
	for i := 0; i < 40; i++ {
		spec := g.GenDB()
		q := g.GenQuery()
		pdb := spec.ToPeriodDB()
		wantRel, err := pdb.Eval(q)
		if err != nil {
			t.Fatalf("period eval: %v (%s)", err, q)
		}
		for _, T := range windows {
			want := engine.ClipWindow(engine.FromPeriodRelation(wantRel), T).ToPeriodRelation(pdb.Algebra())
			clipped := clipSpec(spec, T).ToEngineDB()
			for _, par := range []int{1, 2} {
				got, err := rewrite.Run(clipped, q, rewrite.Options{Mode: rewrite.ModeOptimized, Parallelism: par})
				if err != nil {
					t.Fatalf("run over clipped base: %v (%s)", err, q)
				}
				gotRel := engine.ClipWindow(got, T).ToPeriodRelation(pdb.Algebra())
				if !gotRel.Equal(want) {
					t.Fatalf("iteration %d, window %s, W=%d: τ_T(Q(τ_T(D))) ≠ τ_T(Q(D))\nquery: %s\ngot:  %v\nwant: %v",
						i, T, par, q, gotRel, want)
				}
			}
		}
	}
}

// runAtRoot executes q with the window clipped once at the plan root —
// the hand-built oracle the pushed plan must reproduce. An invalid T
// means no window, as in Options.Window.
func runAtRoot(db *engine.DB, q algebra.Query, T interval.Interval) (*engine.Table, error) {
	p, err := rewrite.Rewrite(q, db, rewrite.Options{Mode: rewrite.ModeOptimized})
	if err != nil {
		return nil, err
	}
	if T.Valid() {
		p = engine.WindowP{T: T, In: p}
	}
	it, err := parallel.Exec(context.Background(), db, p, parallel.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	defer it.Close()
	return engine.MaterializeErr(it)
}

// planFor runs PlanQuery and returns the plan, failing the test on error.
func planFor(t *testing.T, db *engine.DB, q algebra.Query, opt rewrite.Options) (engine.Plan, *rewrite.Decisions) {
	t.Helper()
	p, dec, err := rewrite.PlanQuery(q, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	return p, dec
}

// countWindows walks a plan counting WindowP nodes.
func countWindows(p engine.Plan) int {
	n := 0
	if _, ok := p.(engine.WindowP); ok {
		n = 1
	}
	for _, in := range engine.Inputs(p) {
		n += countWindows(in)
	}
	return n
}

// TestWindowPushdownPlanShape pins where the pushdown phase places the
// window for each legality rule's happy path.
func TestWindowPushdownPlanShape(t *testing.T) {
	db := exampleDB()
	T := interval.New(4, 12)
	on := rewrite.Options{Mode: rewrite.ModeOptimized, Window: T}

	// The window passes through the final coalesce to the scan.
	p, _ := planFor(t, db, algebra.Rel{Name: "works"}, on)
	co, ok := p.(engine.CoalesceP)
	if !ok {
		t.Fatalf("plan root is %T, want CoalesceP above the pushed window: %s", p, p)
	}
	if w, ok := co.In.(engine.WindowP); !ok {
		t.Fatalf("coalesce input is %T, want the pushed WindowP: %s", co.In, p)
	} else if _, ok := w.In.(engine.ScanP); !ok || w.T != T {
		t.Fatalf("window must land directly above the scan with T=%s: %s", T, p)
	}

	// Data-only filters let the window through (Qonduty's selection reads
	// only `skill`); the global aggregate keeps a window above AND pushes
	// a copy below — gap rows span the whole domain. The aggregate emits
	// the unique encoding, so no coalesce sits above that window.
	p, _ = planFor(t, db, qOnduty(), on)
	if got := countWindows(p); got != 2 {
		t.Fatalf("global-agg plan has %d windows, want above+below = 2:\n%s", got, p)
	}
	above, ok := p.(engine.WindowP)
	if !ok {
		t.Fatalf("plan root is %T, want the window above the global aggregate: %s", p, p)
	}
	agg, ok := above.In.(engine.AggP)
	if !ok || len(agg.GroupBy) != 0 {
		t.Fatalf("node under the upper window is %T, want the global AggP: %s", above.In, p)
	}

	// Joins clone the window into both children; with a difference of two
	// projections (Qskillreq) the window distributes to every scan.
	p, _ = planFor(t, db, qSkillreq(), on)
	if got := countWindows(p); got != 2 {
		t.Fatalf("diff-of-projections plan has %d windows, want one per scan = 2:\n%s", got, p)
	}
	join := algebra.Join{
		L:    algebra.Rel{Name: "works"},
		R:    algebra.Rel{Name: "assign"},
		Pred: algebra.Eq(algebra.Col("skill"), algebra.Col("r.skill")),
	}
	p, _ = planFor(t, db, join, on)
	if got := countWindows(p); got != 2 {
		t.Fatalf("join plan has %d windows, want one per child = 2:\n%s", got, p)
	}
}

// TestPlannerDecisions: a windowed equi join pushes the window onto
// both scans, so the planner has nothing to note and never narrows the
// worker count. The build side and the zone-map prune are read off the
// plan by the executor and EXPLAIN alike.
func TestPlannerDecisions(t *testing.T) {
	db := exampleDB()
	join := algebra.Join{
		L:    algebra.Rel{Name: "works"},
		R:    algebra.Rel{Name: "assign"},
		Pred: algebra.Eq(algebra.Col("skill"), algebra.Col("r.skill")),
	}
	T := interval.New(4, 12)
	opt := rewrite.Options{Mode: rewrite.ModeOptimized, Window: T, Parallelism: 4}
	p, dec := planFor(t, db, join, opt)
	if dec.Workers != 0 || len(dec.Notes) != 0 {
		t.Fatalf("every window reached a scan, yet the planner recorded %+v", dec)
	}
	// assign (3 rows) is the smaller input: build=right. Both windows sit
	// on a scan, so both prune.
	tree := db.ExplainPlan(p).Render()
	if !strings.Contains(tree, "hash build=right") {
		t.Fatalf("EXPLAIN lacks build=right:\n%s", tree)
	}
	if n := strings.Count(tree, "Window [[4, 12) prune]"); n != 2 {
		t.Fatalf("EXPLAIN shows %d pruned windows, want 2:\n%s", n, tree)
	}

	got, err := rewrite.Run(db, join, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runAtRoot(db, join, T)
	if err != nil {
		t.Fatal(err)
	}
	if !engine.EqualAsPeriodRelations(got, want, alg) {
		t.Fatal("the pushed, pruned join disagrees with the root-clipped oracle")
	}
}

// FuzzWindowPushdown is the pushdown legality fuzz: for a generated
// database/query and an arbitrary window, the pushed plan must equal the
// hand-built clip-at-root plan row-for-row. The seed corpus covers each
// legality rule through qgen's operator mix plus edge-shaped windows.
func FuzzWindowPushdown(f *testing.F) {
	f.Add(int64(1), int64(3), int64(11))   // middle slice
	f.Add(int64(2), int64(0), int64(16))   // whole domain
	f.Add(int64(3), int64(5), int64(6))    // point window
	f.Add(int64(4), int64(-8), int64(2))   // straddles the left edge
	f.Add(int64(5), int64(12), int64(40))  // straddles the right edge
	f.Add(int64(6), int64(20), int64(30))  // fully outside the domain
	f.Add(int64(7), int64(9), int64(9))    // empty (invalid) window
	f.Add(int64(131), int64(7), int64(13)) // the Theorem 8.1 grid seed
	f.Fuzz(func(t *testing.T, seed, begin, end int64) {
		g := qgen.New(seed)
		spec := g.GenDB()
		q := g.GenQuery()
		edb := spec.ToEngineDB()
		T := interval.Interval{Begin: begin, End: end}
		want, err := runAtRoot(edb, q, T)
		if err != nil {
			t.Skip() // invalid generated query: nothing to compare
		}
		got, err := rewrite.Run(edb, q, rewrite.Options{Mode: rewrite.ModeOptimized, Window: T})
		if err != nil {
			t.Fatalf("pushdown run failed where baseline succeeded: %v (%s)", err, q)
		}
		a, b := want.Clone(), got.Clone()
		a.Sort()
		b.Sort()
		if a.Len() != b.Len() {
			t.Fatalf("pushdown changed the result size for %s under %s: %d vs %d", q, T, a.Len(), b.Len())
		}
		for i := range a.Rows {
			if a.Rows[i].Key() != b.Rows[i].Key() {
				t.Fatalf("pushdown changed row %d for %s under %s", i, q, T)
			}
		}
	})
}
