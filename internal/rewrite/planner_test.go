package rewrite_test

// Tests for the phased planner: the windowed differential grid (every
// parallelism × sortedness × pushdown configuration must equal
// the clip-at-root oracle), the pushdown plan shapes, the
// knobs-off identity, and the recorded physical decisions.

import (
	"reflect"
	"strings"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/interval"
	"snapk/internal/qgen"
	"snapk/internal/rewrite"
)

// TestWindowGridEquivalence is the windowed extension of the Theorem 8.1
// grid: for random databases/queries and several windows, running with
// Options.Window set must equal clipping the unwindowed logical result —
// τ_T applied at the root is the semantics; every pushdown/physical
// configuration must reproduce it exactly. The grid is
// parallelism × sortedness (which picks the sweep form) × planner knobs.
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
	var opts []rewrite.Options
	for _, par := range []int{0, 2, 4} {
		for _, knobs := range []rewrite.PlannerKnobs{{}, rewrite.AllKnobs()} {
			opts = append(opts, rewrite.Options{Mode: rewrite.ModeOptimized, Parallelism: par, Planner: knobs})
		}
	}
	opts = append(opts,
		rewrite.Options{Mode: rewrite.ModeOptimized, Planner: rewrite.PlannerKnobs{Pushdown: true}},
		rewrite.Options{Mode: rewrite.ModeOptimized, Planner: rewrite.PlannerKnobs{Prune: true}, Parallelism: 2},
	)
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
				for _, opt := range opts {
					opt.Window = T
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
	on := rewrite.Options{Mode: rewrite.ModeOptimized, Window: T, Planner: rewrite.PlannerKnobs{Pushdown: true}}
	off := rewrite.Options{Mode: rewrite.ModeOptimized, Window: T}

	// Without the knob, the window clips once at the root.
	p, _ := planFor(t, db, algebra.Rel{Name: "works"}, off)
	w, ok := p.(engine.WindowP)
	if !ok {
		t.Fatalf("knob off: plan root is %T, want WindowP: %s", p, p)
	}
	if w.T != T {
		t.Fatalf("root window is %s, want %s", w.T, T)
	}

	// With it, the window passes through the final coalesce to the scan.
	p, _ = planFor(t, db, algebra.Rel{Name: "works"}, on)
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

// TestPlannerKnobsOffIdentity: with the zero PlannerKnobs and no window,
// PlanQuery must produce exactly the logical rewrite's plan — no window
// nodes, no build-side pins, no hints, no worker override.
func TestPlannerKnobsOffIdentity(t *testing.T) {
	db := exampleDB()
	join := algebra.Join{
		L:    algebra.Rel{Name: "works"},
		R:    algebra.Rel{Name: "assign"},
		Pred: algebra.Eq(algebra.Col("skill"), algebra.Col("r.skill")),
	}
	for _, q := range []algebra.Query{qOnduty(), qSkillreq(), join} {
		opt := rewrite.Options{Mode: rewrite.ModeOptimized, Parallelism: 4}
		base, err := rewrite.Rewrite(q, db, opt)
		if err != nil {
			t.Fatal(err)
		}
		p, dec := planFor(t, db, q, opt)
		// DeepEqual compares a string tuple.Value by the address of its
		// bytes, not its content. Both plans are built from the same
		// query object, so their string constants share their bytes and
		// the comparison still means plan equality.
		if !reflect.DeepEqual(p, base) {
			t.Fatalf("knobs-off plan differs from the logical rewrite:\n%s\nvs\n%s", p, base)
		}
		if countWindows(p) != 0 {
			t.Fatalf("no window requested but the plan has one:\n%s", p)
		}
		if dec.Workers != 0 || len(dec.Notes) != 0 {
			t.Fatalf("knobs-off planner recorded decisions: %+v", dec)
		}
	}
	// And the physical defaults really are the zero values.
	p, _ := planFor(t, db, join, rewrite.Options{Mode: rewrite.ModeOptimized})
	co := p.(engine.CoalesceP)
	jp := co.In.(engine.JoinP)
	if jp.Build != engine.BuildAuto || jp.BuildHint != 0 {
		t.Fatalf("knobs-off join carries physical annotations: %+v", jp)
	}
}

// TestPlannerDecisions pins the recorded physical choices on a windowed
// equi join: pruned scans, a pinned build side with a pre-sizing hint,
// and the adaptive worker narrowing — each with its explanatory note.
func TestPlannerDecisions(t *testing.T) {
	db := exampleDB()
	join := algebra.Join{
		L:    algebra.Rel{Name: "works"},
		R:    algebra.Rel{Name: "assign"},
		Pred: algebra.Eq(algebra.Col("skill"), algebra.Col("r.skill")),
	}
	opt := rewrite.Options{
		Mode:        rewrite.ModeOptimized,
		Window:      interval.New(4, 12),
		Planner:     rewrite.AllKnobs(),
		Parallelism: 4,
	}
	p, dec := planFor(t, db, join, opt)

	// assign (3 rows) is the smaller input: build=right, pre-sized.
	var jp engine.JoinP
	found := false
	var walk func(engine.Plan)
	walk = func(n engine.Plan) {
		switch v := n.(type) {
		case engine.CoalesceP:
			walk(v.In)
		case engine.WindowP:
			walk(v.In)
		case engine.JoinP:
			jp, found = v, true
		}
	}
	walk(p)
	if !found {
		t.Fatalf("no join in plan:\n%s", p)
	}
	if jp.Build != engine.BuildRightSide {
		t.Fatalf("build side = %d, want BuildRightSide (assign is smaller): %+v", jp.Build, jp)
	}
	if jp.BuildHint <= 0 {
		t.Fatalf("PreSize must set a positive build hint, got %d", jp.BuildHint)
	}

	// A handful of rows at Parallelism 4: the adaptive phase narrows to 1.
	if dec.Workers != 1 {
		t.Fatalf("adaptive workers = %d, want 1 for a tiny estimate", dec.Workers)
	}
	notes := strings.Join(dec.Notes, "\n")
	for _, want := range []string{"prune=works", "prune=assign", "build=right (est ", "presize=", "workers=1 (est "} {
		if !strings.Contains(notes, want) {
			t.Fatalf("decision notes lack %q:\n%s", want, notes)
		}
	}

	// The annotated plan still computes the right result.
	got, err := rewrite.Run(db, join, opt)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := rewrite.Run(db, join, rewrite.Options{Mode: rewrite.ModeOptimized, Window: opt.Window})
	if err != nil {
		t.Fatal(err)
	}
	if !engine.EqualAsPeriodRelations(got, plain, alg) {
		t.Fatal("physical annotations changed the join result")
	}
}

// TestAdaptiveWorkersRespectsRequest: the adaptive phase only narrows —
// a large estimate keeps the requested width, and without the knob no
// override is recorded.
func TestAdaptiveWorkersRespectsRequest(t *testing.T) {
	db := exampleDB()
	q := algebra.Rel{Name: "works"}
	_, dec := planFor(t, db, q, rewrite.Options{
		Mode: rewrite.ModeOptimized, Parallelism: 4,
		Planner: rewrite.PlannerKnobs{AdaptiveWorkers: true},
	})
	if dec.Workers != 1 {
		t.Fatalf("4-row query at par 4 must narrow to 1 worker, got %d", dec.Workers)
	}
	_, dec = planFor(t, db, q, rewrite.Options{
		Mode: rewrite.ModeOptimized, Parallelism: 4,
		Planner: rewrite.PlannerKnobs{Pushdown: true},
	})
	if dec.Workers != 0 {
		t.Fatalf("without the knob no worker override may be recorded, got %d", dec.Workers)
	}
	// Sequential requests are never touched.
	_, dec = planFor(t, db, q, rewrite.Options{
		Mode:    rewrite.ModeOptimized,
		Planner: rewrite.AllKnobs(),
	})
	if dec.Workers != 0 {
		t.Fatalf("sequential run must not get a worker override, got %d", dec.Workers)
	}
}

// FuzzWindowPushdown is the pushdown legality fuzz: for a generated
// database/query and an arbitrary window, the pushed plan must equal the
// clip-at-root baseline row-for-row. The seed corpus covers each
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
		base := rewrite.Options{Mode: rewrite.ModeOptimized, Window: T}
		pushed := base
		pushed.Planner = rewrite.PlannerKnobs{Pushdown: true}
		want, err := rewrite.Run(edb, q, base)
		if err != nil {
			t.Skip() // invalid generated query: nothing to compare
		}
		got, err := rewrite.Run(edb, q, pushed)
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
