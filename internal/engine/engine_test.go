package engine

import (
	"strings"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/semiring"
	"snapk/internal/telement"
	"snapk/internal/tuple"
)

var dom = interval.NewDomain(0, 24)
var alg = telement.NewMAlgebra[int64](semiring.N, dom)

func str(s string) tuple.Value { return tuple.String_(s) }

func worksTable() *Table {
	t := NewTable(tuple.NewSchema("name", "skill"))
	t.Append(tuple.Tuple{str("Ann"), str("SP")}, interval.New(3, 10), 1)
	t.Append(tuple.Tuple{str("Joe"), str("NS")}, interval.New(8, 16), 1)
	t.Append(tuple.Tuple{str("Sam"), str("SP")}, interval.New(8, 16), 1)
	t.Append(tuple.Tuple{str("Ann"), str("SP")}, interval.New(18, 20), 1)
	return t
}

func assignTable() *Table {
	t := NewTable(tuple.NewSchema("mach", "skill"))
	t.Append(tuple.Tuple{str("M1"), str("SP")}, interval.New(3, 12), 1)
	t.Append(tuple.Tuple{str("M2"), str("SP")}, interval.New(6, 14), 1)
	t.Append(tuple.Tuple{str("M3"), str("NS")}, interval.New(3, 16), 1)
	return t
}

func exampleDB() *DB {
	db := NewDB(dom)
	db.AddTable("works", worksTable())
	db.AddTable("assign", assignTable())
	return db
}

// mustMultiset collects (stringified row → count) for comparison.
func multiset(t *Table) map[string]int {
	m := map[string]int{}
	for _, r := range t.Rows {
		m[r.Key()]++
	}
	return m
}

func TestTableBasics(t *testing.T) {
	w := worksTable()
	if w.Len() != 4 {
		t.Fatalf("Len = %d", w.Len())
	}
	if w.DataArity() != 2 {
		t.Fatalf("DataArity = %d", w.DataArity())
	}
	if !w.DataSchema().Equal(tuple.NewSchema("name", "skill")) {
		t.Fatalf("DataSchema = %v", w.DataSchema())
	}
	if got := w.Interval(w.Rows[0]); got != interval.New(3, 10) {
		t.Fatalf("Interval = %v", got)
	}
	// Append with mult and invalid interval.
	w.Append(tuple.Tuple{str("X"), str("SP")}, interval.Interval{}, 5)
	if w.Len() != 4 {
		t.Error("invalid interval should not append")
	}
	w.Append(tuple.Tuple{str("X"), str("SP")}, interval.New(0, 1), 3)
	if w.Len() != 7 {
		t.Errorf("Len after mult append = %d", w.Len())
	}
	if !strings.Contains(w.String(), "_begin") {
		t.Error("String missing period columns")
	}
}

func TestPeriodEncRoundtrip(t *testing.T) {
	w := worksTable()
	rel := w.ToPeriodRelation(alg)
	if rel.Len() != 3 {
		t.Fatalf("decoded relation has %d tuples", rel.Len())
	}
	ann := rel.Annotation(tuple.Tuple{str("Ann"), str("SP")})
	if ann.NumSegs() != 2 {
		t.Fatalf("Ann annotation = %v", ann)
	}
	back := FromPeriodRelation(rel)
	if !EqualAsPeriodRelations(w, back, alg) {
		t.Fatal("PERIODENC roundtrip lost information")
	}
}

func TestFilter(t *testing.T) {
	got, err := Filter(worksTable(), algebra.Eq(algebra.Col("skill"), algebra.StrC("SP")))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Fatalf("filtered %d rows, want 3", got.Len())
	}
	if _, err := Filter(worksTable(), algebra.Col("zzz")); err == nil {
		t.Fatal("bad predicate must error")
	}
}

func TestProjectCarriesPeriods(t *testing.T) {
	got, err := Project(worksTable(), []algebra.NamedExpr{{Name: "skill", E: algebra.Col("skill")}})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Schema.Equal(tuple.NewSchema("skill", BeginCol, EndCol)) {
		t.Fatalf("schema = %v", got.Schema)
	}
	if got.Len() != 4 {
		t.Fatalf("Len = %d", got.Len())
	}
	if got.Interval(got.Rows[0]) != interval.New(3, 10) {
		t.Fatalf("period not carried: %v", got.Rows[0])
	}
	if _, err := Project(worksTable(), []algebra.NamedExpr{{Name: "x", E: algebra.Col("zzz")}}); err == nil {
		t.Fatal("bad projection must error")
	}
}

func TestUnionAll(t *testing.T) {
	l, _ := Project(worksTable(), []algebra.NamedExpr{{Name: "skill", E: algebra.Col("skill")}})
	r, _ := Project(assignTable(), []algebra.NamedExpr{{Name: "skill", E: algebra.Col("skill")}})
	u, err := UnionAll(l, r)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 7 {
		t.Fatalf("Len = %d", u.Len())
	}
	if _, err := UnionAll(worksTable(), r); err == nil {
		t.Fatal("incompatible union must error")
	}
}

func TestTemporalJoinHashPath(t *testing.T) {
	// works ⋈ assign on skill: equality extracted as hash key.
	got, err := TemporalJoin(worksTable(), assignTable(),
		algebra.Eq(algebra.Col("skill"), algebra.Col("r.skill")))
	if err != nil {
		t.Fatal(err)
	}
	if !got.DataSchema().Equal(tuple.NewSchema("name", "skill", "mach", "r.skill")) {
		t.Fatalf("schema = %v", got.Schema)
	}
	// Ann[3,10) × M1[3,12) → [3,10); Ann × M2[6,14) → [6,10); Sam[8,16) ×
	// M1 → [8,12); Sam × M2 → [8,14); Joe[8,16) × M3[3,16) → [8,16);
	// Ann[18,20) overlaps nothing.
	want := 5
	if got.Len() != want {
		t.Fatalf("join produced %d rows, want %d:\n%s", got.Len(), want, got)
	}
	rel := got.ToPeriodRelation(alg)
	ann := rel.Annotation(tuple.Tuple{str("Ann"), str("SP"), str("M1"), str("SP")})
	if ann.NumSegs() != 1 || ann.Segs()[0].Iv != interval.New(3, 10) {
		t.Fatalf("Ann×M1 = %v", ann)
	}
}

func TestTemporalJoinResidualPredicate(t *testing.T) {
	// Join with a non-equality residual: skill match AND mach <> 'M1'.
	got, err := TemporalJoin(worksTable(), assignTable(), algebra.And(
		algebra.Eq(algebra.Col("skill"), algebra.Col("r.skill")),
		algebra.Ne(algebra.Col("mach"), algebra.StrC("M1")),
	))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range got.Rows {
		if row[2].AsString() == "M1" {
			t.Fatalf("residual predicate not applied: %v", row)
		}
	}
	if got.Len() != 3 {
		t.Fatalf("join produced %d rows, want 3", got.Len())
	}
}

func TestTemporalJoinCrossProduct(t *testing.T) {
	// No equality conjunct: degenerate hash join on empty key must still
	// produce the overlap cross product.
	got, err := TemporalJoin(worksTable(), assignTable(), algebra.BoolC(true))
	if err != nil {
		t.Fatal(err)
	}
	// 3 works rows overlap all 3 assign rows; Ann[18,20) overlaps none.
	if got.Len() != 9 {
		t.Fatalf("cross join produced %d rows, want 9", got.Len())
	}
}

func TestSplitDef83(t *testing.T) {
	// Figure 3-style input: one tuple with overlapping periods.
	in := NewTable(tuple.NewSchema("sal"))
	in.Append(tuple.Tuple{tuple.Int(30)}, interval.New(3, 13), 1)
	in.Append(tuple.Tuple{tuple.Int(30)}, interval.New(3, 10), 1)
	got := Split(in, []int{0})
	// Endpoints {3, 10, 13} split [3,13) into [3,10), [10,13).
	m := multiset(got)
	wantRows := [][3]int64{{30, 3, 10}, {30, 3, 10}, {30, 10, 13}}
	if len(got.Rows) != 3 {
		t.Fatalf("split produced %d rows:\n%s", len(got.Rows), got)
	}
	for _, w := range wantRows {
		key := tuple.Tuple{tuple.Int(w[0]), tuple.Int(w[1]), tuple.Int(w[2])}.Key()
		if m[key] == 0 {
			t.Fatalf("missing split row %v:\n%s", w, got)
		}
	}
	// Pairs of intervals in one group are now equal or disjoint.
	for _, a := range got.Rows {
		for _, b := range got.Rows {
			ia, ib := got.Interval(a), got.Interval(b)
			if ia != ib && ia.Overlaps(ib) {
				t.Fatalf("split left overlapping distinct intervals %v, %v", ia, ib)
			}
		}
	}
}

func TestCoalesceExample53(t *testing.T) {
	// Figure 3 / Example 5.3: {[3,10), [3,13)} for value 30k coalesces to
	// [3,10)×2 and [10,13)×1.
	in := NewTable(tuple.NewSchema("sal"))
	in.Append(tuple.Tuple{tuple.Int(30)}, interval.New(3, 13), 1)
	in.Append(tuple.Tuple{tuple.Int(30)}, interval.New(3, 10), 1)
	got := Coalesce(in)
	m := multiset(got)
	if m[tuple.Tuple{tuple.Int(30), tuple.Int(3), tuple.Int(10)}.Key()] != 2 {
		t.Fatalf("missing [3,10)×2:\n%s", got)
	}
	if m[tuple.Tuple{tuple.Int(30), tuple.Int(10), tuple.Int(13)}.Key()] != 1 {
		t.Fatalf("missing [10,13)×1:\n%s", got)
	}
	if got.Len() != 3 {
		t.Fatalf("%d rows", got.Len())
	}
}

func TestCoalesceMergesAdjacentEqualMultiplicity(t *testing.T) {
	in := NewTable(tuple.NewSchema("x"))
	in.Append(tuple.Tuple{tuple.Int(1)}, interval.New(0, 5), 1)
	in.Append(tuple.Tuple{tuple.Int(1)}, interval.New(5, 9), 1)
	got := Coalesce(in)
	if got.Len() != 1 || got.Interval(got.Rows[0]) != interval.New(0, 9) {
		t.Fatalf("adjacent equal rows must merge:\n%s", got)
	}
	if !IsCoalesced(got) {
		t.Fatal("coalesced output not detected as coalesced")
	}
	if IsCoalesced(in) {
		t.Fatal("uncoalesced input detected as coalesced")
	}
}

func TestTemporalDiffFigure1c(t *testing.T) {
	l, _ := Project(assignTable(), []algebra.NamedExpr{{Name: "skill", E: algebra.Col("skill")}})
	r, _ := Project(worksTable(), []algebra.NamedExpr{{Name: "skill", E: algebra.Col("skill")}})
	d, err := TemporalDiff(l, r)
	if err != nil {
		t.Fatal(err)
	}
	rel := Coalesce(d).ToPeriodRelation(alg)
	sp := rel.Annotation(tuple.Tuple{str("SP")})
	wantSP := alg.Coalesce([]telement.Seg[int64]{
		{Iv: interval.New(6, 8), Val: 1}, {Iv: interval.New(10, 12), Val: 1},
	})
	if !sp.Equal(wantSP) {
		t.Fatalf("SP = %v, want %v", sp, wantSP)
	}
	ns := rel.Annotation(tuple.Tuple{str("NS")})
	wantNS := alg.Singleton(interval.New(3, 8), 1)
	if !ns.Equal(wantNS) {
		t.Fatalf("NS = %v, want %v", ns, wantNS)
	}
	if _, err := TemporalDiff(worksTable(), l); err == nil {
		t.Fatal("incompatible diff must error")
	}
}

func TestTemporalAggregateFigure1b(t *testing.T) {
	sp, _ := Filter(worksTable(), algebra.Eq(algebra.Col("skill"), algebra.StrC("SP")))
	for _, preAgg := range []bool{true, false} {
		got, err := TemporalAggregate(sp, nil, []algebra.AggSpec{{Fn: krel.CountStar, As: "cnt"}}, preAgg, dom)
		if err != nil {
			t.Fatal(err)
		}
		rel := Coalesce(got).ToPeriodRelation(alg)
		want := map[int64]telement.Element[int64]{
			0: alg.Coalesce([]telement.Seg[int64]{{Iv: interval.New(0, 3), Val: 1}, {Iv: interval.New(16, 18), Val: 1}, {Iv: interval.New(20, 24), Val: 1}}),
			1: alg.Coalesce([]telement.Seg[int64]{{Iv: interval.New(3, 8), Val: 1}, {Iv: interval.New(10, 16), Val: 1}, {Iv: interval.New(18, 20), Val: 1}}),
			2: alg.Singleton(interval.New(8, 10), 1),
		}
		if rel.Len() != len(want) {
			t.Fatalf("preAgg=%v: result has %d tuples: %v", preAgg, rel.Len(), rel)
		}
		for cnt, w := range want {
			gotAnn := rel.Annotation(tuple.Tuple{tuple.Int(cnt)})
			if !gotAnn.Equal(w) {
				t.Fatalf("preAgg=%v: cnt=%d annotation = %v, want %v", preAgg, cnt, gotAnn, w)
			}
		}
	}
}

func TestTemporalAggregateGrouped(t *testing.T) {
	for _, preAgg := range []bool{true, false} {
		got, err := TemporalAggregate(worksTable(), []string{"skill"},
			[]algebra.AggSpec{{Fn: krel.CountStar, As: "cnt"}}, preAgg, dom)
		if err != nil {
			t.Fatal(err)
		}
		rel := Coalesce(got).ToPeriodRelation(alg)
		// SP: 1 on [3,8), 2 on [8,10), 1 on [10,16), 1 on [18,20).
		sp1 := rel.Annotation(tuple.Tuple{str("SP"), tuple.Int(1)})
		wantSP1 := alg.Coalesce([]telement.Seg[int64]{
			{Iv: interval.New(3, 8), Val: 1}, {Iv: interval.New(10, 16), Val: 1}, {Iv: interval.New(18, 20), Val: 1},
		})
		if !sp1.Equal(wantSP1) {
			t.Fatalf("preAgg=%v: (SP,1) = %v, want %v", preAgg, sp1, wantSP1)
		}
		// No gap rows for groups: nothing outside the group's lifetime.
		for _, e := range rel.Entries() {
			if e.Tuple[1].Kind() == tuple.KindInt && e.Tuple[1].AsInt() == 0 {
				t.Fatalf("preAgg=%v: grouped aggregation must not emit count-0 rows: %v", preAgg, e)
			}
		}
	}
}

func TestTemporalAggregateMinMaxSumAvg(t *testing.T) {
	in := NewTable(tuple.NewSchema("g", "v"))
	in.Append(tuple.Tuple{str("a"), tuple.Int(10)}, interval.New(0, 10), 1)
	in.Append(tuple.Tuple{str("a"), tuple.Int(4)}, interval.New(5, 15), 1)
	for _, preAgg := range []bool{true, false} {
		got, err := TemporalAggregate(in, []string{"g"}, []algebra.AggSpec{
			{Fn: krel.Min, Arg: "v", As: "mn"},
			{Fn: krel.Max, Arg: "v", As: "mx"},
			{Fn: krel.Sum, Arg: "v", As: "sm"},
			{Fn: krel.Avg, Arg: "v", As: "av"},
			{Fn: krel.Count, Arg: "v", As: "ct"},
		}, preAgg, dom)
		if err != nil {
			t.Fatal(err)
		}
		rel := Coalesce(got).ToPeriodRelation(alg)
		check := func(iv interval.Interval, mn, mx, sm int64, av float64, ct int64) {
			t.Helper()
			row := tuple.Tuple{str("a"), tuple.Int(mn), tuple.Int(mx), tuple.Int(sm), tuple.Float(av), tuple.Int(ct)}
			ann := rel.Annotation(row)
			if !ann.Equal(alg.Singleton(iv, 1)) {
				t.Fatalf("preAgg=%v: %v expected on %v, got %v\nfull: %v", preAgg, row, iv, ann, rel)
			}
		}
		check(interval.New(0, 5), 10, 10, 10, 10, 1)
		check(interval.New(5, 10), 4, 10, 14, 7, 2)
		check(interval.New(10, 15), 4, 4, 4, 4, 1)
	}
}

func TestTemporalAggregateEmptyGlobal(t *testing.T) {
	in := NewTable(tuple.NewSchema("v"))
	for _, preAgg := range []bool{true, false} {
		got, err := TemporalAggregate(in, nil, []algebra.AggSpec{
			{Fn: krel.CountStar, As: "cnt"}, {Fn: krel.Sum, Arg: "v", As: "s"},
		}, preAgg, dom)
		if err != nil {
			t.Fatal(err)
		}
		c := Coalesce(got)
		if c.Len() != 1 {
			t.Fatalf("preAgg=%v: empty global agg = %d rows:\n%s", preAgg, c.Len(), c)
		}
		row := c.Rows[0]
		if row[0].AsInt() != 0 || !row[1].IsNull() {
			t.Fatalf("preAgg=%v: row = %v, want (0, NULL)", preAgg, row)
		}
		if c.Interval(row) != dom.All() {
			t.Fatalf("preAgg=%v: interval = %v", preAgg, c.Interval(row))
		}
	}
}

func TestTemporalAggregateErrors(t *testing.T) {
	in := NewTable(tuple.NewSchema("v"))
	if _, err := TemporalAggregate(in, []string{"zzz"}, []algebra.AggSpec{{Fn: krel.CountStar, As: "c"}}, true, dom); err == nil {
		t.Fatal("unknown group column must error")
	}
	if _, err := TemporalAggregate(in, nil, []algebra.AggSpec{{Fn: krel.Sum, Arg: "zzz", As: "s"}}, true, dom); err == nil {
		t.Fatal("unknown agg column must error")
	}
}

func TestDBExecPlan(t *testing.T) {
	db := exampleDB()
	plan := CoalesceP{In: AggP{
		Aggs:   []algebra.AggSpec{{Fn: krel.CountStar, As: "cnt"}},
		PreAgg: true,
		In:     FilterP{Pred: algebra.Eq(algebra.Col("skill"), algebra.StrC("SP")), In: ScanP{Name: "works"}},
	}}
	got, err := db.Exec(plan)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 7 {
		t.Fatalf("Qonduty result has %d rows, want 7 (Figure 1b):\n%s", got.Len(), got)
	}
	if !IsCoalesced(got) {
		t.Fatal("final result not coalesced")
	}
}

func TestDBExecAllNodes(t *testing.T) {
	db := exampleDB()
	plans := []Plan{
		ScanP{Name: "works"},
		ProjectP{Exprs: []algebra.NamedExpr{{Name: "skill", E: algebra.Col("skill")}}, In: ScanP{Name: "works"}},
		UnionP{
			L: ProjectP{Exprs: []algebra.NamedExpr{{Name: "skill", E: algebra.Col("skill")}}, In: ScanP{Name: "works"}},
			R: ProjectP{Exprs: []algebra.NamedExpr{{Name: "skill", E: algebra.Col("skill")}}, In: ScanP{Name: "assign"}},
		},
		DiffP{
			L: ProjectP{Exprs: []algebra.NamedExpr{{Name: "skill", E: algebra.Col("skill")}}, In: ScanP{Name: "assign"}},
			R: ProjectP{Exprs: []algebra.NamedExpr{{Name: "skill", E: algebra.Col("skill")}}, In: ScanP{Name: "works"}},
		},
		JoinP{L: ScanP{Name: "works"}, R: ScanP{Name: "assign"}, Pred: algebra.Eq(algebra.Col("skill"), algebra.Col("r.skill"))},
	}
	for _, p := range plans {
		if _, err := db.Exec(p); err != nil {
			t.Fatalf("Exec(%s): %v", p, err)
		}
	}
	if _, err := db.Exec(ScanP{Name: "nope"}); err == nil {
		t.Fatal("unknown table must error")
	}
	if _, err := db.RelationSchema("nope"); err == nil {
		t.Fatal("unknown schema must error")
	}
	if s, err := db.RelationSchema("works"); err != nil || !s.Equal(tuple.NewSchema("name", "skill")) {
		t.Fatalf("RelationSchema = %v, %v", s, err)
	}
}

func TestPlanStringAndCountCoalesce(t *testing.T) {
	p := CoalesceP{In: AggP{PreAgg: true, In: CoalesceP{In: FilterP{Pred: algebra.BoolC(true), In: ScanP{Name: "t"}}}}}
	if got := CountCoalesce(p); got != 2 {
		t.Fatalf("CountCoalesce = %d", got)
	}
	s := p.String()
	for _, frag := range []string{"Coalesce", "TAgg", "preagg", "Filter", "t"} {
		if !strings.Contains(s, frag) {
			t.Errorf("plan String %q missing %q", s, frag)
		}
	}
	j := JoinP{L: ScanP{Name: "a"}, R: ScanP{Name: "b"}, Pred: algebra.BoolC(true)}
	if CountCoalesce(UnionP{L: j, R: DiffP{L: ScanP{Name: "a"}, R: ScanP{Name: "b"}}}) != 0 {
		t.Error("CountCoalesce over join/union/diff broken")
	}
	if !strings.Contains(ProjectP{Exprs: []algebra.NamedExpr{{Name: "x", E: algebra.Col("x")}}, In: ScanP{Name: "t"}}.String(), "Project") {
		t.Error("ProjectP String broken")
	}
	if !strings.Contains(AggP{In: ScanP{Name: "t"}}.String(), "naive") {
		t.Error("AggP naive String broken")
	}
}

// TestCoalescedPlanRules pins which plan shapes Coalesced vouches for;
// the rewrite package's qgen grid checks the claim against execution.
func TestCoalescedPlanRules(t *testing.T) {
	scan := ScanP{Name: "t"}
	// agg outputs the data columns (g, cnt).
	agg := AggP{GroupBy: []string{"g"}, Aggs: []algebra.AggSpec{{Fn: krel.CountStar, As: "cnt"}}, PreAgg: true, In: scan}
	col := algebra.Col
	project := func(in Plan, exprs ...algebra.NamedExpr) ProjectP { return ProjectP{Exprs: exprs, In: in} }
	diff := DiffP{L: project(scan, algebra.NamedExpr{Name: "a", E: col("a")}), R: scan}
	for _, c := range []struct {
		name string
		p    Plan
		want bool
	}{
		{"coalesce", CoalesceP{In: scan}, true},
		{"diff", DiffP{L: scan, R: scan}, true},
		{"pre-agg", agg, true},
		{"naive agg", AggP{GroupBy: agg.GroupBy, Aggs: agg.Aggs, In: scan}, false},
		{"filter over agg", FilterP{Pred: algebra.BoolC(true), In: agg}, true},
		{"window over diff", WindowP{T: interval.New(2, 4), In: diff}, true},
		{"renaming over agg", project(agg, algebra.NamedExpr{Name: "x", E: col("cnt")}, algebra.NamedExpr{Name: "y", E: col("g")}), true},
		{"renaming over diff", project(diff, algebra.NamedExpr{Name: "b", E: col("a")}), true},
		{"dropping a column", project(agg, algebra.NamedExpr{Name: "cnt", E: col("cnt")}), false},
		{"repeating a column", project(agg, algebra.NamedExpr{Name: "x", E: col("g")}, algebra.NamedExpr{Name: "y", E: col("g")}), false},
		{"computed column", project(agg, algebra.NamedExpr{Name: "g", E: col("g")}, algebra.NamedExpr{Name: "c", E: algebra.Add(col("cnt"), algebra.IntC(1))}), false},
		{"period column", project(agg, algebra.NamedExpr{Name: "g", E: col("g")}, algebra.NamedExpr{Name: "b", E: col(BeginCol)}), false},
		{"renaming over unknown columns", project(DiffP{L: scan, R: scan}, algebra.NamedExpr{Name: "a", E: col("a")}), false},
		{"scan", scan, false},
		{"join", JoinP{L: agg, R: agg, Pred: algebra.BoolC(true)}, false},
		{"union", UnionP{L: agg, R: agg}, false},
	} {
		if got := Coalesced(c.p); got != c.want {
			t.Errorf("%s: Coalesced(%s) = %v, want %v", c.name, c.p, got, c.want)
		}
	}
}
