package algebra

import (
	"math"
	"strings"
	"testing"

	"snapk/internal/krel"
	"snapk/internal/tuple"
)

var testSchema = tuple.NewSchema("a", "b", "s")

func evalOn(t *testing.T, e Expr, tup tuple.Tuple) tuple.Value {
	t.Helper()
	c, err := Compile(e, testSchema)
	if err != nil {
		t.Fatalf("Compile(%s): %v", e, err)
	}
	return c(tup)
}

func TestCompileColAndConst(t *testing.T) {
	tup := tuple.Tuple{tuple.Int(3), tuple.Int(7), tuple.String_("x")}
	if got := evalOn(t, Col("b"), tup); got.AsInt() != 7 {
		t.Errorf("Col = %v", got)
	}
	if got := evalOn(t, IntC(42), tup); got.AsInt() != 42 {
		t.Errorf("IntC = %v", got)
	}
	if got := evalOn(t, StrC("hi"), tup); got.AsString() != "hi" {
		t.Errorf("StrC = %v", got)
	}
	if got := evalOn(t, FloatC(1.5), tup); got.AsFloat() != 1.5 {
		t.Errorf("FloatC = %v", got)
	}
	if got := evalOn(t, BoolC(true), tup); !got.AsBool() {
		t.Errorf("BoolC = %v", got)
	}
	if got := evalOn(t, NullC(), tup); !got.IsNull() {
		t.Errorf("NullC = %v", got)
	}
}

func TestCompileUnknownColumn(t *testing.T) {
	if _, err := Compile(Col("zzz"), testSchema); err == nil {
		t.Fatal("expected error for unknown column")
	}
	if _, err := Compile(Eq(Col("zzz"), IntC(1)), testSchema); err == nil {
		t.Fatal("expected nested error for unknown column")
	}
}

func TestComparisons(t *testing.T) {
	tup := tuple.Tuple{tuple.Int(3), tuple.Int(7), tuple.String_("x")}
	cases := []struct {
		e    Expr
		want bool
	}{
		{Eq(Col("a"), IntC(3)), true},
		{Ne(Col("a"), IntC(3)), false},
		{Lt(Col("a"), Col("b")), true},
		{Le(Col("a"), IntC(3)), true},
		{Gt(Col("b"), IntC(10)), false},
		{Ge(Col("b"), IntC(7)), true},
		{Eq(Col("s"), StrC("x")), true},
	}
	for _, c := range cases {
		if got := evalOn(t, c.e, tup); got.AsBool() != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestNullComparisonIsUnknown(t *testing.T) {
	tup := tuple.Tuple{tuple.Null, tuple.Int(7), tuple.String_("x")}
	got := evalOn(t, Eq(Col("a"), IntC(3)), tup)
	if !got.IsNull() {
		t.Errorf("NULL = 3 should be NULL, got %v", got)
	}
	if Truthy(got) {
		t.Error("unknown must not be truthy")
	}
	if !Truthy(tuple.Bool(true)) || Truthy(tuple.Bool(false)) {
		t.Error("Truthy broken")
	}
}

func TestThreeValuedLogic(t *testing.T) {
	tup := tuple.Tuple{tuple.Null, tuple.Int(7), tuple.String_("x")}
	null := Eq(Col("a"), IntC(1)) // unknown
	// false AND unknown = false; true OR unknown = true.
	if got := evalOn(t, And(BoolC(false), null), tup); got.IsNull() || got.AsBool() {
		t.Errorf("false AND unknown = %v", got)
	}
	if got := evalOn(t, Or(BoolC(true), null), tup); got.IsNull() || !got.AsBool() {
		t.Errorf("true OR unknown = %v", got)
	}
	if got := evalOn(t, And(BoolC(true), null), tup); !got.IsNull() {
		t.Errorf("true AND unknown = %v", got)
	}
	if got := evalOn(t, Or(BoolC(false), null), tup); !got.IsNull() {
		t.Errorf("false OR unknown = %v", got)
	}
	if got := evalOn(t, Not{E: null}, tup); !got.IsNull() {
		t.Errorf("NOT unknown = %v", got)
	}
	if got := evalOn(t, Not{E: BoolC(true)}, tup); got.AsBool() {
		t.Errorf("NOT true = %v", got)
	}
	if got := evalOn(t, IsNullExpr{E: Col("a")}, tup); !got.AsBool() {
		t.Errorf("a IS NULL = %v", got)
	}
}

func TestArithmetic(t *testing.T) {
	tup := tuple.Tuple{tuple.Int(6), tuple.Int(4), tuple.String_("x")}
	if got := evalOn(t, Add(Col("a"), Col("b")), tup); got.AsInt() != 10 {
		t.Errorf("6+4 = %v", got)
	}
	if got := evalOn(t, Sub(Col("a"), Col("b")), tup); got.AsInt() != 2 {
		t.Errorf("6-4 = %v", got)
	}
	if got := evalOn(t, Mul(Col("a"), Col("b")), tup); got.AsInt() != 24 {
		t.Errorf("6*4 = %v", got)
	}
	if got := evalOn(t, Div(Col("a"), Col("b")), tup); got.AsFloat() != 1.5 {
		t.Errorf("6/4 = %v", got)
	}
	if got := evalOn(t, Div(Col("a"), IntC(0)), tup); !got.IsNull() {
		t.Errorf("6/0 = %v, want NULL", got)
	}
	if got := evalOn(t, Add(Col("a"), NullC()), tup); !got.IsNull() {
		t.Errorf("6+NULL = %v, want NULL", got)
	}
	if got := evalOn(t, Mul(FloatC(0.5), Col("a")), tup); got.AsFloat() != 3.0 {
		t.Errorf("0.5*6 = %v", got)
	}
}

// Float arithmetic whose result is not finite — an overflow to ±Inf,
// or Inf − Inf's NaN — yields NULL, as division by zero does.
func TestArithmeticNonFiniteIsNull(t *testing.T) {
	tup := tuple.Tuple{tuple.Float(1e308), tuple.Float(1e-308), tuple.String_("x")}
	inf := FloatC(math.Inf(1))
	for name, e := range map[string]Expr{
		"1e308+1e308":  Add(Col("a"), Col("a")),
		"-1e308-1e308": Sub(Mul(Col("a"), IntC(-1)), Col("a")),
		"1e308*10":     Mul(Col("a"), IntC(10)),
		"1e308/1e-308": Div(Col("a"), Col("b")),
		"Inf-Inf":      Sub(inf, inf),
		"0*Inf":        Mul(FloatC(0), inf),
	} {
		if got := evalOn(t, e, tup); !got.IsNull() {
			t.Errorf("%s = %v, want NULL", name, got)
		}
	}
	if got := evalOn(t, Mul(Col("a"), FloatC(0.5)), tup); got.AsFloat() != 5e307 {
		t.Errorf("1e308*0.5 = %v", got)
	}
}

// Int +, − and × whose result does not fit in int64 yield NULL, as
// division by zero does; the results next to the edges still fit.
func TestArithmeticIntOverflowIsNull(t *testing.T) {
	lo, hi := IntC(math.MinInt64), IntC(math.MaxInt64)
	for name, e := range map[string]Expr{
		"MaxInt64+1":      Add(hi, IntC(1)),
		"1+MaxInt64":      Add(IntC(1), hi),
		"MinInt64+-1":     Add(lo, IntC(-1)),
		"MinInt64-1":      Sub(lo, IntC(1)),
		"MaxInt64--1":     Sub(hi, IntC(-1)),
		"0-MinInt64":      Sub(IntC(0), lo),
		"MinInt64*-1":     Mul(lo, IntC(-1)),
		"-1*MinInt64":     Mul(IntC(-1), lo),
		"MaxInt64*2":      Mul(hi, IntC(2)),
		"MinInt64*2":      Mul(lo, IntC(2)),
		"MinInt64*MinInt": Mul(lo, lo),
	} {
		if got := evalOn(t, e, nil); !got.IsNull() {
			t.Errorf("%s = %v, want NULL", name, got)
		}
	}
	for name, c := range map[string]struct {
		e    Expr
		want int64
	}{
		"MaxInt64+0":   {Add(hi, IntC(0)), math.MaxInt64},
		"MaxInt64+-1":  {Add(hi, IntC(-1)), math.MaxInt64 - 1},
		"MinInt64+1":   {Add(lo, IntC(1)), math.MinInt64 + 1},
		"MinInt64-0":   {Sub(lo, IntC(0)), math.MinInt64},
		"-1-MaxInt64":  {Sub(IntC(-1), hi), math.MinInt64},
		"MaxInt64*-1":  {Mul(hi, IntC(-1)), -math.MaxInt64},
		"MinInt64*1":   {Mul(lo, IntC(1)), math.MinInt64},
		"0*MinInt64":   {Mul(IntC(0), lo), 0},
		"MinInt64*0":   {Mul(lo, IntC(0)), 0},
		"2^31*2^31":    {Mul(IntC(1<<31), IntC(1<<31)), 1 << 62},
		"-2^31*2^32":   {Mul(IntC(-1<<31), IntC(1<<32)), math.MinInt64},
		"3037000499^2": {Mul(IntC(3037000499), IntC(3037000499)), 3037000499 * 3037000499},
	} {
		if got := evalOn(t, c.e, nil); got.IsNull() || got.Kind() != tuple.KindInt || got.AsInt() != c.want {
			t.Errorf("%s = %v, want %d", name, got, c.want)
		}
	}
}

func TestAndOrEmpty(t *testing.T) {
	tup := tuple.Tuple{tuple.Int(1), tuple.Int(2), tuple.String_("x")}
	if got := evalOn(t, And(), tup); !got.AsBool() {
		t.Error("empty And should be true")
	}
	if got := evalOn(t, Or(), tup); got.AsBool() {
		t.Error("empty Or should be false")
	}
}

func TestExprString(t *testing.T) {
	e := And(Eq(Col("skill"), StrC("SP")), Gt(Col("a"), IntC(3)))
	s := e.String()
	if !strings.Contains(s, "skill = 'SP'") || !strings.Contains(s, "AND") {
		t.Errorf("String = %q", s)
	}
	if got := (Not{E: Col("a")}).String(); got != "NOT (a)" {
		t.Errorf("Not String = %q", got)
	}
	if got := (IsNullExpr{E: Col("a")}).String(); got != "(a IS NULL)" {
		t.Errorf("IsNull String = %q", got)
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCompile should panic on unknown column")
		}
	}()
	MustCompile(Col("nope"), testSchema)
}

var cat = MapCatalog{
	"works":  tuple.NewSchema("name", "skill"),
	"assign": tuple.NewSchema("mach", "skill"),
}

func TestOutSchemaRelSelectProject(t *testing.T) {
	s, err := OutSchema(Select{Pred: Eq(Col("skill"), StrC("SP")), In: Rel{Name: "works"}}, cat)
	if err != nil || !s.Equal(tuple.NewSchema("name", "skill")) {
		t.Fatalf("schema = %v, err %v", s, err)
	}
	p, err := OutSchema(ProjectCols(Rel{Name: "works"}, "skill"), cat)
	if err != nil || !p.Equal(tuple.NewSchema("skill")) {
		t.Fatalf("schema = %v, err %v", p, err)
	}
	if _, err := OutSchema(Rel{Name: "nope"}, cat); err == nil {
		t.Fatal("unknown relation must error")
	}
	if _, err := OutSchema(Select{Pred: Col("zzz"), In: Rel{Name: "works"}}, cat); err == nil {
		t.Fatal("bad predicate must error")
	}
}

func TestOutSchemaJoinRenamesCollisions(t *testing.T) {
	j := Join{L: Rel{Name: "works"}, R: Rel{Name: "assign"}, Pred: Eq(Col("skill"), Col("r.skill"))}
	s, err := OutSchema(j, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Equal(tuple.NewSchema("name", "skill", "mach", "r.skill")) {
		t.Fatalf("schema = %v", s)
	}
}

func TestOutSchemaUnionDiff(t *testing.T) {
	u := Union{L: ProjectCols(Rel{Name: "works"}, "skill"), R: ProjectCols(Rel{Name: "assign"}, "skill")}
	if _, err := OutSchema(u, cat); err != nil {
		t.Fatal(err)
	}
	bad := Diff{L: Rel{Name: "works"}, R: ProjectCols(Rel{Name: "assign"}, "skill")}
	if _, err := OutSchema(bad, cat); err == nil {
		t.Fatal("arity mismatch must error")
	}
}

func TestOutSchemaAgg(t *testing.T) {
	a := Agg{
		GroupBy: []string{"skill"},
		Aggs:    []AggSpec{{Fn: krel.CountStar, As: "cnt"}, {Fn: krel.Min, Arg: "name", As: "first"}},
		In:      Rel{Name: "works"},
	}
	s, err := OutSchema(a, cat)
	if err != nil || !s.Equal(tuple.NewSchema("skill", "cnt", "first")) {
		t.Fatalf("schema = %v, err %v", s, err)
	}
	bad := Agg{GroupBy: []string{"zzz"}, Aggs: []AggSpec{{Fn: krel.CountStar, As: "c"}}, In: Rel{Name: "works"}}
	if _, err := OutSchema(bad, cat); err == nil {
		t.Fatal("unknown group-by column must error")
	}
	bad2 := Agg{Aggs: []AggSpec{{Fn: krel.Sum, Arg: "zzz", As: "s"}}, In: Rel{Name: "works"}}
	if _, err := OutSchema(bad2, cat); err == nil {
		t.Fatal("unknown agg column must error")
	}
}

func TestQueryString(t *testing.T) {
	q := Agg{
		Aggs: []AggSpec{{Fn: krel.CountStar, As: "cnt"}},
		In:   Select{Pred: Eq(Col("skill"), StrC("SP")), In: Rel{Name: "works"}},
	}
	s := q.String()
	for _, frag := range []string{"γ", "count(*)→cnt", "σ", "works"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String %q missing %q", s, frag)
		}
	}
	j := Join{L: Rel{Name: "a"}, R: Rel{Name: "b"}, Pred: BoolC(true)}
	if !strings.Contains(j.String(), "⋈") {
		t.Errorf("Join String = %q", j.String())
	}
	u := Union{L: Rel{Name: "a"}, R: Rel{Name: "b"}}
	if u.String() != "(a ∪ b)" {
		t.Errorf("Union String = %q", u.String())
	}
	d := Diff{L: Rel{Name: "a"}, R: Rel{Name: "b"}}
	if d.String() != "(a − b)" {
		t.Errorf("Diff String = %q", d.String())
	}
	p := ProjectCols(Rel{Name: "a"}, "x")
	if !strings.Contains(p.String(), "Π") {
		t.Errorf("Project String = %q", p.String())
	}
}

func TestWalkAndBaseRelations(t *testing.T) {
	q := Diff{
		L: ProjectCols(Rel{Name: "assign"}, "skill"),
		R: Union{L: ProjectCols(Rel{Name: "works"}, "skill"), R: ProjectCols(Rel{Name: "works"}, "skill")},
	}
	names := BaseRelations(q)
	if len(names) != 2 || names[0] != "assign" || names[1] != "works" {
		t.Fatalf("BaseRelations = %v", names)
	}
	count := 0
	Walk(q, func(Query) { count++ })
	if count != 8 {
		t.Fatalf("Walk visited %d nodes, want 8", count)
	}
	// Agg node walk.
	count = 0
	Walk(Agg{Aggs: []AggSpec{{Fn: krel.CountStar, As: "c"}}, In: Rel{Name: "works"}}, func(Query) { count++ })
	if count != 2 {
		t.Fatalf("Agg walk visited %d", count)
	}
}
