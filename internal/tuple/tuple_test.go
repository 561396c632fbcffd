package tuple

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null.IsNull() || Null.Kind() != KindNull {
		t.Error("Null broken")
	}
	if Int(7).AsInt() != 7 || Int(7).Kind() != KindInt {
		t.Error("Int broken")
	}
	if Float(2.5).AsFloat() != 2.5 {
		t.Error("Float broken")
	}
	if String_("x").AsString() != "x" {
		t.Error("String_ broken")
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("Bool broken")
	}
	if Int(3).AsFloat() != 3.0 {
		t.Error("int→float widening broken")
	}
}

func TestAccessorPanics(t *testing.T) {
	cases := []func(){
		func() { Null.AsInt() },
		func() { String_("x").AsFloat() },
		func() { Int(1).AsString() },
		func() { Int(1).AsBool() },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"}, {Int(-4), "-4"}, {Float(1.5), "1.5"},
		{String_("hi"), "hi"}, {Bool(true), "true"}, {Bool(false), "false"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindInt.String() != "BIGINT" || KindNull.String() != "NULL" ||
		KindFloat.String() != "DOUBLE" || KindString.String() != "TEXT" || KindBool.String() != "BOOLEAN" {
		t.Error("Kind.String broken")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Error("unknown Kind.String broken")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Int(2), Float(2.0), 0},
		{Float(1.5), Int(2), -1},
		{Null, Int(0), -1},
		{Null, Null, 0},
		{Int(0), Null, 1},
		{String_("a"), String_("b"), -1},
		{Bool(false), Bool(true), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestCompareNumericIsExact: integers compare as integers and an
// integer against a float without rounding through float64, so beyond
// 2⁵³ distinct numbers stay distinct — as their keys are.
func TestCompareNumericIsExact(t *testing.T) {
	const two53 = int64(1) << 53
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(two53), Int(two53 + 1), -1},
		{Int(two53 + 1), Float(float64(two53)), 1},
		{Float(float64(two53)), Int(two53 + 1), -1},
		{Int(two53), Float(float64(two53)), 0},
		{Int(1e15), Float(1e15), 0},
		{Int(math.MaxInt64), Float(9223372036854775808.0), -1},
		{Int(math.MinInt64), Float(-9223372036854775808.0), 0},
		{Int(-3), Float(-3.5), 1},
		{Int(3), Float(3.5), -1},
		{Int(0), Float(math.Copysign(0, -1)), 0},
		{Int(5), Float(math.Inf(1)), -1},
		{Int(5), Float(math.Inf(-1)), 1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v %s, %v %s) = %d, want %d", c.a, c.a.Kind(), c.b, c.b.Kind(), got, c.want)
		}
		if sameKey := (Tuple{c.a}).Key() == (Tuple{c.b}).Key(); sameKey != (c.want == 0) {
			t.Errorf("%v %s / %v %s: same key = %v, Compare = %d", c.a, c.a.Kind(), c.b, c.b.Kind(), sameKey, c.want)
		}
	}
}

func TestEqualCrossNumeric(t *testing.T) {
	if !Equal(Int(2), Float(2.0)) {
		t.Error("2 should equal 2.0")
	}
	if Equal(Int(2), String_("2")) {
		t.Error("2 should not equal '2'")
	}
}

func TestTupleKeyEqualConsistency(t *testing.T) {
	a := Tuple{Int(2), String_("x"), Null}
	b := Tuple{Float(2.0), String_("x"), Null}
	if a.Key() != b.Key() {
		t.Errorf("keys differ for equal tuples: %q vs %q", a.Key(), b.Key())
	}
	c := Tuple{Int(2), String_("y"), Null}
	if a.Key() == c.Key() {
		t.Error("keys equal for different tuples")
	}
	// String length prefix prevents ambiguity between adjacent strings.
	d := Tuple{String_("ab"), String_("c")}
	e := Tuple{String_("a"), String_("bc")}
	if d.Key() == e.Key() {
		t.Error("string keys ambiguous")
	}
}

func TestTupleCloneProjectConcat(t *testing.T) {
	a := Tuple{Int(1), Int(2), Int(3)}
	cl := a.Clone()
	cl[0] = Int(9)
	if a[0].AsInt() != 1 {
		t.Error("Clone aliases original")
	}
	p := a.Project([]int{2, 0})
	if len(p) != 2 || p[0].AsInt() != 3 || p[1].AsInt() != 1 {
		t.Errorf("Project = %v", p)
	}
	c := Concat(Tuple{Int(1)}, Tuple{Int(2)})
	if len(c) != 2 || c[1].AsInt() != 2 {
		t.Errorf("Concat = %v", c)
	}
	if a.String() != "(1, 2, 3)" {
		t.Errorf("String = %q", a.String())
	}
}

func TestSchema(t *testing.T) {
	s := NewSchema("name", "skill", "period")
	if s.Arity() != 3 {
		t.Error("Arity broken")
	}
	if s.Index("skill") != 1 || s.Index("absent") != -1 {
		t.Error("Index broken")
	}
	if s.MustIndex("period") != 2 {
		t.Error("MustIndex broken")
	}
	idx := s.Indexes("period", "name")
	if idx[0] != 2 || idx[1] != 0 {
		t.Errorf("Indexes = %v", idx)
	}
	if !s.Equal(NewSchema("name", "skill", "period")) || s.Equal(NewSchema("name")) {
		t.Error("Equal broken")
	}
	if s.String() != "(name, skill, period)" {
		t.Errorf("String = %q", s.String())
	}
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate column")
		}
	}()
	NewSchema("a", "a")
}

func TestSchemaMustIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on unknown column")
		}
	}()
	NewSchema("a").MustIndex("b")
}

func TestSchemaConcatRenamesCollisions(t *testing.T) {
	l := NewSchema("id", "name")
	r := NewSchema("id", "dept")
	got := l.Concat(r, "r.")
	want := []string{"id", "name", "r.id", "dept"}
	for i := range want {
		if got.Cols[i] != want[i] {
			t.Fatalf("Concat = %v, want %v", got.Cols, want)
		}
	}
}

// Property: Key agrees with field-wise Equal on integer tuples.
func TestKeyEqualProperty(t *testing.T) {
	f := func(a, b []int8) bool {
		ta := make(Tuple, len(a))
		tb := make(Tuple, len(b))
		for i, v := range a {
			ta[i] = Int(int64(v))
		}
		for i, v := range b {
			tb[i] = Int(int64(v))
		}
		eq := len(a) == len(b)
		if eq {
			for i := range a {
				if a[i] != b[i] {
					eq = false
					break
				}
			}
		}
		return (ta.Key() == tb.Key()) == eq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
