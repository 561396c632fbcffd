package tuple

import (
	"bytes"
	"math"
	"runtime"
	"strconv"
	"testing"
	"testing/quick"
	"unsafe"
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

// TestValueIsTwoWords pins the representation's size: every row the
// engine builds carries this many bytes per column.
func TestValueIsTwoWords(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 16", got)
	}
}

// nanBits are NaNs with different payload bits, quiet and signalling,
// of both signs.
var nanBits = []uint64{0x7ff8000000000000, 0x7ff8000000000001, 0xfff8000000000000, 0x7ff0000000000001, 0xfff00000deadbeef}

// TestValueRoundTrip reads back every kind's payload and Kind, and pins
// its display form and key byte for byte: result digests and group,
// join and coalesce keys are built from them.
func TestValueRoundTrip(t *testing.T) {
	const base = "hello, world"
	type roundTrip struct {
		v        Value
		kind     Kind
		str, key string
		check    func(Value) bool // the payload reads back; nil for NULL
	}
	cases := []roundTrip{
		{Null, KindNull, "NULL", "n;", nil},
		{Int(0), KindInt, "0", "i0;", func(v Value) bool { return v.AsInt() == 0 }},
		{Int(math.MinInt64), KindInt, "-9223372036854775808", "i-9223372036854775808;", func(v Value) bool { return v.AsInt() == math.MinInt64 }},
		{Int(math.MaxInt64), KindInt, "9223372036854775807", "i9223372036854775807;", func(v Value) bool { return v.AsInt() == math.MaxInt64 }},
		{Int(1<<53 + 1), KindInt, "9007199254740993", "i9007199254740993;", func(v Value) bool { return v.AsInt() == 1<<53+1 }},
		{Float(0), KindFloat, "0", "i0;", func(v Value) bool { return math.Float64bits(v.AsFloat()) == 0 }},
		{Float(math.Copysign(0, -1)), KindFloat, "-0", "i0;", func(v Value) bool { return math.Signbit(v.AsFloat()) && v.AsFloat() == 0 }},
		{Float(2.5), KindFloat, "2.5", "f2.5;", func(v Value) bool { return v.AsFloat() == 2.5 }},
		{Float(1e15), KindFloat, "1e+15", "i1000000000000000;", func(v Value) bool { return v.AsFloat() == 1e15 }},
		{Float(math.Inf(1)), KindFloat, "+Inf", "f+Inf;", func(v Value) bool { return math.IsInf(v.AsFloat(), 1) }},
		{Float(math.Inf(-1)), KindFloat, "-Inf", "f-Inf;", func(v Value) bool { return math.IsInf(v.AsFloat(), -1) }},
		{String_(""), KindString, "", "s0:;", func(v Value) bool { return v.AsString() == "" }},
		{String_(base[4:4]), KindString, "", "s0:;", func(v Value) bool { return v.AsString() == "" }},
		{String_("a\x00b"), KindString, "a\x00b", "s3:a\x00b;", func(v Value) bool { return v.AsString() == "a\x00b" }},
		{String_("\x00"), KindString, "\x00", "s1:\x00;", func(v Value) bool { return v.AsString() == "\x00" }},
		{String_(base), KindString, base, "s12:" + base + ";", func(v Value) bool { return v.AsString() == base }},
		{String_(base[:5]), KindString, "hello", "s5:hello;", func(v Value) bool { return v.AsString() == "hello" }},
		{String_(base[:3]), KindString, "hel", "s3:hel;", func(v Value) bool { return v.AsString() == "hel" }},
		{String_(base[7:]), KindString, "world", "s5:world;", func(v Value) bool { return v.AsString() == "world" }},
		{Bool(true), KindBool, "true", "b1;", func(v Value) bool { return v.AsBool() }},
		{Bool(false), KindBool, "false", "b0;", func(v Value) bool { return !v.AsBool() }},
	}
	for _, bits := range nanBits {
		cases = append(cases, roundTrip{Float(math.Float64frombits(bits)), KindFloat, "NaN", "fNaN;", func(v Value) bool { return math.Float64bits(v.AsFloat()) == bits }})
	}
	for i, c := range cases {
		if got := c.v.Kind(); got != c.kind {
			t.Errorf("case %d (%q): Kind = %s, want %s", i, c.str, got, c.kind)
		}
		if got := c.v.IsNull(); got != (c.kind == KindNull) {
			t.Errorf("case %d (%q): IsNull = %v", i, c.str, got)
		}
		if got := c.v.String(); got != c.str {
			t.Errorf("case %d: String = %q, want %q", i, got, c.str)
		}
		if got := (Tuple{c.v}).Key(); got != c.key {
			t.Errorf("case %d (%q): Key = %q, want %q", i, c.str, got, c.key)
		}
		if c.check != nil && !c.check(c.v) {
			t.Errorf("case %d (%q): payload did not round-trip", i, c.str)
		}
		if !Equal(c.v, c.v) {
			t.Errorf("case %d (%q): not Equal to itself", i, c.str)
		}
		if !SameKey(c.v, c.v) {
			t.Errorf("case %d (%q): SameKey with itself is false", i, c.str)
		}
	}
}

// TestCompareStringsSharingBacking: values over one backing array
// compare by content and length, never by address.
func TestCompareStringsSharingBacking(t *testing.T) {
	base := "abcabc"
	copied := string([]byte(base[3:]))
	cases := []struct {
		a, b Value
		want int
	}{
		{String_(base[:3]), String_(base[3:]), 0},
		{String_(base[:3]), String_(copied), 0},
		{String_(base[:2]), String_(base[:3]), -1},
		{String_(base[1:3]), String_(base[:3]), 1},
		{String_(""), String_(base[:1]), -1},
		{String_(base[6:]), String_(""), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := SameKey(c.a, c.b); got != (c.want == 0) {
			t.Errorf("SameKey(%q, %q) = %v, want %v", c.a, c.b, got, c.want == 0)
		}
	}
}

// TestSameKeyMatchesAppendKey: SameKey, which the fused aggregation
// emission merges segments by and the snapdebug alias check compares
// by, agrees with AppendKey — the encoding Coalesce groups rows by — on
// every pair of values: ±0.0 (different bits, one key), NaNs with
// different payloads (one key), integers beyond 2⁵³ and strings that
// share a backing array.
func TestSameKeyMatchesAppendKey(t *testing.T) {
	const base = "33"
	values := []Value{
		Null, Int(0), Int(3), Int(-3), Int(1 << 62), Int(1<<53 + 1),
		Float(0), Float(math.Copysign(0, -1)), Float(3), Float(-3),
		Float(3.5), Float(1 << 62), Float(1 << 53), Float(0x1p63), Float(-0x1p63),
		Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.NaN()), Float(-math.NaN()),
		String_(base[:1]), String_(base[1:]), String_(base), String_(""), String_(base[2:]),
		Bool(true), Bool(false),
	}
	for _, bits := range nanBits {
		values = append(values, Float(math.Float64frombits(bits)))
	}
	for _, a := range values {
		for _, b := range values {
			want := Tuple{a}.Key() == Tuple{b}.Key()
			if got := SameKey(a, b); got != want {
				t.Errorf("SameKey(%v %s, %v %s) = %v, AppendKey says %v", a, a.Kind(), b, b.Kind(), got, want)
			}
		}
	}
}

// gcSink keeps allocations reachable so the collector cannot skip them.
var gcSink [][]byte

// TestValueStringsSurviveGC: a Value is the only reference to its
// string's bytes, and the collector must see it. Each string is built
// with string(buf) from one reused buffer, so nothing else points at
// its copy; after two collections with same-sized garbage allocated in
// between, a form that hid the pointer (a uintptr) would read back
// overwritten bytes.
func TestValueStringsSurviveGC(t *testing.T) {
	const n = 10_000
	vals := make([]Value, n)
	buf := make([]byte, 0, 32)
	for i := range vals {
		buf = strconv.AppendInt(append(buf[:0], "value-"...), int64(i), 10)
		vals[i] = String_(string(buf))
	}
	runtime.GC()
	for range 4 * n {
		gcSink = append(gcSink, bytes.Repeat([]byte{'#'}, 12))
	}
	runtime.GC()
	gcSink = nil
	for i, v := range vals {
		if want := "value-" + strconv.Itoa(i); v.AsString() != want {
			t.Fatalf("value %d reads back %q after GC, want %q", i, v.AsString(), want)
		}
	}
}

// hashKeyValues are the values TestHashKeyAgreesWithSameKey pairs up:
// the same set TestSameKeyMatchesAppendKey pins SameKey on, so every
// class of key equality that is not bit equality (±0.0, Int and
// integral Float, NaN payloads, strings sharing or not sharing a
// backing array) is covered.
func hashKeyValues() []Value {
	const base = "33"
	values := []Value{
		Null, Int(0), Int(3), Int(-3), Int(1 << 62), Int(1<<53 + 1), Int(math.MinInt64), Int(math.MaxInt64),
		Float(0), Float(math.Copysign(0, -1)), Float(3), Float(-3),
		Float(3.5), Float(1 << 62), Float(1 << 53), Float(0x1p63), Float(-0x1p63),
		Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.NaN()), Float(-math.NaN()),
		String_(base[:1]), String_(base[1:]), String_(base), String_(""), String_(base[2:]),
		String_(string([]byte{'3', '3'})), String_("3"),
		Bool(true), Bool(false), Int(1),
	}
	for _, bits := range nanBits {
		values = append(values, Float(math.Float64frombits(bits)))
	}
	return values
}

// TestHashKeyAgreesWithSameKey: SameKey ⇒ equal HashKey, on single
// values and on multi-column tuples read through idx — the contract the
// streaming sweeps' hashed group table relies on to find every
// value-equivalent group. Distinct keys hash apart here too: a 64-bit
// hash that collided on this handful of values would be degenerate.
func TestHashKeyAgreesWithSameKey(t *testing.T) {
	values := hashKeyValues()
	for _, a := range values {
		for _, b := range values {
			ha, hb := Tuple{a}.HashKey(nil), Tuple{b}.HashKey(nil)
			if same := SameKey(a, b); same != (ha == hb) {
				t.Errorf("SameKey(%v %s, %v %s) = %v, but hashes %#x and %#x", a, a.Kind(), b, b.Kind(), same, ha, hb)
			}
			// Two columns, read in a different physical order: the hash
			// covers the idx columns in idx order, and nothing else.
			ta := Tuple{a, b, String_("pad")}
			tb := Tuple{Int(99), b, a}
			if ta.HashKey([]int{0, 1}) != tb.HashKey([]int{2, 1}) {
				t.Errorf("HashKey over idx differs for (%v, %v)", a, b)
			}
			if ta.HashKey([]int{0, 1, 2}) != ta.HashKey(nil) {
				t.Errorf("HashKey(all idx) != HashKey(nil) for (%v, %v)", a, b)
			}
		}
	}
	if (Tuple{Int(1), Int(2)}).HashKey(nil) == (Tuple{Int(2), Int(1)}).HashKey(nil) {
		t.Error("HashKey ignores column order")
	}
}

// FuzzHashKey: for two fuzzed values (and the Int/Float twins of their
// numeric payloads), SameKey ⇒ equal HashKey, alone and as columns of
// two tuples that differ elsewhere.
func FuzzHashKey(f *testing.F) {
	f.Add(uint8(1), uint64(3), "", uint8(5), uint64(3), "")
	f.Add(uint8(2), math.Float64bits(math.Copysign(0, -1)), "", uint8(1), uint64(0), "")
	f.Add(uint8(2), uint64(0x7ff8000000000001), "", uint8(2), uint64(0xfff00000deadbeef), "")
	f.Add(uint8(3), uint64(0), "ab", uint8(3), uint64(0), "ab")
	f.Add(uint8(2), math.Float64bits(-0x1p63), "", uint8(1), uint64(1)<<63, "")
	f.Fuzz(func(t *testing.T, ka uint8, xa uint64, sa string, kb uint8, xb uint64, sb string) {
		value := func(k uint8, x uint64, s string) Value {
			switch k % 6 {
			case 0:
				return Null
			case 1:
				return Int(int64(x))
			case 2:
				return Float(math.Float64frombits(x))
			case 3:
				return String_(string([]byte(s))) // its own backing array
			case 4:
				return Bool(x&1 == 1)
			default:
				return Float(float64(int64(x))) // an integral float
			}
		}
		a, b := value(ka, xa, sa), value(kb, xb, sb)
		check := func(a, b Value) {
			if SameKey(a, b) && (Tuple{a}).HashKey(nil) != (Tuple{b}).HashKey(nil) {
				t.Fatalf("SameKey(%v %s, %v %s) but hashes differ", a, a.Kind(), b, b.Kind())
			}
			if SameKey(a, b) && (Tuple{a, Int(7), b}).HashKey([]int{0, 2}) != (Tuple{b, String_("x"), a}).HashKey([]int{2, 0}) {
				t.Fatalf("SameKey(%v, %v) but idx hashes differ", a, b)
			}
		}
		check(a, b)
		for _, v := range []Value{a, b} {
			switch v.Kind() {
			case KindInt:
				check(v, Float(float64(v.AsInt())))
			case KindFloat:
				if f := v.AsFloat(); f == math.Trunc(f) && f >= -two63 && f < two63 {
					check(v, Int(int64(f)))
				}
				check(v, Float(-v.AsFloat()))
			}
		}
	})
}
