// Package tuple provides the typed values, tuples and relation schemas
// shared by every model layer (abstract, logical and implementation) of
// the snapshot-semantics framework.
package tuple

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The value kinds. Null is its own kind, mirroring SQL's untyped NULL.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "BIGINT"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "TEXT"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed scalar. The zero value is SQL NULL.
// Value is comparable, so tuples of values can be compared and hashed
// field-wise.
type Value struct {
	kind Kind
	i    int64 // ints and bools (0/1)
	f    float64
	s    string
}

// Null is the SQL NULL value.
var Null = Value{}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// String_ returns a string value. (Named with a trailing underscore to
// avoid colliding with the fmt.Stringer method on Value.)
func String_(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Kind returns the value's dynamic kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload; it panics on non-integers so type
// errors surface at the point of misuse rather than as corrupt data.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("tuple: AsInt on %s value", v.kind))
	}
	return v.i
}

// AsFloat returns the value as float64, converting integers.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindFloat:
		return v.f
	case KindInt:
		return float64(v.i)
	default:
		panic(fmt.Sprintf("tuple: AsFloat on %s value", v.kind))
	}
}

// AsString returns the string payload; it panics on non-strings.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("tuple: AsString on %s value", v.kind))
	}
	return v.s
}

// AsBool returns the boolean payload; it panics on non-booleans.
func (v Value) AsBool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("tuple: AsBool on %s value", v.kind))
	}
	return v.i != 0
}

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// Compare orders values: NULL sorts first; numeric kinds compare
// numerically across int/float; strings and bools compare within kind.
// Cross-kind non-numeric comparisons order by kind. It returns -1, 0, 1.
func Compare(a, b Value) int {
	an, bn := a.kind == KindInt || a.kind == KindFloat, b.kind == KindInt || b.kind == KindFloat
	switch {
	case a.kind == KindNull || b.kind == KindNull:
		return cmpInt(int64(boolToInt(a.kind != KindNull)), int64(boolToInt(b.kind != KindNull)))
	case an && bn:
		return compareNumeric(a, b)
	case a.kind != b.kind:
		return cmpInt(int64(a.kind), int64(b.kind))
	case a.kind == KindString:
		return strings.Compare(a.s, b.s)
	default: // bools
		return cmpInt(a.i, b.i)
	}
}

// compareNumeric orders two numeric values exactly: integers as
// integers, and an integer against a float without rounding the integer
// to float64 first — beyond 2⁵³ that conversion would call distinct
// numbers equal, while AppendKey (which hash joins and grouping use)
// keeps them apart.
func compareNumeric(a, b Value) int {
	switch {
	case a.kind == KindInt && b.kind == KindInt:
		return cmpInt(a.i, b.i)
	case a.kind == KindInt:
		return cmpIntFloat(a.i, b.f)
	case b.kind == KindInt:
		return -cmpIntFloat(b.i, a.f)
	case a.f < b.f:
		return -1
	case a.f > b.f:
		return 1
	default:
		return 0
	}
}

// two63 is 2⁶³ as a float64: the first float above every int64.
const two63 = 9223372036854775808.0

// cmpIntFloat compares i with f exactly. NaN compares equal to
// everything, as it does between two floats.
func cmpIntFloat(i int64, f float64) int {
	switch {
	case f != f:
		return 0
	case f >= two63:
		return -1
	case f < -two63:
		return 1
	}
	t := math.Trunc(f) // in int64 range, so the conversion is exact
	if c := cmpInt(i, int64(t)); c != 0 {
		return c
	}
	switch {
	case f > t:
		return -1
	case f < t:
		return 1
	default:
		return 0
	}
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Equal reports SQL-style equality used for grouping and joins: values are
// equal if Compare returns 0. Note that unlike SQL three-valued logic,
// NULLs group together (as in GROUP BY).
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Tuple is an ordered list of values, one per schema column.
type Tuple []Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// String renders the tuple as (v1, v2, ...).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Key returns a compact string key that is equal for exactly the tuples
// that are field-wise equal (under Equal). It is used to hash tuples in
// maps for K-relations, grouping and joins. Integers and floats that
// represent the same number produce the same key.
func (t Tuple) Key() string {
	return string(t.AppendKey(make([]byte, 0, len(t)*8), nil))
}

// AppendKey appends the canonical key encoding (see Key) of the columns
// at idx — all columns when idx is nil — to b and returns the extended
// slice. It is the allocation-free core of Key, for hot paths that hash
// many rows with a reusable scratch buffer (e.g. the parallel
// hash-partition exchange).
func (t Tuple) AppendKey(b []byte, idx []int) []byte {
	appendVal := func(v Value) {
		switch v.kind {
		case KindNull:
			b = append(b, 'n')
		case KindInt:
			b = append(b, 'i')
			b = strconv.AppendInt(b, v.i, 10)
		case KindFloat:
			// Encode every float that equals an int64 as that integer,
			// so Equal ⇒ same Key (−0.0 keys as 0).
			if f := v.f; f == math.Trunc(f) && f >= -two63 && f < two63 {
				b = append(b, 'i')
				b = strconv.AppendInt(b, int64(f), 10)
			} else {
				b = append(b, 'f')
				b = strconv.AppendFloat(b, v.f, 'g', -1, 64)
			}
		case KindString:
			b = append(b, 's')
			b = strconv.AppendInt(b, int64(len(v.s)), 10)
			b = append(b, ':')
			b = append(b, v.s...)
		case KindBool:
			b = append(b, 'b', byte('0'+v.i))
		}
		b = append(b, ';')
	}
	if idx == nil {
		for _, v := range t {
			appendVal(v)
		}
	} else {
		for _, j := range idx {
			appendVal(t[j])
		}
	}
	return b
}

// Project returns the sub-tuple at the given column indexes.
func (t Tuple) Project(idx []int) Tuple {
	out := make(Tuple, len(idx))
	for i, j := range idx {
		out[i] = t[j]
	}
	return out
}

// Concat returns the concatenation of two tuples.
func Concat(a, b Tuple) Tuple {
	out := make(Tuple, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}

// Schema names the columns of a relation.
type Schema struct {
	Cols []string
}

// NewSchema returns a schema with the given column names. It panics on
// duplicate names, which always indicate a query-construction bug.
func NewSchema(cols ...string) Schema {
	seen := make(map[string]struct{}, len(cols))
	for _, c := range cols {
		if _, dup := seen[c]; dup {
			panic(fmt.Sprintf("tuple: duplicate column %q", c))
		}
		seen[c] = struct{}{}
	}
	return Schema{Cols: cols}
}

// Arity returns the number of columns.
func (s Schema) Arity() int { return len(s.Cols) }

// Index returns the position of column name, or -1 if absent.
func (s Schema) Index(name string) int {
	for i, c := range s.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// MustIndex returns the position of column name and panics if absent.
func (s Schema) MustIndex(name string) int {
	i := s.Index(name)
	if i < 0 {
		panic(fmt.Sprintf("tuple: unknown column %q in schema %v", name, s.Cols))
	}
	return i
}

// Indexes maps column names to positions, panicking on unknown names.
func (s Schema) Indexes(names ...string) []int {
	out := make([]int, len(names))
	for i, n := range names {
		out[i] = s.MustIndex(n)
	}
	return out
}

// Equal reports whether both schemas have the same columns in order.
func (s Schema) Equal(other Schema) bool {
	if len(s.Cols) != len(other.Cols) {
		return false
	}
	for i := range s.Cols {
		if s.Cols[i] != other.Cols[i] {
			return false
		}
	}
	return true
}

// Concat returns the concatenation of two schemas, renaming collisions on
// the right side with the given prefix (e.g. "r.").
func (s Schema) Concat(other Schema, rightPrefix string) Schema {
	cols := make([]string, len(s.Cols), len(s.Cols)+len(other.Cols))
	copy(cols, s.Cols)
	// A linear scan, not a set: schemas are tens of columns wide and the
	// planner concatenates them per join, so the map would be most of
	// the cost.
	for _, c := range other.Cols {
		name := c
		if slices.Contains(cols, name) {
			name = rightPrefix + c
		}
		cols = append(cols, name)
	}
	return Schema{Cols: cols}
}

// String renders the schema as (a, b, c).
func (s Schema) String() string { return "(" + strings.Join(s.Cols, ", ") + ")" }
