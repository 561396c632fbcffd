// Package tuple provides the typed values, tuples and relation schemas
// shared by every model layer (abstract, logical and implementation) of
// the snapshot-semantics framework.
package tuple

import (
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"strconv"
	"strings"
	"unsafe"
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

// Value is a dynamically typed scalar in two words. The zero value is
// SQL NULL.
//
// The encoding: p == nil is NULL; p == &kindTag[k] marks an Int, Float
// or Bool with its payload in x (the integer's bits, math.Float64bits,
// or 0/1), and the empty string; any other p is the data of a non-empty
// string of length x. The string is held through p, so the collector
// keeps its bytes alive.
//
// Value is not comparable: == on this form would compare string
// addresses, not contents, and Float payloads bit-wise (0.0 ≠ −0.0).
// Compare values with Compare or Equal, and by key with SameKey.
type Value struct {
	_ [0]func() // makes == a compile error
	p unsafe.Pointer
	x uint64
}

// kindTag gives each non-string kind (and the empty string) an address
// that no string's data can have.
var kindTag [5]byte

// tag returns the p of a tagged value of kind k.
func tag(k Kind) unsafe.Pointer { return unsafe.Pointer(&kindTag[k]) }

// Null is the SQL NULL value.
var Null = Value{}

// Int returns an integer value.
func Int(v int64) Value { return Value{p: tag(KindInt), x: uint64(v)} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{p: tag(KindFloat), x: math.Float64bits(v)} }

// String_ returns a string value. (Named with a trailing underscore to
// avoid colliding with the fmt.Stringer method on Value.)
func String_(v string) Value {
	if len(v) == 0 {
		return Value{p: tag(KindString)}
	}
	return Value{p: unsafe.Pointer(unsafe.StringData(v)), x: uint64(len(v))}
}

// Bool returns a boolean value.
func Bool(v bool) Value {
	var x uint64
	if v {
		x = 1
	}
	return Value{p: tag(KindBool), x: x}
}

// Kind returns the value's dynamic kind.
func (v Value) Kind() Kind {
	if v.p == nil {
		return KindNull
	}
	if d := uintptr(v.p) - uintptr(tag(0)); d < uintptr(len(kindTag)) {
		return Kind(d)
	}
	return KindString
}

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.p == nil }

// float and str decode the payload of a value already known to be a
// Float or a String. The empty string reads back from its tag with
// length 0.
func (v Value) float() float64 { return math.Float64frombits(v.x) }

func (v Value) str() string { return unsafe.String((*byte)(v.p), int(v.x)) }

// AsInt returns the integer payload; it panics on non-integers so type
// errors surface at the point of misuse rather than as corrupt data.
func (v Value) AsInt() int64 {
	if v.p != tag(KindInt) {
		panic(misuse{"AsInt", v})
	}
	return int64(v.x)
}

// AsFloat returns the value as float64, converting integers.
func (v Value) AsFloat() float64 {
	switch v.p {
	case tag(KindFloat):
		return v.float()
	case tag(KindInt):
		return float64(int64(v.x))
	default:
		panic(misuse{"AsFloat", v})
	}
}

// AsString returns the string payload; it panics on non-strings.
func (v Value) AsString() string {
	if v.Kind() != KindString {
		panic(misuse{"AsString", v})
	}
	return v.str()
}

// AsBool returns the boolean payload; it panics on non-booleans.
func (v Value) AsBool() bool {
	if v.p != tag(KindBool) {
		panic(misuse{"AsBool", v})
	}
	return v.x != 0
}

// misuse is the panic value of an accessor applied to a value of the
// wrong kind. Its message is built only when printed, which keeps the
// accessors inlinable.
type misuse struct {
	accessor string
	v        Value
}

func (m misuse) Error() string {
	return fmt.Sprintf("tuple: %s on %s value", m.accessor, m.v.Kind())
}

// String renders the value for display.
func (v Value) String() string {
	switch v.Kind() {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(int64(v.x), 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindString:
		return v.str()
	case KindBool:
		if v.x != 0 {
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
	ak, bk := a.Kind(), b.Kind()
	an, bn := ak == KindInt || ak == KindFloat, bk == KindInt || bk == KindFloat
	switch {
	case ak == KindNull || bk == KindNull:
		return cmpInt(int64(boolToInt(ak != KindNull)), int64(boolToInt(bk != KindNull)))
	case an && bn:
		return compareNumeric(a, b, ak, bk)
	case ak != bk:
		return cmpInt(int64(ak), int64(bk))
	case ak == KindString:
		return strings.Compare(a.str(), b.str())
	default: // bools
		return cmpInt(int64(a.x), int64(b.x))
	}
}

// compareNumeric orders two numeric values of kinds ak and bk exactly:
// integers as integers, and an integer against a float without rounding
// the integer to float64 first — beyond 2⁵³ that conversion would call
// distinct numbers equal, while AppendKey (which hash joins and
// grouping use) keeps them apart.
func compareNumeric(a, b Value, ak, bk Kind) int {
	switch {
	case ak == KindInt && bk == KindInt:
		return cmpInt(int64(a.x), int64(b.x))
	case ak == KindInt:
		return cmpIntFloat(int64(a.x), b.float())
	case bk == KindInt:
		return -cmpIntFloat(int64(b.x), a.float())
	}
	switch af, bf := a.float(), b.float(); {
	case af < bf:
		return -1
	case af > bf:
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
		switch v.p {
		case nil:
			b = append(b, 'n')
		case tag(KindInt):
			b = append(b, 'i')
			b = strconv.AppendInt(b, int64(v.x), 10)
		case tag(KindFloat):
			// Encode every float that equals an int64 as that integer,
			// so Equal ⇒ same Key (−0.0 keys as 0).
			if f := v.float(); isInt64(f) {
				b = append(b, 'i')
				b = strconv.AppendInt(b, int64(f), 10)
			} else {
				b = append(b, 'f')
				b = strconv.AppendFloat(b, f, 'g', -1, 64)
			}
		case tag(KindBool):
			b = append(b, 'b', byte('0'+v.x))
		default: // strings, the empty one included
			b = append(b, 's')
			b = strconv.AppendInt(b, int64(v.x), 10)
			b = append(b, ':')
			b = append(b, v.str()...)
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

// isInt64 reports whether f is an integer in int64 range — the floats
// AppendKey spells as integers.
func isInt64(f float64) bool { return f == math.Trunc(f) && f >= -two63 && f < two63 }

// SameKey reports whether AppendKey encodes a and b alike — the value
// equality Coalesce groups by — without encoding either. It is not
// Equal: Compare calls NaN equal to every number, while the key
// separates NaN from numbers and spells every NaN the same.
func SameKey(a, b Value) bool {
	if a.p == b.p && a.x == b.x {
		return true // one kind and payload, or one string's bytes
	}
	switch ak, bk := a.Kind(), b.Kind(); {
	case ak == KindFloat && bk == KindFloat:
		af, bf := a.float(), b.float()
		return af == bf || math.IsNaN(af) && math.IsNaN(bf) // 0.0 == −0.0, both keyed 0
	case ak == KindInt && bk == KindFloat:
		return floatKeysAsInt(b.float(), int64(a.x))
	case ak == KindFloat && bk == KindInt:
		return floatKeysAsInt(a.float(), int64(b.x))
	case ak == KindString && bk == KindString:
		return a.x == b.x && a.str() == b.str()
	}
	return false
}

// floatKeysAsInt reports whether AppendKey spells f as the integer i.
func floatKeysAsInt(f float64, i int64) bool { return isInt64(f) && int64(f) == i }

// hashSeed keys the string hashing of HashKey. It is drawn per process,
// so hash values differ between runs and nothing may depend on them
// beyond equality within one run.
var hashSeed = maphash.MakeSeed()

// HashKey returns a 64-bit hash of the columns at idx (all columns when
// idx is nil) that agrees with SameKey: tuples whose columns are
// pairwise SameKey hash alike, so a hash table keyed by it finds every
// value-equivalent group and needs SameKey only to tell colliding keys
// apart. An Int and an integral Float hash alike, −0.0 hashes as 0, all
// NaNs hash alike, and strings hash by their bytes.
func (t Tuple) HashKey(idx []int) uint64 {
	var h uint64
	if idx == nil {
		for _, v := range t {
			h = mix64(h ^ v.keyHash())
		}
	} else {
		for _, j := range idx {
			h = mix64(h ^ t[j].keyHash())
		}
	}
	return h
}

// keyHash is the unmixed hash of one value under SameKey. Each kind
// adds its own constant, so equal payloads of different kinds (Int 1,
// Bool true) do not collide by construction.
func (v Value) keyHash() uint64 {
	switch v.p {
	case nil:
		return 0x5bd1e9955bd1e995
	case tag(KindInt):
		return v.x + 0x9e3779b97f4a7c15
	case tag(KindFloat):
		switch f := v.float(); {
		case isInt64(f):
			return uint64(int64(f)) + 0x9e3779b97f4a7c15 // as the Int it keys as
		case f != f:
			return 0x7ff8000000000001 // every NaN
		default:
			return v.x + 0xc2b2ae3d27d4eb4f
		}
	case tag(KindBool):
		return v.x + 0x165667b19e3779f9
	default: // strings, the empty one included
		return maphash.String(hashSeed, v.str())
	}
}

// mix64 is the splitmix64 finalizer: every input bit affects every
// output bit, so HashKey's per-column fold stays order-sensitive.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
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
