// Package algebra defines the relational-algebra AST (RA_agg: RA+ plus
// difference and aggregation) shared by the abstract-model oracle, the
// logical-model evaluator, the SQL frontend, the rewriter and the engine.
// Query trees are built once and interpreted by each layer; scalar
// expressions compile against a schema into closures.
package algebra

import (
	"fmt"
	"math"

	"snapk/internal/tuple"
)

// Expr is a scalar expression over the columns of a single schema.
type Expr interface {
	exprNode()
	String() string
}

// ColRef references a column by name.
type ColRef struct{ Name string }

// Const is a literal value.
type Const struct{ Val tuple.Value }

// BinOpKind enumerates binary operators.
type BinOpKind int

// Binary operators: comparisons, boolean connectives, arithmetic.
const (
	OpEq BinOpKind = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
)

var binOpNames = map[BinOpKind]string{
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR", OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
}

// BinOp applies a binary operator to two sub-expressions.
type BinOp struct {
	Op   BinOpKind
	L, R Expr
}

// Not negates a boolean sub-expression.
type Not struct{ E Expr }

// IsNullExpr tests a sub-expression for NULL.
type IsNullExpr struct{ E Expr }

func (ColRef) exprNode()     {}
func (Const) exprNode()      {}
func (BinOp) exprNode()      {}
func (Not) exprNode()        {}
func (IsNullExpr) exprNode() {}

func (e ColRef) String() string { return e.Name }
func (e Const) String() string {
	if e.Val.Kind() == tuple.KindString {
		return "'" + e.Val.String() + "'"
	}
	return e.Val.String()
}
func (e BinOp) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, binOpNames[e.Op], e.R)
}
func (e Not) String() string        { return fmt.Sprintf("NOT (%s)", e.E) }
func (e IsNullExpr) String() string { return fmt.Sprintf("(%s IS NULL)", e.E) }

// Convenience constructors, used heavily by workload definitions.

// Col references column name.
func Col(name string) Expr { return ColRef{Name: name} }

// IntC returns an integer literal.
func IntC(v int64) Expr { return Const{Val: tuple.Int(v)} }

// FloatC returns a float literal.
func FloatC(v float64) Expr { return Const{Val: tuple.Float(v)} }

// StrC returns a string literal.
func StrC(v string) Expr { return Const{Val: tuple.String_(v)} }

// BoolC returns a boolean literal.
func BoolC(v bool) Expr { return Const{Val: tuple.Bool(v)} }

// NullC returns a NULL literal.
func NullC() Expr { return Const{Val: tuple.Null} }

// Eq returns l = r.
func Eq(l, r Expr) Expr { return BinOp{Op: OpEq, L: l, R: r} }

// Ne returns l <> r.
func Ne(l, r Expr) Expr { return BinOp{Op: OpNe, L: l, R: r} }

// Lt returns l < r.
func Lt(l, r Expr) Expr { return BinOp{Op: OpLt, L: l, R: r} }

// Le returns l <= r.
func Le(l, r Expr) Expr { return BinOp{Op: OpLe, L: l, R: r} }

// Gt returns l > r.
func Gt(l, r Expr) Expr { return BinOp{Op: OpGt, L: l, R: r} }

// Ge returns l >= r.
func Ge(l, r Expr) Expr { return BinOp{Op: OpGe, L: l, R: r} }

// And returns the conjunction of the given expressions (true if empty).
func And(es ...Expr) Expr {
	if len(es) == 0 {
		return BoolC(true)
	}
	out := es[0]
	for _, e := range es[1:] {
		out = BinOp{Op: OpAnd, L: out, R: e}
	}
	return out
}

// IsTrue reports whether e is the literal TRUE — the predicate of a
// comma join, which contributes nothing to a conjunction.
func IsTrue(e Expr) bool {
	c, ok := e.(Const)
	return ok && tuple.Equal(c.Val, tuple.Bool(true))
}

// Or returns the disjunction of the given expressions (false if empty).
func Or(es ...Expr) Expr {
	if len(es) == 0 {
		return BoolC(false)
	}
	out := es[0]
	for _, e := range es[1:] {
		out = BinOp{Op: OpOr, L: out, R: e}
	}
	return out
}

// Add returns l + r.
func Add(l, r Expr) Expr { return BinOp{Op: OpAdd, L: l, R: r} }

// Sub returns l - r.
func Sub(l, r Expr) Expr { return BinOp{Op: OpSub, L: l, R: r} }

// Mul returns l * r.
func Mul(l, r Expr) Expr { return BinOp{Op: OpMul, L: l, R: r} }

// Div returns l / r.
func Div(l, r Expr) Expr { return BinOp{Op: OpDiv, L: l, R: r} }

// Compiled is a scalar expression bound to a schema.
type Compiled func(tuple.Tuple) tuple.Value

// Compile binds e against schema s, resolving column references to
// positions. It returns an error for unknown columns.
func Compile(e Expr, s tuple.Schema) (Compiled, error) { return CompileAt(e, s, nil) }

// CompileAt binds e against schema s for rows that hold column i of s
// at position at[i] — rows a column-only projection was not copied
// through. A nil at reads column i at position i, as Compile does.
func CompileAt(e Expr, s tuple.Schema, at []int) (Compiled, error) {
	switch ex := e.(type) {
	case ColRef:
		i := s.Index(ex.Name)
		if i < 0 {
			return nil, fmt.Errorf("algebra: unknown column %q in schema %v", ex.Name, s.Cols)
		}
		if at != nil {
			i = at[i]
		}
		return func(t tuple.Tuple) tuple.Value { return t[i] }, nil
	case Const:
		v := ex.Val
		return func(tuple.Tuple) tuple.Value { return v }, nil
	case Not:
		sub, err := CompileAt(ex.E, s, at)
		if err != nil {
			return nil, err
		}
		return func(t tuple.Tuple) tuple.Value {
			v := sub(t)
			if v.IsNull() {
				return tuple.Null
			}
			return tuple.Bool(!v.AsBool())
		}, nil
	case IsNullExpr:
		sub, err := CompileAt(ex.E, s, at)
		if err != nil {
			return nil, err
		}
		return func(t tuple.Tuple) tuple.Value { return tuple.Bool(sub(t).IsNull()) }, nil
	case BinOp:
		l, err := CompileAt(ex.L, s, at)
		if err != nil {
			return nil, err
		}
		r, err := CompileAt(ex.R, s, at)
		if err != nil {
			return nil, err
		}
		return compileBinOp(ex.Op, l, r)
	default:
		return nil, fmt.Errorf("algebra: unknown expression %T", e)
	}
}

func compileBinOp(op BinOpKind, l, r Compiled) (Compiled, error) {
	switch op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return func(t tuple.Tuple) tuple.Value {
			lv, rv := l(t), r(t)
			if lv.IsNull() || rv.IsNull() {
				return tuple.Null // SQL: comparisons with NULL are unknown
			}
			c := tuple.Compare(lv, rv)
			switch op {
			case OpEq:
				return tuple.Bool(c == 0)
			case OpNe:
				return tuple.Bool(c != 0)
			case OpLt:
				return tuple.Bool(c < 0)
			case OpLe:
				return tuple.Bool(c <= 0)
			case OpGt:
				return tuple.Bool(c > 0)
			default:
				return tuple.Bool(c >= 0)
			}
		}, nil
	case OpAnd:
		return func(t tuple.Tuple) tuple.Value {
			lv, rv := l(t), r(t)
			// SQL three-valued AND.
			lt := boolState(lv)
			rt := boolState(rv)
			switch {
			case lt == tvFalse || rt == tvFalse:
				return tuple.Bool(false)
			case lt == tvTrue && rt == tvTrue:
				return tuple.Bool(true)
			default:
				return tuple.Null
			}
		}, nil
	case OpOr:
		return func(t tuple.Tuple) tuple.Value {
			lt := boolState(l(t))
			rt := boolState(r(t))
			switch {
			case lt == tvTrue || rt == tvTrue:
				return tuple.Bool(true)
			case lt == tvFalse && rt == tvFalse:
				return tuple.Bool(false)
			default:
				return tuple.Null
			}
		}, nil
	case OpAdd, OpSub, OpMul, OpDiv:
		return func(t tuple.Tuple) tuple.Value {
			lv, rv := l(t), r(t)
			if lv.IsNull() || rv.IsNull() {
				return tuple.Null
			}
			return arith(op, lv, rv)
		}, nil
	default:
		return nil, fmt.Errorf("algebra: unknown binary operator %d", op)
	}
}

type triBool int

const (
	tvUnknown triBool = iota
	tvFalse
	tvTrue
)

func boolState(v tuple.Value) triBool {
	if v.IsNull() {
		return tvUnknown
	}
	if v.AsBool() {
		return tvTrue
	}
	return tvFalse
}

// arith evaluates an arithmetic operator over two non-NULL numbers. A
// result with no value of its kind is NULL, as SQL's unknown: division
// by zero, a float result that overflowed to ±Inf or is NaN, and an Int
// +, − or × whose result does not fit in int64. Compiled has no error
// path, and the engine and both models evaluate through this function,
// so they agree on every such row.
func arith(op BinOpKind, l, r tuple.Value) tuple.Value {
	if l.Kind() == tuple.KindInt && r.Kind() == tuple.KindInt && op != OpDiv {
		a, b := l.AsInt(), r.AsInt()
		var c int64
		var overflow bool
		switch op {
		case OpAdd:
			c = a + b
			overflow = (a^c)&(b^c) < 0
		case OpSub:
			c = a - b
			overflow = (a^b)&(a^c) < 0
		default:
			c = a * b
			overflow = a != 0 && (c/a != b || (a == -1 && b == math.MinInt64))
		}
		if overflow {
			return tuple.Null
		}
		return tuple.Int(c)
	}
	a, b := l.AsFloat(), r.AsFloat()
	var f float64
	switch op {
	case OpAdd:
		f = a + b
	case OpSub:
		f = a - b
	case OpMul:
		f = a * b
	default:
		if b == 0 {
			return tuple.Null
		}
		f = a / b
	}
	// A non-finite result is NULL: tuple.Compare has no place for a NaN
	// among the numbers.
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return tuple.Null
	}
	return tuple.Float(f)
}

// Truthy evaluates a compiled predicate under SQL WHERE semantics:
// NULL (unknown) filters the row out.
func Truthy(v tuple.Value) bool { return !v.IsNull() && v.AsBool() }

// MustCompile is Compile for statically known-good expressions; it panics
// on error and is intended for tests and built-in workload definitions.
func MustCompile(e Expr, s tuple.Schema) Compiled {
	c, err := Compile(e, s)
	if err != nil {
		panic(err)
	}
	return c
}
