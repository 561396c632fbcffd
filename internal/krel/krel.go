// Package krel implements K-relations (Green et al., PODS 2007): relations
// whose tuples are annotated with elements of a commutative semiring K,
// with the positive relational algebra of Def 4.1, monus-based difference
// (Section 7.1) and multiset aggregation. K-relations over ℕ are bags,
// over 𝔹 sets; this package is the per-snapshot query engine used by the
// abstract model oracle in package snapshot.
package krel

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"snapk/internal/semiring"
	"snapk/internal/tuple"
)

// Entry is one (tuple, annotation) pair of a K-relation.
type Entry[K comparable] struct {
	Tuple tuple.Tuple
	Ann   K
}

// Relation is a finite-support K-relation: a total map from tuples to K
// where all but finitely many tuples are annotated 0K. Tuples annotated
// 0K are not stored.
type Relation[K comparable] struct {
	sr     semiring.Semiring[K]
	schema tuple.Schema
	ann    map[string]Entry[K]
}

// New returns an empty K-relation with the given schema.
func New[K comparable](sr semiring.Semiring[K], schema tuple.Schema) *Relation[K] {
	return &Relation[K]{sr: sr, schema: schema, ann: make(map[string]Entry[K])}
}

// Semiring returns the annotation semiring.
func (r *Relation[K]) Semiring() semiring.Semiring[K] { return r.sr }

// Schema returns the relation schema.
func (r *Relation[K]) Schema() tuple.Schema { return r.schema }

// Len returns the number of distinct tuples with non-zero annotation.
func (r *Relation[K]) Len() int { return len(r.ann) }

// Annotation returns R(t); tuples not in the support map to 0K.
func (r *Relation[K]) Annotation(t tuple.Tuple) K {
	if e, ok := r.ann[t.Key()]; ok {
		return e.Ann
	}
	return r.sr.Zero()
}

// Set overwrites the annotation of t, removing it when k = 0K.
func (r *Relation[K]) Set(t tuple.Tuple, k K) {
	key := t.Key()
	if k == r.sr.Zero() {
		delete(r.ann, key)
		return
	}
	r.ann[key] = Entry[K]{Tuple: t, Ann: k}
}

// Add merges k into the annotation of t with +K. This implements the
// summation over equal tuples in projection and union.
func (r *Relation[K]) Add(t tuple.Tuple, k K) {
	if k == r.sr.Zero() {
		return
	}
	key := t.Key()
	if e, ok := r.ann[key]; ok {
		r.Set(t, r.sr.Plus(e.Ann, k))
		return
	}
	r.ann[key] = Entry[K]{Tuple: t, Ann: k}
}

// Entries returns the support as a deterministic, key-sorted slice.
func (r *Relation[K]) Entries() []Entry[K] {
	keys := make([]string, 0, len(r.ann))
	for k := range r.ann {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Entry[K], len(keys))
	for i, k := range keys {
		out[i] = r.ann[k]
	}
	return out
}

// Equal reports whether both relations have the same schema and annotate
// every tuple identically.
func (r *Relation[K]) Equal(other *Relation[K]) bool {
	if !r.schema.Equal(other.schema) || len(r.ann) != len(other.ann) {
		return false
	}
	for key, e := range r.ann {
		oe, ok := other.ann[key]
		if !ok || oe.Ann != e.Ann {
			return false
		}
	}
	return true
}

// String renders the relation, one "tuple -> annotation" line per tuple.
func (r *Relation[K]) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s%v {\n", r.sr.Name(), r.schema)
	for _, e := range r.Entries() {
		fmt.Fprintf(&b, "  %v -> %v\n", e.Tuple, e.Ann)
	}
	b.WriteString("}")
	return b.String()
}

// ---------------------------------------------------------------------------
// RA+ (Def 4.1).

// Select returns σ_θ(R): each tuple keeps its annotation if it satisfies
// the predicate (θ(t) = 1K) and is dropped otherwise (θ(t) = 0K).
func Select[K comparable](r *Relation[K], pred func(tuple.Tuple) bool) *Relation[K] {
	out := New(r.sr, r.schema)
	for _, e := range r.ann {
		if pred(e.Tuple) {
			out.Set(e.Tuple, e.Ann)
		}
	}
	return out
}

// Project returns Π_A(R) under schema out: annotations of input tuples
// mapping to the same output tuple are summed with +K.
func Project[K comparable](r *Relation[K], out tuple.Schema, proj func(tuple.Tuple) tuple.Tuple) *Relation[K] {
	res := New(r.sr, out)
	for _, e := range r.ann {
		res.Add(proj(e.Tuple), e.Ann)
	}
	return res
}

// Join returns R ⋈_θ S under schema out: for every pair of input tuples
// satisfying the condition over the concatenated tuple, the output tuple
// is annotated with the ·K-product of the input annotations.
func Join[K comparable](r, s *Relation[K], out tuple.Schema, cond func(tuple.Tuple) bool) *Relation[K] {
	res := New(r.sr, out)
	for _, re := range r.ann {
		for _, se := range s.ann {
			t := tuple.Concat(re.Tuple, se.Tuple)
			if cond(t) {
				res.Add(t, r.sr.Times(re.Ann, se.Ann))
			}
		}
	}
	return res
}

// Union returns R ∪ S (union-compatible inputs): annotations of equal
// tuples are summed with +K, i.e. UNION ALL for ℕ.
func Union[K comparable](r, s *Relation[K]) *Relation[K] {
	res := New(r.sr, r.schema)
	for _, e := range r.ann {
		res.Add(e.Tuple, e.Ann)
	}
	for _, e := range s.ann {
		res.Add(e.Tuple, e.Ann)
	}
	return res
}

// Diff returns R − S using the monus of the m-semiring (Section 7.1):
// EXCEPT ALL for ℕ, set difference for 𝔹.
func Diff[K comparable](sr semiring.MSemiring[K], r, s *Relation[K]) *Relation[K] {
	res := New(r.sr, r.schema)
	for _, e := range r.ann {
		res.Set(e.Tuple, sr.Monus(e.Ann, s.Annotation(e.Tuple)))
	}
	return res
}

// Hom applies a semiring homomorphism h: K1 → K2 to every annotation,
// producing a K2-relation. Since homomorphisms commute with RA+ queries,
// Hom(Q(R)) = Q(Hom(R)) for RA+ queries Q.
func Hom[K1, K2 comparable](r *Relation[K1], target semiring.Semiring[K2], h semiring.Hom[K1, K2]) *Relation[K2] {
	out := New(target, r.schema)
	for _, e := range r.ann {
		out.Set(e.Tuple, h(e.Ann))
	}
	return out
}

// ---------------------------------------------------------------------------
// Aggregation over ℕ-relations (multisets).

// AggFunc identifies an SQL aggregation function.
type AggFunc int

// The supported aggregation functions.
const (
	CountStar AggFunc = iota
	Count             // count(A): non-null values of A
	Sum
	Avg
	Min
	Max
)

// String returns the SQL name of the aggregation function.
func (f AggFunc) String() string {
	switch f {
	case CountStar:
		return "count(*)"
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Avg:
		return "avg"
	case Min:
		return "min"
	case Max:
		return "max"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(f))
	}
}

// AggState accumulates one aggregation function over a multiset of values,
// where each value arrives with a multiplicity (its ℕ-annotation). The
// zero value is an empty accumulator.
type AggState struct {
	fn       AggFunc
	count    int64
	sumI     int64
	sumF     float64
	isFloat  bool
	min, max tuple.Value
	seen     bool
}

// NewAggState returns an accumulator for fn.
func NewAggState(fn AggFunc) *AggState { return &AggState{fn: fn} }

// AddValue folds value v with multiplicity mult into the accumulator.
// For CountStar pass any value (it is ignored); NULLs are skipped for all
// other functions, as in SQL.
func (a *AggState) AddValue(v tuple.Value, mult int64) {
	if mult <= 0 {
		return
	}
	if a.fn == CountStar {
		a.count += mult
		return
	}
	if v.IsNull() {
		return
	}
	a.count += mult
	switch a.fn {
	case Sum, Avg:
		if v.Kind() == tuple.KindFloat {
			a.isFloat = true
		}
		if a.isFloat {
			a.sumF += v.AsFloat() * float64(mult)
		} else {
			a.sumI += v.AsInt() * mult
		}
	case Min:
		if !a.seen || tuple.Compare(v, a.min) < 0 {
			a.min = v
		}
	case Max:
		if !a.seen || tuple.Compare(v, a.max) > 0 {
			a.max = v
		}
	}
	a.seen = true
}

// QuantizeFloat rounds a float aggregate result onto a 1e-6 grid. Both
// aggregation implementations (the hash-based AggState and the engine's
// incremental sweep) quantize identically, so results are comparable as
// values despite the differing floating-point summation orders. A value
// whose scaled form overflows (about 1.8e302 in magnitude and above) has
// no fraction digits left to round and is returned unchanged.
func QuantizeFloat(f float64) float64 {
	scaled := f * 1e6
	if math.IsInf(scaled, 0) {
		return f
	}
	return math.Round(scaled) / 1e6
}

// Result returns the aggregate value. Empty inputs yield 0 for counts and
// NULL for the other functions, matching SQL semantics — which is what
// snapshot-reducible aggregation must produce inside gaps.
func (a *AggState) Result() tuple.Value {
	switch a.fn {
	case CountStar, Count:
		return tuple.Int(a.count)
	case Sum:
		if !a.seen {
			return tuple.Null
		}
		if a.isFloat {
			return tuple.Float(QuantizeFloat(a.sumF + float64(a.sumI)))
		}
		return tuple.Int(a.sumI)
	case Avg:
		if !a.seen {
			return tuple.Null
		}
		return tuple.Float(QuantizeFloat((a.sumF + float64(a.sumI)) / float64(a.count)))
	case Min:
		if !a.seen {
			return tuple.Null
		}
		return a.min
	case Max:
		if !a.seen {
			return tuple.Null
		}
		return a.max
	default:
		panic("krel: unknown aggregation function")
	}
}

// Aggregate computes Gγ_f(A)(R) over an ℕ-relation: the input is grouped
// on the columns groupIdx, f is evaluated over column argIdx (ignored for
// CountStar) with tuple multiplicities taken from the annotations, and
// every result tuple is annotated 1 (Def 7.1 restricted to one snapshot).
// With an empty groupIdx a single result row is always produced, even on
// empty input — the behaviour whose temporal lifting avoids the AG bug.
func Aggregate(r *Relation[int64], out tuple.Schema, groupIdx []int, fn AggFunc, argIdx int) *Relation[int64] {
	res := New[int64](semiring.N, out)
	groups := make(map[string]*AggState)
	groupTuples := make(map[string]tuple.Tuple)
	for _, e := range r.ann {
		g := e.Tuple.Project(groupIdx)
		key := g.Key()
		st, ok := groups[key]
		if !ok {
			st = NewAggState(fn)
			groups[key] = st
			groupTuples[key] = g
		}
		var arg tuple.Value
		if fn != CountStar {
			arg = e.Tuple[argIdx]
		}
		st.AddValue(arg, e.Ann)
	}
	if len(groupIdx) == 0 && len(groups) == 0 {
		// Aggregation without grouping over an empty input still yields a row.
		groups[""] = NewAggState(fn)
		groupTuples[""] = tuple.Tuple{}
	}
	for key, st := range groups {
		res.Add(append(groupTuples[key].Clone(), st.Result()), 1)
	}
	return res
}
