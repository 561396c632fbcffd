package krel

import (
	"math"
	"strings"
	"testing"

	"snapk/internal/semiring"
	"snapk/internal/tuple"
)

func str(s string) tuple.Value { return tuple.String_(s) }

func newWorks() *Relation[int64] {
	r := New[int64](semiring.N, tuple.NewSchema("name", "skill"))
	r.Add(tuple.Tuple{str("Pete"), str("SP")}, 1)
	r.Add(tuple.Tuple{str("Bob"), str("SP")}, 1)
	r.Add(tuple.Tuple{str("Alice"), str("NS")}, 1)
	return r
}

func newAssign() *Relation[int64] {
	r := New[int64](semiring.N, tuple.NewSchema("mach", "skill"))
	r.Add(tuple.Tuple{str("M1"), str("SP")}, 4)
	r.Add(tuple.Tuple{str("M2"), str("NS")}, 5)
	return r
}

func TestAddSetAnnotation(t *testing.T) {
	r := New[int64](semiring.N, tuple.NewSchema("a"))
	tup := tuple.Tuple{tuple.Int(1)}
	if got := r.Annotation(tup); got != 0 {
		t.Errorf("missing tuple annotation = %d", got)
	}
	r.Add(tup, 2)
	r.Add(tup, 3)
	if got := r.Annotation(tup); got != 5 {
		t.Errorf("annotation = %d, want 5", got)
	}
	r.Add(tup, 0) // no-op
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
	r.Set(tup, 0)
	if r.Len() != 0 {
		t.Error("Set(0) must remove the tuple")
	}
}

func TestExample41JoinAndProjection(t *testing.T) {
	works, assign := newWorks(), newAssign()
	out := works.Schema().Concat(assign.Schema(), "r.")
	joined := Join(works, assign, out, func(t tuple.Tuple) bool {
		return tuple.Equal(t[1], t[3]) // skill = skill
	})
	proj := Project(joined, tuple.NewSchema("mach"), func(t tuple.Tuple) tuple.Tuple {
		return tuple.Tuple{t[2]}
	})
	// Example 4.1: M1 ↦ 1·4 + 1·4 = 8, M2 ↦ 5·1 = 5.
	if got := proj.Annotation(tuple.Tuple{str("M1")}); got != 8 {
		t.Errorf("M1 annotation = %d, want 8", got)
	}
	if got := proj.Annotation(tuple.Tuple{str("M2")}); got != 5 {
		t.Errorf("M2 annotation = %d, want 5", got)
	}
	// Homomorphism to 𝔹 gives the set-semantics result.
	setRes := Hom[int64, bool](proj, semiring.B, semiring.NToB)
	if got := setRes.Annotation(tuple.Tuple{str("M1")}); !got {
		t.Error("M1 should be true under set semantics")
	}
}

func TestSelect(t *testing.T) {
	works := newWorks()
	sp := Select(works, func(t tuple.Tuple) bool { return t[1].AsString() == "SP" })
	if sp.Len() != 2 {
		t.Fatalf("Len = %d, want 2", sp.Len())
	}
	if sp.Annotation(tuple.Tuple{str("Alice"), str("NS")}) != 0 {
		t.Error("NS tuple must be filtered out")
	}
}

func TestUnionSumsAnnotations(t *testing.T) {
	a := New[int64](semiring.N, tuple.NewSchema("x"))
	b := New[int64](semiring.N, tuple.NewSchema("x"))
	a.Add(tuple.Tuple{tuple.Int(1)}, 2)
	b.Add(tuple.Tuple{tuple.Int(1)}, 3)
	b.Add(tuple.Tuple{tuple.Int(2)}, 1)
	u := Union(a, b)
	if got := u.Annotation(tuple.Tuple{tuple.Int(1)}); got != 5 {
		t.Errorf("annotation = %d, want 5", got)
	}
	if u.Len() != 2 {
		t.Errorf("Len = %d, want 2", u.Len())
	}
}

func TestDiffIsBagDifference(t *testing.T) {
	a := New[int64](semiring.N, tuple.NewSchema("x"))
	b := New[int64](semiring.N, tuple.NewSchema("x"))
	a.Add(tuple.Tuple{tuple.Int(1)}, 3)
	a.Add(tuple.Tuple{tuple.Int(2)}, 1)
	b.Add(tuple.Tuple{tuple.Int(1)}, 1)
	b.Add(tuple.Tuple{tuple.Int(2)}, 5)
	d := Diff[int64](semiring.N, a, b)
	if got := d.Annotation(tuple.Tuple{tuple.Int(1)}); got != 2 {
		t.Errorf("3 EXCEPT ALL 1 = %d, want 2", got)
	}
	if got := d.Annotation(tuple.Tuple{tuple.Int(2)}); got != 0 {
		t.Errorf("1 EXCEPT ALL 5 = %d, want 0", got)
	}
	// Contrast with the BD bug: NOT EXISTS semantics would drop tuple 1
	// entirely; bag difference keeps multiplicity 2.
}

func TestSetDifference(t *testing.T) {
	a := New[bool](semiring.B, tuple.NewSchema("x"))
	b := New[bool](semiring.B, tuple.NewSchema("x"))
	a.Add(tuple.Tuple{tuple.Int(1)}, true)
	a.Add(tuple.Tuple{tuple.Int(2)}, true)
	b.Add(tuple.Tuple{tuple.Int(2)}, true)
	d := Diff[bool](semiring.B, a, b)
	if !d.Annotation(tuple.Tuple{tuple.Int(1)}) || d.Annotation(tuple.Tuple{tuple.Int(2)}) {
		t.Error("set difference wrong")
	}
}

func TestEqualAndString(t *testing.T) {
	a, b := newWorks(), newWorks()
	if !a.Equal(b) {
		t.Error("identical relations not Equal")
	}
	b.Add(tuple.Tuple{str("Pete"), str("SP")}, 1)
	if a.Equal(b) {
		t.Error("different annotations considered Equal")
	}
	if a.Equal(newAssign()) {
		t.Error("different schemas considered Equal")
	}
	s := a.String()
	if !strings.Contains(s, "Pete") || !strings.Contains(s, "N(name, skill)") {
		t.Errorf("String = %q", s)
	}
}

func TestEntriesDeterministic(t *testing.T) {
	a := newWorks()
	e1, e2 := a.Entries(), a.Entries()
	for i := range e1 {
		if e1[i].Tuple.Key() != e2[i].Tuple.Key() {
			t.Fatal("Entries order not deterministic")
		}
	}
	if len(e1) != 3 {
		t.Fatalf("len = %d", len(e1))
	}
}

func TestAggregateCountStarRespectsMultiplicity(t *testing.T) {
	r := New[int64](semiring.N, tuple.NewSchema("skill"))
	r.Add(tuple.Tuple{str("SP")}, 2)
	r.Add(tuple.Tuple{str("NS")}, 1)
	got := Aggregate(r, tuple.NewSchema("cnt"), nil, CountStar, -1)
	if got.Len() != 1 {
		t.Fatalf("Len = %d", got.Len())
	}
	if ann := got.Annotation(tuple.Tuple{tuple.Int(3)}); ann != 1 {
		t.Fatalf("count(*) should be 3 with annotation 1: %v", got)
	}
}

func TestAggregateEmptyInputProducesRow(t *testing.T) {
	r := New[int64](semiring.N, tuple.NewSchema("x"))
	cnt := Aggregate(r, tuple.NewSchema("cnt"), nil, CountStar, -1)
	if cnt.Annotation(tuple.Tuple{tuple.Int(0)}) != 1 {
		t.Fatalf("count(*) over empty input must be 0: %v", cnt)
	}
	sum := Aggregate(r, tuple.NewSchema("s"), nil, Sum, 0)
	if sum.Annotation(tuple.Tuple{tuple.Null}) != 1 {
		t.Fatalf("sum over empty input must be NULL: %v", sum)
	}
	// With grouping, empty input produces no rows (SQL semantics).
	grouped := Aggregate(r, tuple.NewSchema("x", "cnt"), []int{0}, CountStar, -1)
	if grouped.Len() != 0 {
		t.Fatalf("grouped aggregation over empty input = %v", grouped)
	}
}

func TestAggregateGrouped(t *testing.T) {
	r := New[int64](semiring.N, tuple.NewSchema("dept", "sal"))
	r.Add(tuple.Tuple{str("d1"), tuple.Int(100)}, 2)
	r.Add(tuple.Tuple{str("d1"), tuple.Int(50)}, 1)
	r.Add(tuple.Tuple{str("d2"), tuple.Int(80)}, 1)
	avg := Aggregate(r, tuple.NewSchema("dept", "avg"), []int{0}, Avg, 1)
	if got := avg.Annotation(tuple.Tuple{str("d1"), tuple.Float(QuantizeFloat(250.0 / 3.0))}); got != 1 {
		t.Fatalf("avg(d1) missing: %v", avg)
	}
	if got := avg.Annotation(tuple.Tuple{str("d2"), tuple.Float(80)}); got != 1 {
		t.Fatalf("avg(d2) missing: %v", avg)
	}
	sum := Aggregate(r, tuple.NewSchema("dept", "sum"), []int{0}, Sum, 1)
	if got := sum.Annotation(tuple.Tuple{str("d1"), tuple.Int(250)}); got != 1 {
		t.Fatalf("sum(d1) missing: %v", sum)
	}
	mn := Aggregate(r, tuple.NewSchema("dept", "min"), []int{0}, Min, 1)
	if got := mn.Annotation(tuple.Tuple{str("d1"), tuple.Int(50)}); got != 1 {
		t.Fatalf("min(d1) missing: %v", mn)
	}
	mx := Aggregate(r, tuple.NewSchema("dept", "max"), []int{0}, Max, 1)
	if got := mx.Annotation(tuple.Tuple{str("d1"), tuple.Int(100)}); got != 1 {
		t.Fatalf("max(d1) missing: %v", mx)
	}
}

func TestAggregateSkipsNulls(t *testing.T) {
	r := New[int64](semiring.N, tuple.NewSchema("v"))
	r.Add(tuple.Tuple{tuple.Null}, 3)
	r.Add(tuple.Tuple{tuple.Int(10)}, 2)
	cnt := Aggregate(r, tuple.NewSchema("c"), nil, Count, 0)
	if cnt.Annotation(tuple.Tuple{tuple.Int(2)}) != 1 {
		t.Fatalf("count(v) should skip NULLs: %v", cnt)
	}
	cstar := Aggregate(r, tuple.NewSchema("c"), nil, CountStar, 0)
	if cstar.Annotation(tuple.Tuple{tuple.Int(5)}) != 1 {
		t.Fatalf("count(*) should count NULL rows: %v", cstar)
	}
	sum := Aggregate(r, tuple.NewSchema("s"), nil, Sum, 0)
	if sum.Annotation(tuple.Tuple{tuple.Int(20)}) != 1 {
		t.Fatalf("sum should skip NULLs: %v", sum)
	}
}

func TestAggStateFloat(t *testing.T) {
	st := NewAggState(Sum)
	st.AddValue(tuple.Int(1), 1)
	st.AddValue(tuple.Float(2.5), 2)
	if got := st.Result(); got.AsFloat() != 6.0 {
		t.Errorf("mixed sum = %v, want 6", got)
	}
	st2 := NewAggState(Avg)
	st2.AddValue(tuple.Int(3), 1)
	st2.AddValue(tuple.Int(5), 1)
	if got := st2.Result(); got.AsFloat() != 4.0 {
		t.Errorf("avg = %v", got)
	}
}

func TestAggFuncString(t *testing.T) {
	names := map[AggFunc]string{
		CountStar: "count(*)", Count: "count", Sum: "sum", Avg: "avg", Min: "min", Max: "max",
	}
	for f, want := range names {
		if got := f.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(f), got, want)
		}
	}
}

// Homomorphisms commute with queries (Prop 3.5 of Green et al.): check on
// a join+projection for NToB.
func TestHomCommutesWithQueries(t *testing.T) {
	works, assign := newWorks(), newAssign()
	out := works.Schema().Concat(assign.Schema(), "r.")
	cond := func(t tuple.Tuple) bool { return tuple.Equal(t[1], t[3]) }
	projFn := func(t tuple.Tuple) tuple.Tuple { return tuple.Tuple{t[2]} }
	projSchema := tuple.NewSchema("mach")

	inN := Project(Join(works, assign, out, cond), projSchema, projFn)
	viaHom := Hom[int64, bool](inN, semiring.B, semiring.NToB)

	worksB := Hom[int64, bool](works, semiring.B, semiring.NToB)
	assignB := Hom[int64, bool](assign, semiring.B, semiring.NToB)
	inB := Project(Join(worksB, assignB, out, cond), projSchema, projFn)

	if !viaHom.Equal(inB) {
		t.Fatalf("h(Q(R)) != Q(h(R)):\n%v\n%v", viaHom, inB)
	}
}

// QuantizeFloat leaves a value whose scaled form overflows unchanged
// instead of rounding it to ±Inf; below that magnitude it rounds onto the
// 1e-6 grid as before.
func TestQuantizeFloatNearMaxFloat(t *testing.T) {
	for _, f := range []float64{1e308, -1e308, math.MaxFloat64, -math.MaxFloat64, 1.8e302, -1.8e302} {
		if got := QuantizeFloat(f); got != f {
			t.Errorf("QuantizeFloat(%g) = %g, want it unchanged", f, got)
		}
	}
	for f, want := range map[float64]float64{0.1234564: 0.123456, -2.5e-7: 0, 41.0000004: 41} {
		if got := QuantizeFloat(f); got != want {
			t.Errorf("QuantizeFloat(%g) = %g, want %g", f, got, want)
		}
	}
}
