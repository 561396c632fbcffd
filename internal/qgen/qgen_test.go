package qgen_test

import (
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/qgen"
)

func TestGenDBShape(t *testing.T) {
	g := qgen.New(1)
	spec := g.GenDB()
	if len(spec.Tables) != 2 || spec.Tables[0].Name != "r" || spec.Tables[1].Name != "s" {
		t.Fatalf("tables = %v", spec.Tables)
	}
	for _, tbl := range spec.Tables {
		for _, f := range tbl.Facts {
			if !spec.Dom.ContainsInterval(f.Iv) {
				t.Fatalf("fact %v outside domain", f)
			}
			if f.Mult < 1 {
				t.Fatalf("fact multiplicity %d", f.Mult)
			}
			if len(f.Tuple) != 2 {
				t.Fatalf("fact arity %d", len(f.Tuple))
			}
		}
	}
}

// All three loaders must accept every generated spec.
func TestLoadersAgreeOnTableSizes(t *testing.T) {
	g := qgen.New(2)
	for i := 0; i < 10; i++ {
		spec := g.GenDB()
		sdb := spec.ToSnapshotDB()
		pdb := spec.ToPeriodDB()
		edb := spec.ToEngineDB()
		for _, tbl := range spec.Tables {
			if _, err := sdb.Relation(tbl.Name); err != nil {
				t.Fatal(err)
			}
			if _, err := pdb.Relation(tbl.Name); err != nil {
				t.Fatal(err)
			}
			et, err := edb.Table(tbl.Name)
			if err != nil {
				t.Fatal(err)
			}
			var want int
			for _, f := range tbl.Facts {
				want += int(f.Mult)
			}
			if et.Len() != want {
				t.Fatalf("%s: engine rows %d, want %d", tbl.Name, et.Len(), want)
			}
		}
	}
}

// SortedByBegin must produce begin-sorted engine tables while
// preserving the fact multiset of the original spec.
func TestSortedByBegin(t *testing.T) {
	g := qgen.New(17)
	for i := 0; i < 20; i++ {
		spec := g.GenDB()
		sorted := spec.SortedByBegin()
		sdb := sorted.ToEngineDB()
		udb := spec.ToEngineDB()
		for _, tbl := range spec.Tables {
			st, err := sdb.Table(tbl.Name)
			if err != nil {
				t.Fatal(err)
			}
			if !st.BeginSorted() {
				t.Fatalf("%s: sorted spec loads into an unsorted table", tbl.Name)
			}
			ut, err := udb.Table(tbl.Name)
			if err != nil {
				t.Fatal(err)
			}
			if st.Len() != ut.Len() {
				t.Fatalf("%s: sorted copy changed cardinality: %d != %d", tbl.Name, st.Len(), ut.Len())
			}
			a, b := st.Clone(), ut.Clone()
			a.Sort()
			b.Sort()
			for j := range a.Rows {
				if a.Rows[j].Key() != b.Rows[j].Key() {
					t.Fatalf("%s: sorted copy changed the row multiset", tbl.Name)
				}
			}
		}
	}
}

// Generated queries must always type-check against the generated schema.
func TestGeneratedQueriesTypeCheck(t *testing.T) {
	g := qgen.New(3)
	spec := g.GenDB()
	edb := spec.ToEngineDB()
	for i := 0; i < 200; i++ {
		q := g.GenQuery()
		if _, err := algebra.OutSchema(q, edb); err != nil {
			t.Fatalf("query %s does not type-check: %v", q, err)
		}
	}
	for i := 0; i < 200; i++ {
		q := g.GenJoinQuery()
		if _, err := algebra.OutSchema(q, edb); err != nil {
			t.Fatalf("join query %s does not type-check: %v", q, err)
		}
	}
	for i := 0; i < 100; i++ {
		q := g.GenPositiveQuery()
		if _, err := algebra.OutSchema(q, edb); err != nil {
			t.Fatalf("positive query %s does not type-check: %v", q, err)
		}
		// Positive queries must not contain Diff or Agg.
		algebra.Walk(q, func(n algebra.Query) {
			switch n.(type) {
			case algebra.Diff, algebra.Agg:
				t.Fatalf("positive query contains %T: %s", n, q)
			}
		})
	}
}
