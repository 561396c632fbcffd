package engine_test

import (
	"math/rand"
	"strings"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/krel"
	"snapk/internal/qgen"
	"snapk/internal/rewrite"
	"snapk/internal/tuple"
)

// sweepForm runs one sweep over a database's r and s tables in one of
// the two drivers.
type sweepForm struct {
	name string
	run  func(t *testing.T, r, s *engine.Table) *engine.Table
}

// sweepForms are the coalesce, the difference and grouped and global
// integer aggregation, each in the blocking and the streaming driver.
// The streaming forms read begin-sorted copies of their inputs.
func sweepForms(db *engine.DB) []sweepForm {
	aggs := []algebra.AggSpec{
		{Fn: krel.CountStar, As: "n"}, {Fn: krel.Count, Arg: "b", As: "c"}, {Fn: krel.Sum, Arg: "b", As: "s"},
		{Fn: krel.Min, Arg: "b", As: "lo"}, {Fn: krel.Max, Arg: "b", As: "hi"}, {Fn: krel.Avg, Arg: "b", As: "avg"},
	}
	sorted := func(tbl *engine.Table) engine.RowIter {
		c := tbl.Clone()
		c.SortByEndpoints()
		return engine.NewTableIter(c)
	}
	drain := func(t *testing.T, it engine.RowIter, err error) *engine.Table {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		out, err := engine.MaterializeErr(it)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	forms := []sweepForm{
		{"blocking coalesce", func(_ *testing.T, r, _ *engine.Table) *engine.Table { return engine.Coalesce(r) }},
		{"streaming coalesce", func(t *testing.T, r, _ *engine.Table) *engine.Table {
			return drain(t, engine.NewStreamCoalesceIter(sorted(r)), nil)
		}},
		{"blocking difference", func(t *testing.T, r, s *engine.Table) *engine.Table {
			out, err := engine.TemporalDiff(r, s)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
		{"streaming difference", func(t *testing.T, r, s *engine.Table) *engine.Table {
			it, err := engine.NewStreamDiffIter(sorted(r), sorted(s))
			return drain(t, it, err)
		}},
	}
	for _, groupBy := range [][]string{{"a"}, nil} {
		kind := "grouped aggregation"
		if groupBy == nil {
			kind = "global aggregation"
		}
		forms = append(forms,
			sweepForm{"blocking " + kind, func(t *testing.T, r, _ *engine.Table) *engine.Table {
				out, err := engine.TemporalAggregate(r, groupBy, aggs, true, db.Domain())
				if err != nil {
					t.Fatal(err)
				}
				return out
			}},
			sweepForm{"streaming " + kind, func(t *testing.T, r, _ *engine.Table) *engine.Table {
				it, err := engine.NewStreamAggIter(sorted(r), groupBy, aggs, db.Domain())
				return drain(t, it, err)
			}})
	}
	return forms
}

// splitRow returns a copy of tbl with one row of at least two time
// points split at an interior point into two value-equivalent rows, and
// whether it found one.
func splitRow(rng *rand.Rand, tbl *engine.Table) (*engine.Table, bool) {
	var long []int
	for i, row := range tbl.Rows {
		if iv := tbl.Interval(row); iv.End-iv.Begin >= 2 {
			long = append(long, i)
		}
	}
	if len(long) == 0 {
		return tbl, false
	}
	i := long[rng.Intn(len(long))]
	row, n := tbl.Rows[i], tbl.DataArity()
	iv := tbl.Interval(row)
	mid := iv.Begin + 1 + rng.Int63n(iv.End-iv.Begin-1)
	out := &engine.Table{Schema: tbl.Schema}
	out.Rows = append(out.Rows, tbl.Rows[:i]...)
	out.Rows = append(out.Rows,
		append(row[:n:n], tuple.Int(iv.Begin), tuple.Int(mid)),
		append(row[:n:n], tuple.Int(mid), tuple.Int(iv.End)))
	out.Rows = append(out.Rows, tbl.Rows[i+1:]...)
	return out, true
}

// TestSweepMetamorphic checks two laws of snapshot semantics over qgen
// databases, for every sweep in both drivers. Splitting an input row at
// an interior point into two value-equivalent rows encodes the same
// snapshots, so it changes no output: the sweeps emit the unique
// coalesced encoding, which depends on the snapshots alone. And Q
// EXCEPT ALL Q is empty, for base tables, sweep outputs and generated
// queries alike.
func TestSweepMetamorphic(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		g := qgen.New(seed)
		db := g.GenDB().ToEngineDB()
		r, err := db.Table("r")
		if err != nil {
			t.Fatal(err)
		}
		s, err := db.Table("s")
		if err != nil {
			t.Fatal(err)
		}
		p, err := rewrite.Rewrite(g.GenQuery(), db, rewrite.Options{Mode: rewrite.ModeOptimized})
		if err != nil {
			t.Fatal(err)
		}
		q, err := db.Exec(p)
		if err != nil {
			t.Fatal(err)
		}
		selfEmpty := func(what string, tbl *engine.Table) {
			t.Helper()
			for _, f := range sweepForms(db) {
				if !strings.HasSuffix(f.name, "difference") {
					continue
				}
				if out := f.run(t, tbl, tbl); out.Len() != 0 {
					t.Fatalf("seed %d: %s of %s with itself is not empty:\n%s", seed, f.name, what, out)
				}
			}
		}
		selfEmpty("r", r)
		selfEmpty("s", s)
		selfEmpty(p.String(), q)
		for _, f := range sweepForms(db) {
			want := f.run(t, r, s)
			selfEmpty(f.name, want)
			rng := rand.New(rand.NewSource(seed))
			r2, okR := splitRow(rng, r)
			s2, okS := splitRow(rng, s)
			if !okR && !okS {
				continue
			}
			if got := f.run(t, r2, s2); !sameCounts(multisetKeys(want), multisetKeys(got)) {
				t.Fatalf("seed %d: splitting a row changed the %s\nr:\n%s\ns:\n%s\nsplit r:\n%s\nsplit s:\n%s\nbefore:\n%s\nafter:\n%s",
					seed, f.name, r, s, r2, s2, want, got)
			}
		}
	}
}
