package engine_test

import (
	"context"
	"errors"
	"slices"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/rewrite"
	"snapk/internal/tuple"
)

// codedQueries are the sweeps that find their groups by t's key codes
// while t is begin-sorted: a coalesce, a difference of t and a filter of
// it, and a grouped aggregation.
var codedQueries = []algebra.Query{
	proj(relT, col("k", "b"), col("v", "a")),
	algebra.Diff{
		L: proj(relT, col("p", "a"), col("q", "c")),
		R: proj(algebra.Select{Pred: algebra.Ne(algebra.Col("b"), algebra.StrC("s1")), In: relT}, col("p", "a"), col("q", "c")),
	},
	algebra.Agg{GroupBy: []string{"c"}, Aggs: []algebra.AggSpec{{Fn: krel.CountStar, As: "n"}}, In: relT},
}

// runCoded runs q over db at the given worker count, checks the result
// against the abstract model and the unique encoding, and returns the
// key codes its sweeps were built over (0 when they hashed).
func runCoded(t *testing.T, what string, db *engine.DB, tables map[string]*engine.Table, q algebra.Query, workers int) int64 {
	t.Helper()
	p, err := rewrite.Rewrite(q, db, rewrite.Options{Mode: rewrite.ModeOptimized})
	if err != nil {
		t.Fatalf("%s: rewrite: %v", what, err)
	}
	c := engine.NewCollector()
	it, err := parallel.Exec(context.Background(), db, p, parallel.Options{Workers: workers, MorselSize: 4, Stats: c.Root})
	if err != nil {
		t.Fatalf("%s: exec: %v", what, err)
	}
	got, err := engine.MaterializeErr(it)
	it.Close()
	if err != nil {
		t.Fatalf("%s: drain: %v", what, err)
	}
	if err := engine.SnapshotOracle(db.Domain(), q, got, tables); err != nil {
		t.Fatalf("%s, %d workers: %v", what, workers, err)
	}
	if !engine.IsCoalesced(got) {
		t.Fatalf("%s, %d workers: the result is not coalesced\n%s", what, workers, got)
	}
	var codes int64
	for _, path := range sweepCodes(c.Root) {
		codes = max(codes, path)
	}
	return codes
}

// sweepCodes returns the key codes of every sweep node of an EXPLAIN
// ANALYZE tree.
func sweepCodes(st *engine.OpStats) []int64 {
	var out []int64
	for _, c := range st.Children() {
		if c.Label == "Coalesce" || c.Label == "Diff" || c.Label == "Agg" {
			out = append(out, c.KeyCodes())
		}
		out = append(out, sweepCodes(c)...)
	}
	return out
}

// TestKeyCodesRebuiltAfterEachWrite runs the coded sweeps over t, then
// writes t through each writer and runs them again: each write drops the
// cached codes, and the next query matches the abstract model over the
// rows as they are now, coded again wherever t is begin-sorted. The
// writers that keep the row count (SetRows with a changed key, Sort,
// SortByEndpoints) would leave codes of the right length but the wrong
// rows.
func TestKeyCodesRebuiltAfterEachWrite(t *testing.T) {
	writes := []struct {
		name   string
		fn     func(*engine.Table)
		sorted bool // whether t stays begin-sorted, so the sweeps stream
	}{
		{"Append", func(t *engine.Table) {
			t.Append(tuple.Tuple{tuple.Int(7), tuple.String_("s9"), tuple.Int(1)}, interval.New(36, 40), 2)
		}, true},
		{"SetRows", func(t *engine.Table) {
			rows := slices.Clone(t.Rows)
			for i := 0; i < len(rows); i += 3 {
				rows[i] = append(tuple.Tuple{tuple.Int(5), tuple.String_("s1"), rows[i][2]}, rows[i][3:]...)
			}
			t.SetRows(rows)
		}, true},
		{"InvalidateMeta", func(t *engine.Table) {
			t.Rows[1] = append(tuple.Tuple{tuple.Int(6), tuple.String_("s0")}, t.Rows[1][2:]...)
			t.InvalidateMeta()
		}, true},
		{"Sort", (*engine.Table).Sort, false},
		{"SortByEndpoints", (*engine.Table).SortByEndpoints, true},
	}
	for _, workers := range []int{1, 2} {
		db, tables := colMapDB(11, true)
		tbl := tables["t"]
		for _, q := range codedQueries {
			if runCoded(t, "before the writes", db, tables, q, workers) == 0 {
				t.Fatalf("%s hashed over a begin-sorted table", q)
			}
		}
		for _, w := range writes {
			w.fn(tbl)
			if got, rows := tbl.SizeBytes(), int64(tbl.Len())*engine.ApproxRowBytes(5); got != rows {
				t.Fatalf("%s kept %d bytes of key codes", w.name, got-rows)
			}
			for _, q := range codedQueries {
				if coded := runCoded(t, "after "+w.name, db, tables, q, workers) > 0; coded != w.sorted {
					t.Fatalf("after %s: %s coded=%v, want %v", w.name, q, coded, w.sorted)
				}
			}
		}
	}
}

// TestKeyCodesChargedToBudget runs a coded coalesce under memory budgets
// around its code → group index (4 bytes per code): a budget below the
// index fails with the typed budget error, at one worker and at two,
// where each fragment holds an index, and a budget with room for the
// index and the state passes.
func TestKeyCodesChargedToBudget(t *testing.T) {
	db, tables := colMapDB(4, true)
	q := proj(relT, col("a", "a"), col("b", "b"), col("c", "c"))
	codes := runCoded(t, "unlimited", db, tables, q, 1)
	if codes == 0 {
		t.Fatal("the coalesce hashed")
	}
	p, err := rewrite.Rewrite(q, db, rewrite.Options{Mode: rewrite.ModeOptimized})
	if err != nil {
		t.Fatal(err)
	}
	run := func(p engine.Plan, workers int, budget int64) error {
		gov := engine.NewGovernor(engine.Limits{MemBudget: budget})
		it, err := parallel.Exec(context.Background(), db, p, parallel.Options{Workers: workers, Gov: gov})
		if err != nil {
			return err
		}
		_, err = engine.MaterializeErr(it)
		it.Close()
		if err == nil && gov.MemInUse() != 0 {
			t.Fatalf("%d bytes still charged after Close", gov.MemInUse())
		}
		return err
	}
	for _, workers := range []int{1, 2} {
		if err := run(p, workers, 4*codes-1); !errors.Is(err, engine.ErrMemBudget) {
			t.Fatalf("%d workers, a budget 1 byte below the index: %v, want ErrMemBudget", workers, err)
		}
		if err := run(p, workers, int64(workers)*4*codes+1<<20); err != nil {
			t.Fatalf("%d workers, room for the index: %v", workers, err)
		}
	}
}
