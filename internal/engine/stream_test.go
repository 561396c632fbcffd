// Property-style equivalence suite for the executor: every
// qgen-generated plan must produce multiset-identical results through
// DB.Exec (the node-at-a-time reference evaluator) and parallel.Exec
// (the pipelined executor, at one and at four workers), in both REWR
// plan modes. The file lives in package engine_test so it can drive the
// engine through the rewrite front door without an import cycle.
package engine_test

import (
	"context"
	"sort"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
	"snapk/internal/qgen"
	"snapk/internal/rewrite"
	"snapk/internal/tuple"
)

// sortedKeys renders a table as a sorted multiset of row keys.
func sortedKeys(t *engine.Table) []string {
	keys := make([]string, len(t.Rows))
	for i, row := range t.Rows {
		keys[i] = row.Key()
	}
	sort.Strings(keys)
	return keys
}

func sameMultiset(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// execSeq builds p on the executor at one worker: every stream a single
// fragment on the caller's goroutine. stats is the optional EXPLAIN
// ANALYZE parent.
func execSeq(t *testing.T, db *engine.DB, p engine.Plan, stats *engine.OpStats) engine.RowIter {
	t.Helper()
	it, err := parallel.Exec(context.Background(), db, p, parallel.Options{Workers: 1, Stats: stats})
	if err != nil {
		t.Fatalf("parallel.Exec(%s): %v", p, err)
	}
	return it
}

// runStream evaluates p through the executor at one worker and
// materializes the result.
func runStream(t *testing.T, db *engine.DB, p engine.Plan) *engine.Table {
	t.Helper()
	it := execSeq(t, db, p, nil)
	defer it.Close()
	return engine.Materialize(it)
}

// runParallel evaluates p through the executor at four workers and
// materializes the result. The tiny morsel size forces real partitioning
// even on qgen's small tables.
func runParallel(t *testing.T, db *engine.DB, p engine.Plan) *engine.Table {
	t.Helper()
	it, err := parallel.Exec(context.Background(), db, p, parallel.Options{Workers: 4, MorselSize: 4})
	if err != nil {
		t.Fatalf("parallel.Exec(%s): %v", p, err)
	}
	defer it.Close()
	return engine.Materialize(it)
}

// Every worker count and sweep form must produce multiset-identical
// results on every generated plan: DB.Exec, which runs every sweep
// blocking, is the reference; the executor at one and at four workers
// is checked against it, over both the generated database and a
// deliberately pre-sorted copy (begin-sorted stored tables make the
// sweeps stream).
func TestStreamMaterializeEquivalence(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		g := qgen.New(seed)
		spec := g.GenDB()
		q := g.GenQuery()
		for _, variant := range []struct {
			name string
			db   *engine.DB
		}{
			{"unsorted", spec.ToEngineDB()},
			{"sorted", spec.SortedByBegin().ToEngineDB()},
		} {
			db := variant.db
			for _, mode := range []rewrite.Mode{rewrite.ModeOptimized, rewrite.ModeNaive} {
				p, err := rewrite.Rewrite(q, db, rewrite.Options{Mode: mode})
				if err != nil {
					t.Fatalf("seed %d: rewrite: %v", seed, err)
				}
				mat, err := db.Exec(p)
				if err != nil {
					t.Fatalf("seed %d: Exec(%s): %v", seed, p, err)
				}
				want := sortedKeys(mat)
				str := runStream(t, db, p)
				if !sameMultiset(want, sortedKeys(str)) {
					t.Fatalf("seed %d %s mode %d: one-worker result diverges from the reference evaluator\nplan: %s\nreference:\n%s\nstreamed:\n%s",
						seed, variant.name, mode, p, mat, str)
				}
				par := runParallel(t, db, p)
				if !sameMultiset(want, sortedKeys(par)) {
					t.Fatalf("seed %d %s mode %d: four-worker result diverges from the reference evaluator\nplan: %s\nreference:\n%s\nparallel:\n%s",
						seed, variant.name, mode, p, mat, par)
				}
			}
		}
	}
}

// nestedLoopJoin is the brute-force semantics oracle for the temporal
// join: every pair with overlapping periods and a true predicate over
// the concatenated data columns, stamped with the period intersection.
func nestedLoopJoin(l, r *engine.Table, pred algebra.Expr) []string {
	lA, rA := l.DataArity(), r.DataArity()
	joined := l.DataSchema().Concat(r.DataSchema(), "r.")
	c, err := algebra.Compile(pred, joined)
	if err != nil {
		panic(err)
	}
	var keys []string
	for _, lrow := range l.Rows {
		for _, rrow := range r.Rows {
			iv, ok := l.Interval(lrow).Intersect(r.Interval(rrow))
			if !ok {
				continue
			}
			data := make(tuple.Tuple, 0, lA+rA+2)
			data = append(data, lrow[:lA]...)
			data = append(data, rrow[:rA]...)
			if !algebra.Truthy(c(data)) {
				continue
			}
			data = append(data, tuple.Int(iv.Begin), tuple.Int(iv.End))
			keys = append(keys, data.Key())
		}
	}
	sort.Strings(keys)
	return keys
}

// The no-equi-key join — pure overlap, or inequality-only predicates —
// must agree with the nested-loop oracle through both evaluators. This is
// the case the old single-bucket hash fallback served; it now runs as
// the endpoint-sorted sweep.
func TestNoEquiKeyJoinEquivalence(t *testing.T) {
	preds := []struct {
		name string
		e    algebra.Expr
	}{
		{"overlap-only", algebra.BoolC(true)},
		{"less-than", algebra.Lt(algebra.Col("a"), algebra.Col("r.a"))},
		{"not-equal", algebra.Ne(algebra.Col("b"), algebra.Col("r.b"))},
	}
	for seed := int64(0); seed < 60; seed++ {
		g := qgen.New(seed)
		db := g.GenDB().ToEngineDB()
		lt, err := db.Table("r")
		if err != nil {
			t.Fatal(err)
		}
		rt, err := db.Table("s")
		if err != nil {
			t.Fatal(err)
		}
		for _, pc := range preds {
			p := engine.JoinP{L: engine.ScanP{Name: "r"}, R: engine.ScanP{Name: "s"}, Pred: pc.e}
			want := nestedLoopJoin(lt, rt, pc.e)
			mat, err := db.Exec(p)
			if err != nil {
				t.Fatalf("seed %d %s: Exec: %v", seed, pc.name, err)
			}
			if got := sortedKeys(mat); !sameMultiset(got, want) {
				t.Fatalf("seed %d %s: overlap sweep diverges from nested-loop oracle\ngot %d rows, want %d", seed, pc.name, len(got), len(want))
			}
			if got := sortedKeys(runStream(t, db, p)); !sameMultiset(got, want) {
				t.Fatalf("seed %d %s: streamed overlap sweep diverges from oracle", seed, pc.name)
			}
		}
	}
}
