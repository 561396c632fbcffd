// Tests of what "sequential is one fragment" makes load-bearing: at one
// worker the executor is the same code with every stream a single
// fragment — no goroutine, no exchange — and its root still speaks the
// batch protocol.
package parallel_test

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/qgen"
	"snapk/internal/rewrite"
	"snapk/internal/tuple"
)

// allOperatorPlan covers every build() case in both physical forms of
// each sweep: scan, window, filter, project, hash join, overlap join,
// union, and streaming and blocking agg/diff/coalesce. The streaming
// sweeps read "s", a begin-sorted table (see withSortedCopy).
func allOperatorPlan() engine.Plan {
	scanL, scanR, scanS := engine.ScanP{Name: "l"}, engine.ScanP{Name: "r"}, engine.ScanP{Name: "s"}
	cnt := []algebra.AggSpec{{Fn: krel.CountStar, As: "cnt"}}
	keys := func(in engine.Plan) engine.Plan {
		return engine.ProjectP{Exprs: []algebra.NamedExpr{{Name: "k", E: algebra.Col("k")}}, In: in}
	}
	hash := keys(engine.JoinP{L: engine.FilterP{Pred: algebra.Gt(algebra.Col("v"), algebra.IntC(10)), In: scanL},
		R: scanR, Pred: algebra.Eq(algebra.Col("k"), algebra.Col("r.k"))})
	overlap := keys(engine.JoinP{
		L:    engine.WindowP{T: interval.New(0, 40), In: engine.FilterP{Pred: algebra.Gt(algebra.Col("v"), algebra.IntC(0)), In: scanL}},
		R:    engine.WindowP{T: interval.New(0, 40), In: scanR},
		Pred: algebra.Lt(algebra.Col("v"), algebra.Col("w"))})
	blocking := engine.CoalesceP{In: engine.DiffP{
		L: engine.UnionP{L: hash, R: overlap},
		R: keys(engine.AggP{GroupBy: []string{"k"}, Aggs: cnt, In: scanL}),
	}}
	streaming := engine.UnionP{
		L: engine.CoalesceP{In: keys(scanS)},
		R: engine.UnionP{
			L: engine.DiffP{
				L: keys(scanS),
				R: keys(engine.FilterP{Pred: algebra.Gt(algebra.Col("v"), algebra.IntC(10)), In: scanS}),
			},
			R: keys(engine.AggP{GroupBy: []string{"k"}, Aggs: cnt, PreAgg: true, In: scanS}),
		},
	}
	return engine.UnionP{L: blocking, R: streaming}
}

// withSortedCopy registers a begin-sorted copy of db's table "l" as "s".
func withSortedCopy(t *testing.T, db *engine.DB) *engine.DB {
	t.Helper()
	l, err := db.Table("l")
	if err != nil {
		t.Fatal(err)
	}
	s := l.Clone()
	s.SortByEndpoints()
	db.AddTable("s", s)
	return db
}

func hasExchange(st *engine.OpStats) bool {
	if strings.HasPrefix(st.Label, "Exchange:") {
		return true
	}
	for _, c := range st.Children() {
		if hasExchange(c) {
			return true
		}
	}
	return false
}

func TestSequentialIsOneFragment(t *testing.T) {
	db := withSortedCopy(t, bigPipelineDB(2000))
	p := allOperatorPlan()
	want, err := db.Exec(p)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("empty all-operator result; test is vacuous")
	}
	col := engine.NewCollector()
	before := runtime.NumGoroutine()
	it, err := parallel.Exec(context.Background(), db, p, parallel.Options{Workers: 1, Stats: col.Root})
	if err != nil {
		t.Fatal(err)
	}
	got := &engine.Table{Schema: it.Schema()}
	b := engine.NewRowBatch(0)
	for it.NextBatch(b) {
		got.Rows = append(got.Rows, b.Rows...)
		if n := runtime.NumGoroutine(); n != before {
			t.Fatalf("%d goroutines while draining at one worker, %d before Exec", n, before)
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	it.Close()
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("%d goroutines after Close, %d before Exec", n, before)
	}
	if !sameMultiset(sortedKeys(got), sortedKeys(want)) {
		t.Fatalf("one-worker result diverges from the reference evaluator: got %d rows, want %d", got.Len(), want.Len())
	}
	if hasExchange(col.Root) {
		t.Fatalf("an exchange was built at one worker:\n%s", col.Render())
	}
}

// Every qgen-grid plan's one-worker root keeps the NextBatch contract —
// true iff rows were delivered, never more than the capacity at one
// worker — and ends cleanly, whatever operator ends up on top.
func TestSequentialRootIsBatchIter(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		g := qgen.New(seed)
		spec := g.GenDB()
		q := g.GenQuery()
		// The begin-sorted copy runs streaming sweeps.
		for _, db := range []*engine.DB{spec.ToEngineDB(), spec.SortedByBegin().ToEngineDB()} {
			for _, opt := range []rewrite.Options{
				{Mode: rewrite.ModeOptimized},
				{Mode: rewrite.ModeNaive},
			} {
				p, err := rewrite.Rewrite(q, db, opt)
				if err != nil {
					t.Fatalf("seed %d: rewrite: %v", seed, err)
				}
				it, err := parallel.Exec(context.Background(), db, p, parallel.Options{Workers: 1})
				if err != nil {
					t.Fatalf("seed %d: Exec(%s): %v", seed, p, err)
				}
				b := engine.NewRowBatch(3)
				for {
					ok := it.NextBatch(b)
					if ok != (b.Len() > 0) || b.Len() > 3 {
						t.Fatalf("seed %d: root of %s broke the NextBatch contract: ok=%v with %d rows", seed, p, ok, b.Len())
					}
					if !ok {
						break
					}
				}
				if err := it.Err(); err != nil {
					t.Fatalf("seed %d: %s: %v", seed, p, err)
				}
				it.Close()
			}
		}
	}
}

// The Def 8.2 coalesce semantics must hold when the operator runs as a
// blocking sweep inside the executor.
func TestCoalesceUnderExecutor(t *testing.T) {
	db := engine.NewDB(interval.NewDomain(0, 24))
	tbl := db.CreateTable("sal", tuple.NewSchema("name"))
	tbl.Append(tuple.Tuple{tuple.String_("Ann")}, interval.New(0, 5), 1)
	tbl.Append(tuple.Tuple{tuple.String_("Ann")}, interval.New(5, 10), 1)
	tbl.Append(tuple.Tuple{tuple.String_("Joe")}, interval.New(1, 4), 2)
	want := engine.NewTable(tuple.NewSchema("name"))
	want.Append(tuple.Tuple{tuple.String_("Ann")}, interval.New(0, 10), 1)
	want.Append(tuple.Tuple{tuple.String_("Joe")}, interval.New(1, 4), 2)
	got := runParallel(t, db, engine.CoalesceP{In: engine.ScanP{Name: "sal"}}, 1)
	if !sameMultiset(sortedKeys(got), sortedKeys(want)) {
		t.Fatalf("got\n%s\nwant\n%s", got, want)
	}
}
