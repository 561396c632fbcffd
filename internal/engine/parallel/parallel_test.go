package parallel_test

import (
	"context"
	"sort"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
	"snapk/internal/interval"
	"snapk/internal/qgen"
	"snapk/internal/rewrite"
	"snapk/internal/tuple"
)

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

func runParallel(t *testing.T, db *engine.DB, p engine.Plan, workers int) *engine.Table {
	t.Helper()
	it, err := parallel.Exec(context.Background(), db, p, parallel.Options{Workers: workers, MorselSize: 4})
	if err != nil {
		t.Fatalf("parallel.Exec(%s): %v", p, err)
	}
	defer it.Close()
	return engine.Materialize(it)
}

// The executor must produce results multiset-identical to the reference
// evaluator on every qgen-generated REWR plan, at several worker
// counts. The tiny morsel size forces real partitioning even on
// the small generated tables. Run under -race this also exercises the
// exchange operators for data races.
func TestParallelSequentialEquivalence(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		g := qgen.New(seed)
		spec := g.GenDB()
		db := spec.ToEngineDB()
		q := g.GenQuery()
		p, err := rewrite.Rewrite(q, db, rewrite.Options{Mode: rewrite.ModeOptimized})
		if err != nil {
			t.Fatalf("seed %d: rewrite: %v", seed, err)
		}
		mat, err := db.Exec(p)
		if err != nil {
			t.Fatalf("seed %d: Exec(%s): %v", seed, p, err)
		}
		want := sortedKeys(mat)
		for _, workers := range []int{1, 2, 4} {
			got := sortedKeys(runParallel(t, db, p, workers))
			if !sameMultiset(got, want) {
				t.Fatalf("seed %d workers %d: parallel result diverges from sequential\nplan: %s\ngot %d rows, want %d",
					seed, workers, p, len(got), len(want))
			}
		}
	}
}

// bigPipelineDB builds a database large enough that a parallel pipeline
// over it stays in flight for many batches.
func bigPipelineDB(rows int) *engine.DB {
	dom := interval.NewDomain(0, 1<<20)
	db := engine.NewDB(dom)
	l := db.CreateTable("l", tuple.NewSchema("k", "v"))
	r := db.CreateTable("r", tuple.NewSchema("k", "w"))
	for i := 0; i < rows; i++ {
		begin := int64(i % 1000)
		l.Append(tuple.Tuple{tuple.Int(int64(i % 128)), tuple.Int(int64(i))}, interval.New(begin, begin+100), 1)
		if i%4 == 0 {
			r.Append(tuple.Tuple{tuple.Int(int64(i % 128)), tuple.Int(int64(i))}, interval.New(begin, begin+200), 1)
		}
	}
	return db
}

// bigPipelinePlan is a Filter→HashJoin(probe)→Project chain — every
// streaming operator the parallel executor replicates into fragments.
func bigPipelinePlan() engine.Plan {
	return engine.ProjectP{
		Exprs: []algebra.NamedExpr{
			{Name: "k", E: algebra.Col("k")},
			{Name: "v", E: algebra.Col("v")},
		},
		In: engine.JoinP{
			L: engine.FilterP{
				Pred: algebra.Gt(algebra.Col("v"), algebra.IntC(10)),
				In:   engine.ScanP{Name: "l"},
			},
			R:    engine.ScanP{Name: "r"},
			Pred: algebra.Eq(algebra.Col("k"), algebra.Col("r.k")),
		},
	}
}

// The join-heavy pipeline must agree between the reference evaluator
// and the executor on a dataset much larger than a morsel.
func TestParallelBigPipelineEquivalence(t *testing.T) {
	db := bigPipelineDB(4000)
	p := bigPipelinePlan()
	mat, err := db.Exec(p)
	if err != nil {
		t.Fatal(err)
	}
	want := sortedKeys(mat)
	if len(want) == 0 {
		t.Fatal("empty pipeline result; test is vacuous")
	}
	it, err := parallel.Exec(context.Background(), db, p, parallel.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	got := sortedKeys(engine.Materialize(it))
	if !sameMultiset(got, want) {
		t.Fatalf("parallel big pipeline diverges: got %d rows, want %d", len(got), len(want))
	}
}

// A canceled context must abort an Exec whose blocking operators would
// otherwise consume truncated input: the error must surface instead of
// a silently wrong result.
func TestParallelCanceledContextErrors(t *testing.T) {
	db := bigPipelineDB(2000)
	p := engine.CoalesceP{In: bigPipelinePlan()}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	it, err := parallel.Exec(ctx, db, p, parallel.Options{Workers: 4})
	if err == nil {
		it.Close()
		t.Fatal("Exec with pre-canceled context over a blocking plan must error")
	}
}

// Workers must be able to exceed the table size (more fragments than
// morsels) without producing duplicates or losses.
func TestParallelMoreWorkersThanRows(t *testing.T) {
	dom := interval.NewDomain(0, 100)
	db := engine.NewDB(dom)
	tbl := db.CreateTable("t", tuple.NewSchema("x"))
	for i := 0; i < 3; i++ {
		tbl.Append(tuple.Tuple{tuple.Int(int64(i))}, interval.New(0, 10), 1)
	}
	it, err := parallel.Exec(context.Background(), db, engine.ScanP{Name: "t"}, parallel.Options{Workers: 8, MorselSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	got := engine.Materialize(it)
	if got.Len() != 3 {
		t.Fatalf("scan with 8 workers over 3 rows returned %d rows", got.Len())
	}
}
