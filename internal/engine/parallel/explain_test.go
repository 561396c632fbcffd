// EXPLAIN's placement and the executed plan come from the same two
// functions (place and exchangeFor, explain.go): this file executes
// plans with a collector attached and checks that what parallel.Explain
// printed for each node — its width and the exchange feeding it — is
// what the measured stats tree shows ran: that many per-worker fragment
// nodes, and an exchange node of that kind.
package parallel_test

import (
	"context"
	"strings"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
	"snapk/internal/krel"
)

// placementPlans is the plan set the placement test sweeps: one per
// placement-relevant build() case. The streaming sweeps read "l", which
// bigPipelineDB stores begin-sorted at up to 1000 rows.
func placementPlans() []engine.Plan {
	scanL := engine.ScanP{Name: "l"}
	scanR := engine.ScanP{Name: "r"}
	return []engine.Plan{
		engine.FilterP{Pred: algebra.Gt(algebra.Col("v"), algebra.IntC(10)), In: scanL},
		bigPipelinePlan(), // Project → equi Join → Filter → Scan
		engine.JoinP{L: scanL, R: scanR, Pred: algebra.BoolC(true)}, // overlap sweep: sequential
		engine.UnionP{L: scanL, R: scanL},
		engine.CoalesceP{In: scanL},
		engine.CoalesceP{In: scanL, Streaming: true},
		engine.AggP{GroupBy: []string{"k"}, Aggs: []algebra.AggSpec{{Fn: krel.CountStar, As: "cnt"}}, In: scanL},
		engine.AggP{Aggs: []algebra.AggSpec{{Fn: krel.CountStar, As: "cnt"}}, In: scanL}, // global agg: sequential sweep
		engine.DiffP{L: scanL, R: scanL},
		engine.DiffP{L: scanL, R: scanL, Streaming: true},
	}
}

// explainOpLabel maps an ExplainNode.Op to the label the executors give
// the matching stats node.
func explainOpLabel(op string) string {
	if op == "UnionAll" {
		return "Union"
	}
	return op
}

// opStatsChildren filters a stats node's children down to operator
// nodes, dropping the fragment and exchange nodes the executor
// interleaves — the remainder is isomorphic to the explain tree.
func opStatsChildren(st *engine.OpStats) []*engine.OpStats {
	var out []*engine.OpStats
	for _, c := range st.Children() {
		if c.Label == "fragment" || strings.HasPrefix(c.Label, "Exchange:") {
			continue
		}
		out = append(out, c)
	}
	return out
}

// countChildren counts a stats node's children whose label has the
// given prefix.
func countChildren(st *engine.OpStats, prefix string) int {
	n := 0
	for _, c := range st.Children() {
		if strings.HasPrefix(c.Label, prefix) {
			n++
		}
	}
	return n
}

// checkPlacementExecuted walks the explain and stats trees in lockstep
// and asserts that each node's printed placement is what executed.
func checkPlacementExecuted(t *testing.T, n *engine.ExplainNode, st *engine.OpStats, workers int) {
	t.Helper()
	if got := explainOpLabel(n.Op); got != st.Label {
		t.Fatalf("explain/stats trees diverged: explain op %q vs stats label %q", n.Op, st.Label)
	}
	if n.Placement == "" {
		t.Fatalf("%s: placement not annotated", n.Op)
	}
	// A printed width ×N is N fragment nodes; a sequential placement
	// records onto the operator node itself.
	wantFrags := 0
	if strings.Contains(n.Placement, "×") {
		wantFrags = workers
	}
	if got := countChildren(st, "fragment"); got != wantFrags {
		t.Fatalf("%s: placement %q, but %d fragment nodes executed (workers=%d)", n.Op, n.Placement, got, workers)
	}
	for via, label := range map[string]string{
		"via ordered-partition": "Exchange:ordered-partition",
		"via hash-partition":    "Exchange:partition",
	} {
		want := 0
		if strings.Contains(n.Placement, via) {
			want = len(n.Children) // one repartition per input
		}
		if got := countChildren(st, label); got != want {
			t.Fatalf("%s: placement %q, but %d %s nodes executed", n.Op, n.Placement, got, label)
		}
	}
	if workers == 1 && countChildren(st, "Exchange:") != 0 {
		t.Fatalf("%s: an exchange executed at one worker", n.Op)
	}
	ops := opStatsChildren(st)
	if len(ops) != len(n.Children) {
		t.Fatalf("%s: explain has %d children, stats tree has %d operator children", n.Op, len(n.Children), len(ops))
	}
	for i := range n.Children {
		checkPlacementExecuted(t, n.Children[i], ops[i], workers)
	}
}

func TestExplainPlacementIsExecutedPlacement(t *testing.T) {
	db := bigPipelineDB(800)
	for _, workers := range []int{1, 4} {
		for _, p := range placementPlans() {
			n := parallel.Explain(db, p, workers)
			col := engine.NewCollector()
			it, err := parallel.Exec(context.Background(), db, p,
				parallel.Options{Workers: workers, MorselSize: 16, Stats: col.Root.Child("result", "")})
			if err != nil {
				t.Fatalf("workers=%d plan %v: %v", workers, p, err)
			}
			engine.Materialize(it)
			it.Close()
			ops := opStatsChildren(col.RootOp())
			if len(ops) != 1 {
				t.Fatalf("workers=%d plan %v: expected one root operator node, got %d", workers, p, len(ops))
			}
			checkPlacementExecuted(t, n, ops[0], workers)
		}
	}
}
