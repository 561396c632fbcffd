// EXPLAIN's placement and the executed plan come from the same two
// functions (place and exchangeFor, explain.go): this file executes
// plans with a collector attached and checks that what parallel.Explain
// printed for each node — its width, the exchange feeding it and its
// sweep form — is what the measured stats tree shows ran: that many
// per-worker fragment nodes, an exchange node of that kind, and a sweep
// of that form.
package parallel_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
	"snapk/internal/interval"
	"snapk/internal/krel"
)

// placementPlans is the plan set the placement test sweeps: one per
// placement-relevant build() case, and each sweep over sorted and over
// unsorted input. "l" is begin-sorted (bigPipelineDB, up to 1000 rows)
// and "u" is an unsorted copy of it (withUnsortedCopy).
func placementPlans() []engine.Plan {
	scanL := engine.ScanP{Name: "l"}
	scanR := engine.ScanP{Name: "r"}
	scanU := engine.ScanP{Name: "u"}
	cnt := []algebra.AggSpec{{Fn: krel.CountStar, As: "cnt"}}
	return []engine.Plan{
		engine.FilterP{Pred: algebra.Gt(algebra.Col("v"), algebra.IntC(10)), In: scanL},
		bigPipelinePlan(), // Project → equi Join → Filter → Scan
		engine.JoinP{L: scanL, R: scanR, Pred: algebra.BoolC(true)}, // overlap sweep: sequential
		engine.UnionP{L: scanL, R: scanL},
		engine.CoalesceP{In: scanL},
		engine.CoalesceP{In: scanU},
		engine.AggP{GroupBy: []string{"k"}, Aggs: cnt, In: scanL},
		engine.AggP{GroupBy: []string{"k"}, Aggs: cnt, PreAgg: true, In: scanU},
		engine.AggP{Aggs: cnt, In: scanL},               // naive global agg: sequential sweep
		engine.AggP{Aggs: cnt, PreAgg: true, In: scanL}, // streaming time partition
		engine.AggP{Aggs: cnt, PreAgg: true, In: scanU}, // unsorted: one blocking sweep over the merge
		// A global aggregation under a window and a filter: each fragment's
		// range merges into the window over the scan.
		engine.AggP{Aggs: cnt, PreAgg: true, In: engine.FilterP{Pred: algebra.Gt(algebra.Col("v"), algebra.IntC(10)),
			In: engine.WindowP{T: interval.New(100, 700), In: scanL}}},
		engine.DiffP{L: scanL, R: scanL},
		engine.DiffP{L: scanL, R: scanU}, // one sorted side: blocking
		// Pruned scans keep the stored table's order: the window over "u"
		// prunes it to nothing, and the sweep above still blocks.
		engine.CoalesceP{In: engine.WindowP{T: interval.New(100, 300), In: scanL}},
		engine.CoalesceP{In: engine.WindowP{T: interval.New(5000, 6000), In: scanU}},
	}
}

// withUnsortedCopy registers a copy of db's table "l" in reverse begin
// order as "u".
func withUnsortedCopy(t *testing.T, db *engine.DB) *engine.DB {
	t.Helper()
	l, err := db.Table("l")
	if err != nil {
		t.Fatal(err)
	}
	u := db.CreateTable("u", l.DataSchema())
	for i := len(l.Rows) - 1; i >= 0; i-- {
		u.Append(l.Rows[i][:l.DataArity()], l.Interval(l.Rows[i]), 1)
	}
	if u.BeginSorted() {
		t.Fatal("fixture: the reversed copy is begin-sorted")
	}
	return db
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
// and asserts that each node's printed placement is what executed. Under
// a time partition each fragment's input is the explain subtree, run at
// one worker.
func checkPlacementExecuted(t *testing.T, n *engine.ExplainNode, st *engine.OpStats, workers int) {
	t.Helper()
	if got := explainOpLabel(n.Op); got != st.Label {
		t.Fatalf("explain/stats trees diverged: explain op %q vs stats label %q", n.Op, st.Label)
	}
	if n.Placement == "" {
		t.Fatalf("%s: placement not annotated", n.Op)
	}
	// A printed width ×N is N fragment nodes; a sequential placement
	// records onto the operator node itself. Only a time partition may
	// run fewer fragments than workers: splits that coincide are dropped.
	timePart := strings.Contains(n.Placement, "via time-partition")
	wantFrags := 0
	if _, width, ok := strings.Cut(n.Placement, "×"); ok {
		if _, err := fmt.Sscanf(width, "%d", &wantFrags); err != nil {
			t.Fatalf("%s: placement %q: %v", n.Op, n.Placement, err)
		}
		if timePart && (wantFrags < 2 || wantFrags > workers) || !timePart && wantFrags != workers {
			t.Fatalf("%s: placement %q at %d workers", n.Op, n.Placement, workers)
		}
	}
	if got := countChildren(st, "fragment"); got != wantFrags {
		t.Fatalf("%s: placement %q, but %d fragment nodes executed (workers=%d)", n.Op, n.Placement, got, workers)
	}
	for via, label := range map[string]string{
		"via scan-partition": "Exchange:scan-partition",
		"via hash-partition": "Exchange:partition",
		"via time-partition": "Exchange:time-partition",
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
	// The sweep form EXPLAIN printed is the one that ran.
	if ran, _, _ := strings.Cut(st.Detail, " "); n.Mode != "" && ran != n.Mode {
		t.Fatalf("%s: explained sweep=%s, but the %q sweep executed", n.Op, n.Mode, st.Detail)
	}
	ops := opStatsChildren(st)
	if timePart {
		// One input per fragment, each built at one worker.
		if len(n.Children) != 1 || len(ops) != wantFrags {
			t.Fatalf("%s: placement %q, but %d inputs ran for %d explained", n.Op, n.Placement, len(ops), len(n.Children))
		}
		for _, op := range ops {
			checkPlacementExecuted(t, n.Children[0], op, 1)
		}
		return
	}
	if len(ops) != len(n.Children) {
		t.Fatalf("%s: explain has %d children, stats tree has %d operator children", n.Op, len(n.Children), len(ops))
	}
	for i := range n.Children {
		checkPlacementExecuted(t, n.Children[i], ops[i], workers)
	}
}

func TestExplainPlacementIsExecutedPlacement(t *testing.T) {
	db := withUnsortedCopy(t, bigPipelineDB(800))
	for _, workers := range []int{1, 2, 4} {
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
