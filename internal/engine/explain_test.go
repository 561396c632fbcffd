// Shape tests of the static EXPLAIN tree: plan isomorphism, sweep-mode
// classification, join strategy detail and the rendered text.
package engine_test

import (
	"strings"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/tuple"
)

// explainDB holds one unsorted and one begin-sorted table, so the same
// plan explains as blocking over one and streaming over the other.
func explainDB() *engine.DB {
	db := engine.NewDB(interval.NewDomain(0, 100))
	un := db.CreateTable("un", tuple.NewSchema("k", "v"))
	so := db.CreateTable("so", tuple.NewSchema("k", "w"))
	for i := 0; i < 20; i++ {
		b := int64((i * 7) % 50)
		un.Append(tuple.Tuple{tuple.Int(int64(i % 4)), tuple.Int(int64(i))}, interval.New(b, b+10), 1)
		so.Append(tuple.Tuple{tuple.Int(int64(i % 4)), tuple.Int(int64(i))}, interval.New(int64(i), int64(i)+10), 1)
	}
	return db
}

func TestExplainSweepForms(t *testing.T) {
	db := explainDB()
	un, so := engine.ScanP{Name: "un"}, engine.ScanP{Name: "so"}
	count := []algebra.AggSpec{{Fn: krel.CountStar, As: "cnt"}}
	cases := []struct {
		name string
		plan engine.Plan
		mode string
	}{
		{"blocking over unsorted", engine.CoalesceP{In: un}, "blocking"},
		{"streaming over sorted", engine.CoalesceP{In: so}, "streaming"},
		{"streaming through a window", engine.CoalesceP{In: engine.WindowP{T: interval.New(5, 15), In: so}}, "streaming"},
		{"blocking over a union of sorted scans", engine.CoalesceP{In: engine.UnionP{L: so, R: so}}, "blocking"},
		{"blocking over a sweep output", engine.CoalesceP{In: engine.DiffP{L: so, R: so}}, "blocking"},
		{"difference over two sorted inputs", engine.DiffP{L: so, R: so}, "streaming"},
		{"difference with one sorted side", engine.DiffP{L: so, R: un}, "blocking"},
		{"pre-aggregation over sorted", engine.AggP{Aggs: count, PreAgg: true, In: so}, "streaming"},
		{"naive split over sorted", engine.AggP{Aggs: count, In: so}, "blocking"},
	}
	for _, c := range cases {
		n := db.ExplainPlan(c.plan)
		if n.Mode != c.mode || n.Ordered {
			t.Fatalf("%s: got mode=%q ordered=%v, want %s and unordered", c.name, n.Mode, n.Ordered, c.mode)
		}
		if len(n.Children) != len(engine.Inputs(c.plan)) {
			t.Fatalf("%s: explain tree not isomorphic to the plan: %+v", c.name, n)
		}
	}
	// The sort property must be reported on the nodes that carry it.
	if db.ExplainPlan(engine.ScanP{Name: "un"}).Ordered {
		t.Fatal("unsorted scan must not report the order property")
	}
	if !db.ExplainPlan(engine.ScanP{Name: "so"}).Ordered {
		t.Fatal("begin-sorted scan must report the order property")
	}
	if db.ExplainPlan(engine.ScanP{Name: "so"}).EstRows != 20 {
		t.Fatal("scan must estimate its stored cardinality")
	}
}

// Every EXPLAIN node carries est_rows: exact on scans, heuristic but
// present above them, and -1 only when a table is unknown.
func TestExplainEstRowsOnEveryNode(t *testing.T) {
	db := explainDB()
	plan := engine.CoalesceP{
		In: engine.JoinP{
			L:    engine.FilterP{Pred: algebra.Eq(algebra.Col("k"), algebra.IntC(1)), In: engine.ScanP{Name: "un"}},
			R:    engine.WindowP{T: interval.New(5, 15), In: engine.ScanP{Name: "so"}},
			Pred: algebra.Eq(algebra.Col("k"), algebra.Col("r.k")),
		},
	}
	var walk func(n *engine.ExplainNode, path string)
	walk = func(n *engine.ExplainNode, path string) {
		if n.EstRows < 0 {
			t.Fatalf("node %s%s lacks est_rows", path, n.Op)
		}
		for _, c := range n.Children {
			walk(c, path+n.Op+"/")
		}
	}
	walk(db.ExplainPlan(plan), "")
	// Non-leaf estimates reflect the operators, not just the scan counts:
	// the window keeps a fraction of the 20 stored rows.
	root := db.ExplainPlan(plan)
	win := root.Children[0].Children[1]
	if win.Op != "Window" {
		t.Fatalf("explain tree shape changed: %+v", win)
	}
	if win.EstRows <= 0 || win.EstRows >= 20 {
		t.Fatalf("window est_rows = %d, want in (0, 20)", win.EstRows)
	}
	// Unknown tables surface as the -1 sentinel, not a fake estimate.
	if got := db.ExplainPlan(engine.ScanP{Name: "missing"}).EstRows; got != -1 {
		t.Fatalf("unknown-table est_rows = %d, want -1", got)
	}
}

// The Window node explains with its interval and, when the physical pass
// marked it, the prune annotation.
func TestExplainWindowNode(t *testing.T) {
	db := explainDB()
	T := interval.New(5, 15)
	n := db.ExplainPlan(engine.WindowP{T: T, In: engine.ScanP{Name: "so"}})
	if n.Op != "Window" || n.Detail != T.String() {
		t.Fatalf("window node = %q [%q], want Window [%s]", n.Op, n.Detail, T)
	}
	if len(n.Children) != 1 || n.Children[0].Op != "Scan" {
		t.Fatalf("window must have the scan child: %+v", n)
	}
	if !n.Ordered {
		t.Fatal("clip over a begin-sorted scan preserves the order property")
	}
	pruned := db.ExplainPlan(engine.WindowP{T: T, In: engine.ScanP{Name: "so"}, Prune: true})
	if !strings.Contains(pruned.Detail, "prune") {
		t.Fatalf("pruned window must render the prune annotation, got %q", pruned.Detail)
	}
}

func TestExplainJoinStrategy(t *testing.T) {
	db := explainDB()
	equi := engine.JoinP{
		L: engine.ScanP{Name: "un"}, R: engine.ScanP{Name: "so"},
		Pred: algebra.Eq(algebra.Col("k"), algebra.Col("r.k")),
	}
	n := db.ExplainPlan(equi)
	if n.Op != "Join" || !strings.Contains(n.Detail, "hash build=") {
		t.Fatalf("equi join must explain as a hash join with its build side: %+v", n)
	}
	if len(n.Children) != 2 {
		t.Fatalf("join must have two children, got %d", len(n.Children))
	}
	sweep := engine.JoinP{
		L: engine.ScanP{Name: "un"}, R: engine.ScanP{Name: "so"},
		Pred: algebra.BoolC(true),
	}
	if d := db.ExplainPlan(sweep).Detail; !strings.Contains(d, "overlap-sweep") {
		t.Fatalf("non-equi join must explain as the overlap sweep, got %q", d)
	}
	// A planner-pinned build side overrides the size heuristic in the
	// explained detail.
	for _, c := range []struct {
		side engine.BuildSide
		want string
	}{{engine.BuildLeftSide, "hash build=left"}, {engine.BuildRightSide, "hash build=right"}} {
		pinned := equi
		pinned.Build = c.side
		if d := db.ExplainPlan(pinned).Detail; !strings.Contains(d, c.want) {
			t.Fatalf("pinned build side must explain as %q, got %q", c.want, d)
		}
	}
}

func TestExplainRender(t *testing.T) {
	db := explainDB()
	plan := engine.CoalesceP{
		In: engine.AggP{
			GroupBy: []string{"k"},
			Aggs:    []algebra.AggSpec{{Fn: krel.CountStar, As: "cnt"}},
			PreAgg:  true,
			In:      engine.FilterP{Pred: algebra.Gt(algebra.Col("w"), algebra.IntC(3)), In: engine.ScanP{Name: "so"}},
		},
	}
	out := db.ExplainPlan(plan).Render()
	for _, want := range []string{
		"Coalesce sweep=blocking",
		"Agg [group_by=[k] pre-agg] sweep=streaming",
		"Filter [",
		"Scan [so] ordered",
		"est_rows=20", // the scan's exact cardinality, rendered
		"└─ ",         // tree drawing
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered EXPLAIN lacks %q:\n%s", want, out)
		}
	}
}

// PlanDataSchema must derive the executor's data schema without running
// the plan — the join-strategy detail depends on it.
func TestPlanDataSchema(t *testing.T) {
	db := explainDB()
	s, err := db.PlanDataSchema(engine.JoinP{
		L: engine.ScanP{Name: "un"}, R: engine.ScanP{Name: "so"},
		Pred: algebra.Eq(algebra.Col("k"), algebra.Col("r.k")),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Concat prefixes only the colliding right-side columns.
	if got := strings.Join(s.Cols, ","); got != "k,v,r.k,w" {
		t.Fatalf("join data schema = %q, want k,v,r.k,w", got)
	}
	if _, err := db.PlanDataSchema(engine.ScanP{Name: "missing"}); err == nil {
		t.Fatal("unknown table must surface a schema error")
	}
}
