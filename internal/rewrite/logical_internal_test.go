package rewrite

// Plan-shape pins for phase 1, the logical pass: where it moves
// selections and which columns it leaves on join inputs (the mechanism),
// and that plans with no join to feed are the ones planQuery — the
// pre-pass form — would build anyway (the bypass).

import (
	"strings"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/dataset"
	"snapk/internal/engine"
	"snapk/internal/workload"
)

func planWorkload(t *testing.T, db *engine.DB, qs []workload.Query, id string) engine.Plan {
	t.Helper()
	wq, ok := workload.ByID(qs, id)
	if !ok {
		t.Fatalf("no workload query %s", id)
	}
	q, err := wq.Translate(db)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := PlanQuery(q, db, Options{Mode: ModeOptimized})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// find returns the first node of p, in pre-order, that match accepts.
func find(p engine.Plan, match func(engine.Plan) bool) engine.Plan {
	if match(p) {
		return p
	}
	for _, in := range engine.Inputs(p) {
		if n := find(in, match); n != nil {
			return n
		}
	}
	return nil
}

// TestAbsorbAggJoinPlanShape: agg-join's WHERE s.salary = mx.max_salary
// used to filter a join keyed on dept_no alone; absorbed, it is the top
// join's second equi-key and no Filter is left anywhere in the plan.
func TestAbsorbAggJoinPlanShape(t *testing.T) {
	db := dataset.Employees(dataset.EmployeesConfig{NumEmployees: 50, NumDepartments: 3, Seed: 1})
	p := planWorkload(t, db, workload.Employees(), "agg-join")
	if f := find(p, func(n engine.Plan) bool { _, ok := n.(engine.FilterP); return ok }); f != nil {
		t.Fatalf("agg-join still has a Filter: %s", f)
	}
	top := find(p, func(n engine.Plan) bool { _, ok := n.(engine.JoinP); return ok }).(engine.JoinP)
	conj := algebra.Conjuncts(top.Pred)
	if len(conj) != 2 {
		t.Fatalf("top join predicate = %s, want two conjuncts", top.Pred)
	}
	for _, c := range conj {
		if b, ok := c.(algebra.BinOp); !ok || b.Op != algebra.OpEq {
			t.Fatalf("top join conjunct %s is not an equality", c)
		}
	}
	if !strings.Contains(top.Pred.String(), "(s.salary = mx.max_salary)") {
		t.Fatalf("top join predicate = %s", top.Pred)
	}
	prep, err := db.PlanJoinPrep(top)
	if err != nil || !prep.HasEquiKey() {
		t.Fatalf("top join is not a hash join: %v", err)
	}
}

// TestPruneColsQ5PlanShape: Q5's r_name = 'ASIA' sits directly on the
// region scan, its cross-side c_nationkey = s_nationkey is a key of the
// supplier join, and the lineitem input carries 4 of its 11 columns.
func TestPruneColsQ5PlanShape(t *testing.T) {
	db := dataset.TPCBiH(dataset.TPCBiHConfig{ScaleFactor: 0.01, Seed: 1})
	p := planWorkload(t, db, workload.TPCH(), "Q5")
	f, ok := find(p, func(n engine.Plan) bool { _, ok := n.(engine.FilterP); return ok }).(engine.FilterP)
	if !ok || f.Pred.String() != "(r_name = 'ASIA')" {
		t.Fatalf("filter = %v, want r_name = 'ASIA'", f)
	}
	if scan, ok := f.In.(engine.ScanP); !ok || scan.Name != "region" {
		t.Fatalf("the filter sits over %s, want the region scan", f.In)
	}
	overScan := func(table string) engine.ProjectP {
		n := find(p, func(n engine.Plan) bool {
			pr, ok := n.(engine.ProjectP)
			if !ok {
				return false
			}
			scan, ok := pr.In.(engine.ScanP)
			return ok && scan.Name == table
		})
		if n == nil {
			t.Fatalf("no projection over the %s scan in %s", table, p)
		}
		return n.(engine.ProjectP)
	}
	var cols []string
	for _, ne := range overScan("lineitem").Exprs {
		cols = append(cols, ne.Name)
	}
	if got := strings.Join(cols, ","); got != "l.l_orderkey,l.l_suppkey,l.l_extendedprice,l.l_discount" {
		t.Fatalf("lineitem input columns = %s", got)
	}
	if !strings.Contains(p.String(), "TJoin[((l.l_suppkey = s.s_suppkey) AND (c.c_nationkey = s.s_nationkey))]") {
		t.Fatalf("c_nationkey = s_nationkey did not join the supplier key: %s", p)
	}
}

// TestSingleTablePlansUntouched: the pass has nothing to place on a
// query with no join — the spine's five fig5 pipelines and diff-1 plan
// byte-identically with it (PlanQuery) and without (planQuery), so the
// fig5 workloads bypass the mechanism.
func TestSingleTablePlansUntouched(t *testing.T) {
	sqls := []string{
		`SELECT emp_no, salary FROM sal`,
		`SELECT emp_no FROM sal WHERE salary < 45000`,
		`SELECT salary, count(*) AS c FROM sal GROUP BY salary`,
		`SELECT count(*) AS c FROM sal`,
		`SELECT emp_no, salary FROM sal EXCEPT ALL SELECT emp_no, salary FROM sal WHERE salary < 45000`,
	}
	check := func(db *engine.DB, q algebra.Query, label string) {
		t.Helper()
		opt := Options{Mode: ModeOptimized}
		with, _, err := PlanQuery(q, db, opt)
		if err != nil {
			t.Fatal(err)
		}
		without, _, err := planQuery(q, opt)
		if err != nil {
			t.Fatal(err)
		}
		if with.String() != without.String() {
			t.Fatalf("%s: the logical pass changed a single-table plan\nwith:    %s\nwithout: %s", label, with, without)
		}
	}
	fig5 := dataset.CoalesceInput(100, 1)
	for _, sql := range sqls {
		q, err := (workload.Query{ID: sql, SQL: sql}).Translate(fig5)
		if err != nil {
			t.Fatal(err)
		}
		check(fig5, q, sql)
	}
	emp := dataset.Employees(dataset.EmployeesConfig{NumEmployees: 50, NumDepartments: 3, Seed: 1})
	wq, _ := workload.ByID(workload.Employees(), "diff-1")
	q, err := wq.Translate(emp)
	if err != nil {
		t.Fatal(err)
	}
	check(emp, q, "diff-1")
}
