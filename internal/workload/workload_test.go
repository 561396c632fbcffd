package workload_test

import (
	"testing"

	"snapk/internal/baseline"
	"snapk/internal/dataset"
	"snapk/internal/engine"
	"snapk/internal/rewrite"
	"snapk/internal/semiring"
	"snapk/internal/telement"
	"snapk/internal/tuple"
	"snapk/internal/workload"
)

func smallEmployees() *engine.DB {
	return dataset.Employees(dataset.EmployeesConfig{NumEmployees: 150, NumDepartments: 5, Seed: 42})
}

func smallTPCBiH() *engine.DB {
	return dataset.TPCBiH(dataset.TPCBiHConfig{ScaleFactor: 0.05, Seed: 7})
}

// TestEmployeeQueriesRun translates and executes all ten Employee queries
// and checks that optimized and naive rewrite modes agree — the §9
// optimizations must not change results.
func TestEmployeeQueriesRun(t *testing.T) {
	db := smallEmployees()
	alg := telement.NewMAlgebra[int64](semiring.N, db.Domain())
	for _, wq := range workload.Employees() {
		q, err := wq.Translate(db)
		if err != nil {
			t.Fatalf("%s: %v", wq.ID, err)
		}
		opt, err := rewrite.Run(db, q, rewrite.Options{Mode: rewrite.ModeOptimized})
		if err != nil {
			t.Fatalf("%s optimized: %v", wq.ID, err)
		}
		naive, err := rewrite.Run(db, q, rewrite.Options{Mode: rewrite.ModeNaive})
		if err != nil {
			t.Fatalf("%s naive: %v", wq.ID, err)
		}
		if !engine.EqualAsPeriodRelations(opt, naive, alg) {
			t.Fatalf("%s: optimized and naive modes disagree", wq.ID)
		}
		if !engine.IsCoalesced(opt) {
			t.Fatalf("%s: result not coalesced", wq.ID)
		}
		if opt.Len() == 0 && wq.ID != "join-3" {
			t.Errorf("%s: empty result on test data", wq.ID)
		}
	}
}

// TestTPCHQueriesRun does the same for the nine TPC-BiH queries.
func TestTPCHQueriesRun(t *testing.T) {
	db := smallTPCBiH()
	alg := telement.NewMAlgebra[int64](semiring.N, db.Domain())
	for _, wq := range workload.TPCH() {
		q, err := wq.Translate(db)
		if err != nil {
			t.Fatalf("%s: %v", wq.ID, err)
		}
		opt, err := rewrite.Run(db, q, rewrite.Options{Mode: rewrite.ModeOptimized})
		if err != nil {
			t.Fatalf("%s optimized: %v", wq.ID, err)
		}
		naive, err := rewrite.Run(db, q, rewrite.Options{Mode: rewrite.ModeNaive})
		if err != nil {
			t.Fatalf("%s naive: %v", wq.ID, err)
		}
		if !engine.EqualAsPeriodRelations(opt, naive, alg) {
			t.Fatalf("%s: optimized and naive modes disagree", wq.ID)
		}
	}
}

// TestAGFlaggedQueriesHaveGapRows: the queries flagged AG in Table 3 are
// exactly those whose correct result contains rows over gaps that the
// native approaches miss.
func TestAGFlaggedQueriesHaveGapRows(t *testing.T) {
	db := smallEmployees()
	for _, id := range []string{"agg-2", "agg-3"} {
		wq, ok := workload.ByID(workload.Employees(), id)
		if !ok {
			t.Fatalf("%s missing", id)
		}
		q, err := wq.Translate(db)
		if err != nil {
			t.Fatal(err)
		}
		correct, err := rewrite.Run(db, q, rewrite.Options{})
		if err != nil {
			t.Fatal(err)
		}
		buggy, err := baseline.Eval(db, q, baseline.IntervalPreservation)
		if err != nil {
			t.Fatal(err)
		}
		buggyC := engine.Coalesce(buggy)
		if buggyC.Len() >= correct.Len() {
			t.Errorf("%s: expected the AG bug to lose rows (buggy %d, correct %d)", id, buggyC.Len(), correct.Len())
		}
	}
}

// TestBDFlaggedQueriesDiffer: the diff queries flagged BD produce strictly
// fewer rows under NOT EXISTS semantics.
func TestBDFlaggedQueriesDiffer(t *testing.T) {
	db := smallEmployees()
	alg := telement.NewMAlgebra[int64](semiring.N, db.Domain())
	for _, id := range []string{"diff-2"} {
		wq, _ := workload.ByID(workload.Employees(), id)
		q, err := wq.Translate(db)
		if err != nil {
			t.Fatal(err)
		}
		correct, err := rewrite.Run(db, q, rewrite.Options{})
		if err != nil {
			t.Fatal(err)
		}
		buggy, err := baseline.Eval(db, q, baseline.IntervalPreservation)
		if err != nil {
			t.Fatal(err)
		}
		if engine.EqualAsPeriodRelations(correct, buggy, alg) {
			t.Errorf("%s: NOT EXISTS difference unexpectedly matches bag difference", id)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := workload.ByID(workload.Employees(), "join-1"); !ok {
		t.Error("join-1 missing")
	}
	if _, ok := workload.ByID(workload.Employees(), "nope"); ok {
		t.Error("nope found")
	}
	if len(workload.Employees()) != 10 {
		t.Errorf("Employee workload has %d queries, want 10", len(workload.Employees()))
	}
	if len(workload.TPCH()) != 9 {
		t.Errorf("TPC-H workload has %d queries, want 9", len(workload.TPCH()))
	}
}

// TestAggJoinSanity: agg-join's result must contain at most one name per
// department-time, and every name must be an employee.
func TestAggJoinSanity(t *testing.T) {
	db := smallEmployees()
	wq, _ := workload.ByID(workload.Employees(), "agg-join")
	q, err := wq.Translate(db)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rewrite.Run(db, q, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("agg-join produced no rows")
	}
	for _, row := range res.Rows {
		if row[0].Kind() != tuple.KindString {
			t.Fatalf("agg-join row %v has non-string name", row)
		}
	}
}

// TestUnsortedWorkloadsBuildNoKeyCodes runs the Employee and TPC-BiH
// queries — Table 3's mix — at one and two workers over their unsorted
// tables, where every sweep blocks, and checks that no table holds key
// codes afterwards: only a streaming sweep over a scan asks for them.
func TestUnsortedWorkloadsBuildNoKeyCodes(t *testing.T) {
	for _, tc := range []struct {
		db      *engine.DB
		queries []workload.Query
		tables  []string
	}{
		{smallEmployees(), workload.Employees(), []string{"departments", "employees", "titles", "salaries", "dept_emp", "dept_manager"}},
		{smallTPCBiH(), workload.TPCH(), []string{"region", "nation", "customer", "supplier", "part", "partsupp", "orders", "lineitem"}},
	} {
		for _, wq := range tc.queries {
			q, err := wq.Translate(tc.db)
			if err != nil {
				t.Fatalf("%s: %v", wq.ID, err)
			}
			for _, w := range []int{1, 2} {
				if _, err := rewrite.Run(tc.db, q, rewrite.Options{Mode: rewrite.ModeOptimized, Parallelism: w}); err != nil {
					t.Fatalf("%s at %d workers: %v", wq.ID, w, err)
				}
			}
		}
		for _, name := range tc.tables {
			tbl, err := tc.db.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			if got, rows := tbl.SizeBytes(), int64(tbl.Len())*engine.ApproxRowBytes(tbl.Schema.Arity()); got != rows {
				t.Fatalf("%s holds %d bytes of key codes after the queries", name, got-rows)
			}
		}
	}
}
