package dataset

import (
	"testing"

	"snapk/internal/engine"
)

func TestEmployeesDeterministic(t *testing.T) {
	cfg := EmployeesConfig{NumEmployees: 100, NumDepartments: 5, Seed: 1}
	a, b := Employees(cfg), Employees(cfg)
	for _, name := range []string{"employees", "departments", "titles", "salaries", "dept_emp", "dept_manager"} {
		ta, err := a.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := b.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if ta.Len() != tb.Len() {
			t.Fatalf("%s not deterministic: %d vs %d", name, ta.Len(), tb.Len())
		}
		for i := range ta.Rows {
			if ta.Rows[i].Key() != tb.Rows[i].Key() {
				t.Fatalf("%s row %d differs", name, i)
			}
		}
	}
}

func TestEmployeesShape(t *testing.T) {
	cfg := EmployeesConfig{NumEmployees: 200, NumDepartments: 9, Seed: 42}
	db := Employees(cfg)
	counts := TableRowCounts(db, []string{"employees", "departments", "titles", "salaries", "dept_emp", "dept_manager"})
	if counts["employees"] != 200 {
		t.Errorf("employees = %d", counts["employees"])
	}
	if counts["departments"] != 9 {
		t.Errorf("departments = %d", counts["departments"])
	}
	if counts["salaries"] <= counts["employees"] {
		t.Errorf("salaries (%d) should exceed employees (%d): multiple salary periods each",
			counts["salaries"], counts["employees"])
	}
	if counts["dept_manager"] != 27 {
		t.Errorf("dept_manager = %d, want 27 (3 per department)", counts["dept_manager"])
	}
	// All rows within the domain.
	sal, _ := db.Table("salaries")
	for _, row := range sal.Rows {
		iv := sal.Interval(row)
		if !EmployeesDomain.ContainsInterval(iv) {
			t.Fatalf("salary period %v outside domain", iv)
		}
	}
}

func TestTPCBiHShape(t *testing.T) {
	db := TPCBiH(TPCBiHConfig{ScaleFactor: 0.1, Seed: 7})
	names := []string{"region", "nation", "customer", "supplier", "part", "partsupp", "orders", "lineitem"}
	counts := TableRowCounts(db, names)
	if counts["region"] != 5 || counts["nation"] != 25 {
		t.Errorf("reference tables wrong: %v", counts)
	}
	if counts["lineitem"] <= counts["orders"] {
		t.Errorf("lineitem (%d) should exceed orders (%d)", counts["lineitem"], counts["orders"])
	}
	// Scale factor grows the data.
	bigger := TPCBiH(TPCBiHConfig{ScaleFactor: 0.3, Seed: 7})
	bCounts := TableRowCounts(bigger, names)
	if bCounts["orders"] <= counts["orders"] {
		t.Errorf("scale factor did not grow orders: %d vs %d", bCounts["orders"], counts["orders"])
	}
	if counts["missing"] != 0 {
		// TableRowCounts returns -1 for unknown tables.
		if got := TableRowCounts(db, []string{"missing"})["missing"]; got != -1 {
			t.Errorf("missing table count = %d", got)
		}
	}
	// Line items valid within their domain.
	li, _ := db.Table("lineitem")
	for _, row := range li.Rows {
		if !TPCBiHDomain.ContainsInterval(li.Interval(row)) {
			t.Fatal("lineitem period outside domain")
		}
	}
}

func TestCoalesceInputProperties(t *testing.T) {
	db := CoalesceInput(500, 3)
	tb, err := db.Table("sal")
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 500 {
		t.Fatalf("rows = %d, want 500", tb.Len())
	}
	// The input must NOT already be coalesced — otherwise Figure 5
	// measures nothing.
	if engine.IsCoalesced(tb) {
		t.Fatal("coalescing input is already coalesced")
	}
	// Coalescing must shrink or restructure it.
	c := engine.Coalesce(tb)
	if c.Len() == 0 {
		t.Fatal("coalesced output empty")
	}
}

func TestConfigStrings(t *testing.T) {
	if DefaultEmployees.String() == "" || DefaultTPCBiH.String() == "" {
		t.Error("config Strings empty")
	}
}
