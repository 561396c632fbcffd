package snapk_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	snapk "snapk"
)

// TestQueryAtEqualsResultSlice is Thm 6.3 at the API surface: slicing
// the base tables at t and evaluating non-temporally (QueryAt) must give
// the same bag of rows as evaluating the full temporal query and slicing
// its result (Query().At).
func TestQueryAtEqualsResultSlice(t *testing.T) {
	db := factoryDB(t)
	queries := []string{
		`SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')`,
		`SEQ VT (SELECT skill FROM works)`,
		`SEQ VT (SELECT skill FROM assign EXCEPT ALL SELECT skill FROM works)`,
		`SEQ VT (SELECT w.name AS n, a.mach AS m FROM works w JOIN assign a ON w.skill = a.skill)`,
		`SEQ VT (SELECT skill, count(*) AS c FROM works GROUP BY skill)`,
	}
	asBag := func(rows [][]any) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprintf("%v", r)
		}
		sort.Strings(out)
		return out
	}
	for _, sql := range queries {
		full, err := db.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		for _, tp := range []int64{0, 3, 8, 12, 19, 23} {
			fast, err := db.QueryAt(sql, tp)
			if err != nil {
				t.Fatalf("%s at %d: %v", sql, tp, err)
			}
			a, b := asBag(fast), asBag(full.At(tp))
			if len(a) != len(b) {
				t.Fatalf("%s at %d: QueryAt %v vs slice %v", sql, tp, a, b)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s at %d: QueryAt %v vs slice %v", sql, tp, a, b)
				}
			}
		}
	}
}

// A sum's result kind is a function of its snapshot: after the only
// float has left, the segment sums integers and is an Int, as QueryAt
// computes it from the snapshot alone. Checked in both sweep forms
// (rows inserted begin-sorted stream, unsorted ones block) at one and
// two workers.
func TestSumKindFollowsSnapshot(t *testing.T) {
	typed := func(rows [][]any) string {
		var parts []string
		for _, r := range rows {
			for _, v := range r {
				parts = append(parts, fmt.Sprintf("%T(%v)", v, v))
			}
		}
		sort.Strings(parts)
		return strings.Join(parts, " ")
	}
	for _, sorted := range []bool{false, true} {
		for _, w := range []int{1, 2} {
			db := snapk.New(0, 20).SetParallelism(w)
			tb, err := db.CreateTable("t", "g", "v")
			if err != nil {
				t.Fatal(err)
			}
			rows := []struct {
				b, e int64
				v    any
			}{{2, 10, 1}, {0, 5, 2.5}}
			if sorted {
				rows[0], rows[1] = rows[1], rows[0]
			}
			for _, r := range rows {
				if err := tb.Insert(r.b, r.e, "x", r.v); err != nil {
					t.Fatal(err)
				}
			}
			for _, sql := range []string{`SELECT sum(v) AS s FROM t`, `SELECT g, sum(v) AS s FROM t GROUP BY g`} {
				res, err := db.Query(sql)
				if err != nil {
					t.Fatal(err)
				}
				for _, tp := range []int64{3, 7} {
					want, err := db.QueryAt(sql, tp)
					if err != nil {
						t.Fatal(err)
					}
					if got := typed(res.At(tp)); got != typed(want) {
						t.Fatalf("sorted=%v W=%d %s at %d: Query gives %s, QueryAt %s", sorted, w, sql, tp, got, typed(want))
					}
				}
			}
		}
	}
}

func TestQueryAtMultiplicities(t *testing.T) {
	db := factoryDB(t)
	// At 08:00 both Ann and Sam are SP: projection to skill has SP twice.
	rows, err := db.QueryAt(`SEQ VT (SELECT skill FROM works WHERE skill = 'SP')`, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestCreateTableFromCSV(t *testing.T) {
	db := factoryDB(t)
	csv := "mach,skill,begin,end\nM9,SP,0,24\n"
	tb, err := db.CreateTableFromCSV("extra", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 1 || tb.Columns()[0] != "mach" {
		t.Fatalf("table = %v rows, cols %v", tb.Rows(), tb.Columns())
	}
	res, err := db.Query(`SELECT mach FROM extra`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0].Values[0] != "M9" {
		t.Fatalf("result = %v", res.Rows)
	}
	// Duplicate name rejected.
	if _, err := db.CreateTableFromCSV("extra", strings.NewReader(csv)); err == nil {
		t.Error("duplicate table must error")
	}
	// Bad CSV rejected.
	if _, err := db.CreateTableFromCSV("bad", strings.NewReader("x\n")); err == nil {
		t.Error("bad csv must error")
	}
	// Period outside the DB domain rejected.
	if _, err := db.CreateTableFromCSV("far", strings.NewReader("a,begin,end\n1,0,9999\n")); err == nil {
		t.Error("out-of-domain period must error")
	}
}

func TestWriteCSVRoundtrip(t *testing.T) {
	db := factoryDB(t)
	res, err := db.Query(`SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')`)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := res.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "cnt,begin,end\n") {
		t.Fatalf("csv = %q", out)
	}
	if !strings.Contains(out, "0,0,3") || !strings.Contains(out, "2,8,10") {
		t.Fatalf("csv missing rows:\n%s", out)
	}
	// Load the result back as a table and query it.
	db2 := snapk.New(0, 24)
	if _, err := db2.CreateTableFromCSV("cnts", strings.NewReader(out)); err != nil {
		t.Fatal(err)
	}
	res2, err := db2.Query(`SELECT cnt FROM cnts WHERE cnt > 0`)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Len() != 4 {
		t.Fatalf("reloaded result = %v", res2.Rows)
	}
}

func TestTableWriteCSV(t *testing.T) {
	db := factoryDB(t)
	// Retrieve table handle by creating a fresh one.
	tb, err := db.CreateTable("scratch", "v")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(1, 5, 42); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != "v,begin,end\n42,1,5\n" {
		t.Fatalf("csv = %q", b.String())
	}
}
