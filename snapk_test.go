package snapk_test

import (
	"strings"
	"testing"

	snapk "snapk"
)

func factoryDB(t *testing.T) *snapk.DB {
	t.Helper()
	db := snapk.New(0, 24)
	works, err := db.CreateTable("works", "name", "skill")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		b, e  int64
		name  string
		skill string
	}{
		{3, 10, "Ann", "SP"}, {8, 16, "Joe", "NS"}, {8, 16, "Sam", "SP"}, {18, 20, "Ann", "SP"},
	} {
		if err := works.Insert(r.b, r.e, r.name, r.skill); err != nil {
			t.Fatal(err)
		}
	}
	assign, err := db.CreateTable("assign", "mach", "skill")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		b, e  int64
		mach  string
		skill string
	}{
		{3, 12, "M1", "SP"}, {6, 14, "M2", "SP"}, {3, 16, "M3", "NS"},
	} {
		if err := assign.Insert(r.b, r.e, r.mach, r.skill); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestQuickstartQonduty(t *testing.T) {
	db := factoryDB(t)
	res, err := db.Query(`SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 7 {
		t.Fatalf("Qonduty has %d rows, want 7 (Figure 1b):\n%s", res.Len(), res)
	}
	// Snapshot at 08:00 has exactly one row with cnt = 2.
	snap := res.At(8)
	if len(snap) != 1 || snap[0][0].(int64) != 2 {
		t.Fatalf("At(8) = %v", snap)
	}
	// Gaps report 0.
	if snap := res.At(0); len(snap) != 1 || snap[0][0].(int64) != 0 {
		t.Fatalf("At(0) = %v", snap)
	}
	s := res.String()
	if !strings.Contains(s, "cnt") || !strings.Contains(s, "[0, 3)") {
		t.Errorf("String missing pieces:\n%s", s)
	}
}

func TestBagDifferenceViaFacade(t *testing.T) {
	db := factoryDB(t)
	res, err := db.Query(`SEQ VT (SELECT skill FROM assign EXCEPT ALL SELECT skill FROM works)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("Qskillreq has %d rows, want 3 (Figure 1c):\n%s", res.Len(), res)
	}
}

func TestApproachesDisagreeOnBugs(t *testing.T) {
	db := factoryDB(t)
	q := `SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')`
	correct, err := db.QueryWith(q, snapk.Seq)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := db.QueryWith(q, snapk.SeqNaive)
	if err != nil {
		t.Fatal(err)
	}
	if naive.Len() != correct.Len() {
		t.Fatal("SeqNaive must agree with Seq")
	}
	for _, ap := range []snapk.Approach{snapk.NativeIntervalPreservation, snapk.NativeAlignment} {
		buggy, err := db.QueryWith(q, ap)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range buggy.Rows {
			if row.Values[0].(int64) == 0 {
				t.Fatalf("%v should exhibit the AG bug (no count-0 rows)", ap)
			}
		}
	}
}

func TestInsertValidation(t *testing.T) {
	db := snapk.New(0, 10)
	tb, err := db.CreateTable("t", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		b, e int64
		vals []any
	}{
		{5, 5, []any{1, 2}},          // empty period
		{8, 12, []any{1, 2}},         // outside domain
		{0, 5, []any{1}},             // arity
		{0, 5, []any{1, struct{}{}}}, // bad type
	}
	for i, c := range cases {
		if err := tb.Insert(c.b, c.e, c.vals...); err == nil {
			t.Errorf("case %d: no error", i)
		}
	}
	if err := tb.Insert(0, 5, nil, 2.5); err != nil {
		t.Errorf("null/float insert failed: %v", err)
	}
	if tb.Rows() != 1 {
		t.Errorf("Rows = %d", tb.Rows())
	}
	if tb.Name() != "t" || len(tb.Columns()) != 2 {
		t.Error("metadata accessors broken")
	}
}

// Periods spread wider than 2⁵⁹ (Unix nanoseconds from epoch 0 to
// today) must not overflow the planner's begin histogram: a three-way
// equi-join estimates its inputs from it while choosing a join
// strategy.
func TestWideBeginSpreadJoin(t *testing.T) {
	const far = 3 << 59
	db := snapk.New(0, far+10)
	for _, name := range []string{"a", "b", "c"} {
		tb, err := db.CreateTable(name, name+"k")
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.Insert(0, 10, 1); err != nil {
			t.Fatal(err)
		}
		if err := tb.Insert(far, far+5, 1); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Query(`SELECT ak FROM a JOIN b ON ak = bk JOIN c ON bk = ck`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.At(far); len(got) != 1 {
		t.Fatalf("At(%d) = %v, want one row", int64(far), got)
	}
	if got := res.At(3); len(got) != 1 {
		t.Fatalf("At(3) = %v, want one row", got)
	}
}

func TestCreateTableValidation(t *testing.T) {
	db := snapk.New(0, 10)
	if _, err := db.CreateTable("t"); err == nil {
		t.Error("no columns should error")
	}
	if _, err := db.CreateTable("t", "_begin"); err == nil {
		t.Error("reserved column should error")
	}
	if _, err := db.CreateTable("t", "a", "a"); err == nil {
		t.Error("duplicate column should error")
	}
	if _, err := db.CreateTable("t", "a"); err != nil {
		t.Error(err)
	}
	if _, err := db.CreateTable("t", "a"); err == nil {
		t.Error("duplicate table should error")
	}
}

func TestQueryErrors(t *testing.T) {
	db := snapk.New(0, 10)
	if _, err := db.Query(`SELECT * FROM nope`); err == nil {
		t.Error("unknown table should error")
	}
	if _, err := db.Query(`not sql`); err == nil {
		t.Error("parse error expected")
	}
	if _, err := db.QueryWith(`SELECT 1 AS one FROM nope`, snapk.Approach(99)); err == nil {
		t.Error("unknown approach should error")
	}
}

func TestDomainAccessorsAndExplain(t *testing.T) {
	db := factoryDB(t)
	if db.MinTime() != 0 || db.MaxTime() != 24 {
		t.Error("domain accessors broken")
	}
	plan, err := db.Explain(`SEQ VT (SELECT count(*) AS cnt FROM works)`)
	if err != nil {
		t.Fatal(err)
	}
	// The aggregation emits the unique encoding: no coalesce above it.
	// factory's works table is begin-sorted, so the sweep streams.
	if strings.Contains(plan, "Coalesce") || !strings.Contains(plan, "Agg") ||
		!strings.Contains(plan, "sweep=streaming") {
		t.Errorf("Explain = %q", plan)
	}
	if _, err := db.Explain(`bad`); err == nil {
		t.Error("Explain must propagate parse errors")
	}
}

func TestApproachString(t *testing.T) {
	names := map[snapk.Approach]string{
		snapk.Seq: "Seq", snapk.SeqNaive: "Seq-naive",
		snapk.NativeIntervalPreservation: "Nat-ip", snapk.NativeAlignment: "Nat-align",
	}
	for ap, want := range names {
		if got := ap.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(ap), got, want)
		}
	}
}

// Result.String must sort numeric columns numerically: 9 before 10, not
// the lexicographic "10" < "9" the old formatValue-based comparison
// produced.
func TestResultSortsNumericallyNotLexicographically(t *testing.T) {
	db := snapk.New(0, 100)
	tbl, err := db.CreateTable("t", "n", "f")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{10, 9, 100, 2} {
		if err := tbl.Insert(0, 10, n, float64(n)/2); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Query(`SELECT n, f FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	order := []string{"2 ", "9 ", "10 ", "100 "}
	last := -1
	for _, frag := range order {
		i := strings.Index(out, "\n"+frag)
		if i < 0 {
			t.Fatalf("row starting with %q missing:\n%s", frag, out)
		}
		if i < last {
			t.Fatalf("row %q out of numeric order:\n%s", frag, out)
		}
		last = i
	}
	// Mixed int/float and NULL ordering must not panic and puts NULL first.
	mixed, err := db.CreateTable("m", "v")
	if err != nil {
		t.Fatal(err)
	}
	must := func(e error) {
		if e != nil {
			t.Fatal(e)
		}
	}
	must(mixed.Insert(0, 5, 2))
	must(mixed.Insert(0, 5, 1.5))
	must(mixed.Insert(0, 5, nil))
	res, err = db.Query(`SELECT v FROM m`)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(res.String()), "\n")
	if len(lines) != 5 { // header + separator + 3 rows
		t.Fatalf("unexpected output:\n%s", res)
	}
	for i, want := range []string{"NULL", "1.5", "2"} {
		if !strings.HasPrefix(lines[2+i], want) {
			t.Fatalf("row %d = %q, want prefix %q\n%s", i, lines[2+i], want, res)
		}
	}
}
