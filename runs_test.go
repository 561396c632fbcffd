// The cursor end of the run protocol: a difference whose segments carry
// high ℕ multiplicities reaches Rows as one row per segment with its
// count, and Rows repeats it. These tests pin what that must not change
// — row limits, Values ownership — and what it buys: allocations that
// do not grow with the multiplicity.
package snapk_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	snapk "snapk"
)

// runsDB builds l(x), two segments of mult copies each — ("a", [0, 10))
// and ("b", [20, 30)) — and r(x), one row no l row matches, so l EXCEPT
// ALL r is two runs of count mult. Inserted in ascending begin order
// both tables are begin-sorted and the difference streams; otherwise l
// is inserted descending and the difference blocks.
func runsDB(t testing.TB, mult int, sorted bool) *snapk.DB {
	t.Helper()
	db := snapk.New(0, 100)
	l, err := db.CreateTable("l", "x")
	if err != nil {
		t.Fatal(err)
	}
	r, err := db.CreateTable("r", "x")
	if err != nil {
		t.Fatal(err)
	}
	segs := []struct {
		b, e int64
		x    string
	}{{0, 10, "a"}, {20, 30, "b"}}
	if !sorted {
		segs[0], segs[1] = segs[1], segs[0]
	}
	for _, s := range segs {
		for range mult {
			if err := l.Insert(s.b, s.e, s.x); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := r.Insert(0, 5, "zz"); err != nil {
		t.Fatal(err)
	}
	return db
}

const runsSQL = `SEQ VT (SELECT x FROM l EXCEPT ALL SELECT x FROM r)`

// sweepForms runs fn on a database of each sweep form, checking that
// the plan really streams or blocks.
func sweepForms(t *testing.T, mult int, fn func(t *testing.T, db *snapk.DB)) {
	for _, sorted := range []bool{true, false} {
		db := runsDB(t, mult, sorted)
		want := "sweep=blocking"
		if sorted {
			want = "sweep=streaming"
		}
		plan, err := db.Explain(runsSQL)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, want) {
			t.Fatalf("plan does not show %s:\n%s", want, plan)
		}
		t.Run(want, func(t *testing.T) { fn(t, db) })
	}
}

// A row limit counts the rows runs stand for: limits 1, 93 and 94 on
// segments of multiplicity 94 deliver exactly that many rows — cutting
// the first run, or ending exactly at it — and then ErrRowLimit.
func TestRowLimitCutsRuns(t *testing.T) {
	sweepForms(t, 94, func(t *testing.T, db *snapk.DB) {
		for _, par := range []int{0, 4} {
			for _, limit := range []int64{1, 93, 94} {
				db.SetParallelism(par).SetQueryLimits(snapk.QueryLimits{RowLimit: limit})
				rows, err := db.QueryRows(context.Background(), runsSQL)
				if err != nil {
					t.Fatal(err)
				}
				var n int64
				for rows.Next() {
					n++
				}
				if !errors.Is(rows.Err(), snapk.ErrRowLimit) {
					t.Fatalf("par=%d limit=%d: Err = %v, want ErrRowLimit", par, limit, rows.Err())
				}
				if n != limit {
					t.Fatalf("par=%d limit=%d: %d rows delivered, want exactly the limit", par, limit, n)
				}
				rows.Close()
			}
		}
	})
}

// A cancel lands inside a run: the cursor repeats a run's row without
// pulling the root, so it checks the context itself while it repeats,
// and ends the stream with the cancellation long before the runs it
// holds — two of 10,000 rows each — are used up.
func TestRowsCancelInsideRun(t *testing.T) {
	sweepForms(t, 10000, func(t *testing.T, db *snapk.DB) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		rows, err := db.QueryRows(ctx, runsSQL)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		if !rows.Next() {
			t.Fatalf("no first row: %v", rows.Err())
		}
		cancel()
		n := 0
		for rows.Next() {
			n++
		}
		if !errors.Is(rows.Err(), context.Canceled) {
			t.Fatalf("Err = %v, want context.Canceled", rows.Err())
		}
		// The cursor checks every 4,096 repeats.
		if n > 4096 {
			t.Fatalf("%d rows delivered after the cancel", n)
		}
	})
}

// A repeated row's Values is a fresh slice with the run's values, even
// after the caller overwrote the slice Values returned for the copy
// before it.
func TestRowsRunValuesAreIndependent(t *testing.T) {
	sweepForms(t, 3, func(t *testing.T, db *snapk.DB) {
		rows, err := db.QueryRows(context.Background(), runsSQL)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		var got []string
		var prev []any
		for rows.Next() {
			v := rows.Values()
			if len(v) != 1 || cap(v) != 1 {
				t.Fatalf("Values has len %d, cap %d; want 1 and 1", len(v), cap(v))
			}
			if prev != nil && &prev[0] == &v[0] {
				t.Fatal("two copies of a run share one Values slice")
			}
			var x string
			if err := rows.Scan(&x); err != nil {
				t.Fatal(err)
			}
			if v[0] != x {
				t.Fatalf("Values = %v, Scan = %q", v, x)
			}
			got = append(got, x)
			v[0] = "overwritten"
			prev = v
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		if s := strings.Join(got, ""); s != "aaabbb" && s != "bbbaaa" {
			t.Fatalf("rows %v, want three a and three b, each segment's together", got)
		}
	})
}

// The gain, pinned in go test: draining a difference whose segments
// have multiplicity 1,000 through Next, Values and Period allocates a
// small constant more than draining one of multiplicity 1 — not a
// boxed string per row, as when every copy was a row of its own.
func TestRowsRunAllocsDoNotScale(t *testing.T) {
	drainAllocs := func(db *snapk.DB) float64 {
		return testing.AllocsPerRun(5, func() {
			rows, err := db.QueryRows(context.Background(), runsSQL)
			if err != nil {
				t.Fatal(err)
			}
			for rows.Next() {
				rows.Values()
				rows.Period()
			}
			if err := rows.Err(); err != nil {
				t.Fatal(err)
			}
			rows.Close()
		})
	}
	for _, sorted := range []bool{true, false} {
		one, many := drainAllocs(runsDB(t, 1, sorted)), drainAllocs(runsDB(t, 1000, sorted))
		// 2,000 rows out: a per-row cost would add about 2,000.
		if many-one > 100 {
			t.Fatalf("sorted=%v: %.0f allocations at multiplicity 1, %.0f at 1,000", sorted, one, many)
		}
	}
}

// The same gain for db.Query: its Seq path drains the root as runs,
// boxes each run's values once and carves every result row's Values
// from a slab, so a result of two segments of multiplicity 1,000
// allocates a small constant more than one of multiplicity 1 — while
// each of its 2,000 rows still gets a Values slice of its own.
func TestQueryRunAllocsDoNotScale(t *testing.T) {
	queryAllocs := func(db *snapk.DB) float64 {
		return testing.AllocsPerRun(5, func() {
			res, err := db.Query(runsSQL)
			if err != nil {
				t.Fatal(err)
			}
			if res.Len() == 0 {
				t.Fatal("empty result")
			}
		})
	}
	for _, sorted := range []bool{true, false} {
		db := runsDB(t, 1000, sorted)
		res, err := db.Query(runsSQL)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 2000 {
			t.Fatalf("sorted=%v: %d rows, want 2,000", sorted, res.Len())
		}
		res.Rows[0].Values[0] = "changed"
		if res.Rows[1].Values[0] != "a" && res.Rows[1].Values[0] != "b" {
			t.Fatalf("sorted=%v: rows of one run share their Values: %v", sorted, res.Rows[1].Values)
		}
		one, many := queryAllocs(runsDB(t, 1, sorted)), queryAllocs(db)
		// 2,000 rows out: a per-row cost would add about 2,000.
		if many-one > 100 {
			t.Fatalf("sorted=%v: %.0f allocations at multiplicity 1, %.0f at 1,000", sorted, one, many)
		}
		t.Logf("sorted=%v: %.0f allocations at multiplicity 1, %.0f at 1,000", sorted, one, many)
	}
}
