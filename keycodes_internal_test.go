package snapk

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"snapk/internal/engine"
)

// TestWritesDropKeyCodes runs a coalesce, a difference and a grouped
// aggregation over a begin-sorted table, whose sweeps find groups by the
// table's key codes, then writes the table through Insert, Update and
// Delete over the whole domain, which keep the rows in begin order: each
// write drops the cached codes, and the next queries build them again
// and match QueryAt, the abstract model, at every time point.
func TestWritesDropKeyCodes(t *testing.T) {
	queries := []string{
		`SELECT k, v FROM t`,
		`SELECT k, v FROM t EXCEPT ALL SELECT k, v FROM t WHERE v < 2`,
		`SELECT v, count(*) AS n FROM t GROUP BY v`,
	}
	flat := func(rows [][]any) string {
		var parts []string
		for _, r := range rows {
			parts = append(parts, fmt.Sprint(r...))
		}
		sort.Strings(parts)
		return strings.Join(parts, "; ")
	}
	for _, w := range []int{1, 2} {
		db := New(0, 40).SetParallelism(w)
		tb, err := db.CreateTable("t", "k", "v")
		if err != nil {
			t.Fatal(err)
		}
		for i := range int64(60) {
			if err := tb.Insert(i/2, i/2+3+i%5, i%7, i%4); err != nil {
				t.Fatal(err)
			}
		}
		check := func(after string) {
			t.Helper()
			for _, sql := range queries {
				res, err := db.Query(sql)
				if err != nil {
					t.Fatal(err)
				}
				for tp := int64(0); tp < 40; tp++ {
					want, err := db.QueryAt(sql, tp)
					if err != nil {
						t.Fatal(err)
					}
					if got := flat(res.At(tp)); got != flat(want) {
						t.Fatalf("W=%d after %s: %s at %d gives %s, QueryAt %s", w, after, sql, tp, got, flat(want))
					}
				}
			}
			rows := int64(tb.tbl.Len()) * engine.ApproxRowBytes(tb.tbl.Schema.Arity())
			if tb.tbl.SizeBytes() == rows {
				t.Fatalf("W=%d after %s: the queries built no key codes", w, after)
			}
		}
		writes := []struct {
			name string
			fn   func() error
		}{
			{"Insert", func() error { return tb.Insert(35, 38, 3, 1) }},
			{"Update", func() error { _, err := tb.Update(0, 40, "k", 5, "v = 1"); return err }},
			{"Delete", func() error { _, err := tb.Delete(0, 40, "k = 2"); return err }},
		}
		check("loading")
		for _, wr := range writes {
			if err := wr.fn(); err != nil {
				t.Fatal(err)
			}
			if got, rows := tb.tbl.SizeBytes(), int64(tb.tbl.Len())*engine.ApproxRowBytes(tb.tbl.Schema.Arity()); got != rows {
				t.Fatalf("W=%d: %s kept %d bytes of key codes", w, wr.name, got-rows)
			}
			check(wr.name)
		}
	}
}
