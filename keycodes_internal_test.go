package snapk

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"snapk/internal/engine"
	"snapk/internal/rewrite"
	"snapk/internal/sqlfe"
)

// keyCodeQueries are a coalesce, a difference and a grouped
// aggregation: over a begin-sorted table each runs a streaming sweep
// that finds groups by the table's key codes.
var keyCodeQueries = []string{
	`SELECT k, v FROM t`,
	`SELECT k, v FROM t EXCEPT ALL SELECT k, v FROM t WHERE v < 2`,
	`SELECT v, count(*) AS n FROM t GROUP BY v`,
}

// sortedKeyTable returns a database at w fragments holding t (k, v):
// 60 rows inserted in begin order.
func sortedKeyTable(t *testing.T, w int) (*DB, *Table) {
	t.Helper()
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
	return db, tb
}

// checkKeyCodeQueries runs keyCodeQueries and requires each to match
// QueryAt, the abstract model, at every time point.
func checkKeyCodeQueries(t *testing.T, db *DB, label string) {
	t.Helper()
	flat := func(rows [][]any) string {
		var parts []string
		for _, r := range rows {
			parts = append(parts, fmt.Sprint(r...))
		}
		sort.Strings(parts)
		return strings.Join(parts, "; ")
	}
	for _, sql := range keyCodeQueries {
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
				t.Fatalf("%s: %s at %d gives %s, QueryAt %s", label, sql, tp, got, flat(want))
			}
		}
	}
}

// TestWritesDropKeyCodes runs keyCodeQueries over a begin-sorted table,
// then writes the table through Insert, Update and Delete over the whole
// domain: each write drops the cached codes, and the next queries build
// them again and match QueryAt at every time point.
func TestWritesDropKeyCodes(t *testing.T) {
	for _, w := range []int{1, 2} {
		db, tb := sortedKeyTable(t, w)
		check := func(after string) {
			t.Helper()
			checkKeyCodeQueries(t, db, fmt.Sprintf("W=%d after %s", w, after))
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

// TestWindowedWritesKeepBeginOrder writes a begin-sorted table through a
// windowed Update and a windowed Delete, each on a fresh copy. Both
// split rows whose later fragments begin inside the table, and the table
// must stay begin-sorted: keyCodeQueries match QueryAt at every time
// point, and at two fragments every sweep still streams and finds its
// groups by key codes, routed through the scan partition by code.
func TestWindowedWritesKeepBeginOrder(t *testing.T) {
	writes := []struct {
		name string
		fn   func(*Table) (int, error)
	}{
		{"Update", func(tb *Table) (int, error) { return tb.Update(10, 20, "k", 5, "v = 1") }},
		{"Delete", func(tb *Table) (int, error) { return tb.Delete(5, 15, "k = 2") }},
	}
	for _, wr := range writes {
		for _, w := range []int{1, 2} {
			db, tb := sortedKeyTable(t, w)
			affected, err := wr.fn(tb)
			if err != nil {
				t.Fatal(err)
			}
			if affected == 0 {
				t.Fatalf("the windowed %s wrote no row", wr.name)
			}
			if !tb.tbl.BeginSorted() || !engine.RowsBeginSorted(tb.tbl.Rows) {
				t.Fatalf("W=%d: a windowed %s left the table unsorted", w, wr.name)
			}
			label := fmt.Sprintf("W=%d after a windowed %s", w, wr.name)
			checkKeyCodeQueries(t, db, label)
			if w == 1 {
				continue
			}
			for _, sql := range keyCodeQueries {
				tree := analyzeQuery(t, db, sql)
				if !strings.Contains(tree, "[streaming]") || !strings.Contains(tree, "key_codes=") ||
					!strings.Contains(tree, "route=codes") || strings.Contains(tree, "route=hash") {
					t.Fatalf("%s: %s does not stream coded sweeps routed by code:\n%s", label, sql, tree)
				}
			}
		}
	}
}

// analyzeQuery runs sql through the executor with statistics collection
// on and returns the rendered EXPLAIN ANALYZE tree.
func analyzeQuery(t *testing.T, db *DB, sql string) string {
	t.Helper()
	q, err := sqlfe.ParseAndTranslate(sql, db.eng)
	if err != nil {
		t.Fatal(err)
	}
	opt := db.seqOptions(rewrite.ModeOptimized)
	opt.Collect = engine.NewCollector()
	it, err := rewrite.Stream(context.Background(), db.eng, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.MaterializeErr(it); err != nil {
		t.Fatal(err)
	}
	it.Close()
	return opt.Collect.Render()
}
