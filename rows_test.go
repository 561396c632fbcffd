package snapk_test

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	snapk "snapk"
	"snapk/internal/obs"
)

// The cursor must stream the same rows Query materializes, and expose
// them through Columns/Scan/Values/Period.
func TestQueryRowsMatchesQuery(t *testing.T) {
	db := factoryDB(t)
	const sql = `SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')`
	want, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryRows(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if cols := rows.Columns(); len(cols) != 1 || cols[0] != "cnt" {
		t.Fatalf("Columns = %v", cols)
	}
	type key struct {
		cnt        int64
		begin, end int64
	}
	got := map[key]int{}
	n := 0
	for rows.Next() {
		var cnt int64
		if err := rows.Scan(&cnt); err != nil {
			t.Fatal(err)
		}
		b, e := rows.Period()
		got[key{cnt, b, e}]++
		if v := rows.Values(); len(v) != 1 || v[0].(int64) != cnt {
			t.Fatalf("Values = %v, want [%d]", v, cnt)
		}
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != want.Len() {
		t.Fatalf("cursor yielded %d rows, Query %d", n, want.Len())
	}
	for _, r := range want.Rows {
		k := key{r.Values[0].(int64), r.Begin, r.End}
		if got[k] == 0 {
			t.Fatalf("cursor missing row %v", k)
		}
		got[k]--
	}
}

// Parallel evaluation through the public API must agree with sequential
// on both the materialized and the cursor path.
func TestQueryRowsParallelAgrees(t *testing.T) {
	db := factoryDB(t)
	const sql = `SEQ VT (
		SELECT skill FROM assign
		EXCEPT ALL
		SELECT skill FROM works
	)`
	seq, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	par, err := db.SetParallelism(4).Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Fatalf("parallel result differs:\nseq:\n%s\npar:\n%s", seq, par)
	}
	rows, err := db.QueryRows(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
	}
	if n != seq.Len() {
		t.Fatalf("parallel cursor yielded %d rows, want %d", n, seq.Len())
	}
}

// Scan type checking: mismatches and NULLs must error with the column
// name; *any accepts everything.
func TestRowsScanTypes(t *testing.T) {
	db := snapk.New(0, 10)
	tbl, err := db.CreateTable("t", "s", "n")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(0, 5, "hello", nil); err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryRows(context.Background(), `SELECT s, n FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatal("no rows")
	}
	var s string
	var n any
	if err := rows.Scan(&s, &n); err != nil {
		t.Fatal(err)
	}
	if s != "hello" || n != nil {
		t.Fatalf("scanned (%q, %v)", s, n)
	}
	var i int64
	if err := rows.Scan(&i, &n); err == nil || !strings.Contains(err.Error(), "column s") {
		t.Fatalf("type mismatch error = %v", err)
	}
	if err := rows.Scan(&s, &i); err == nil || !strings.Contains(err.Error(), "NULL") {
		t.Fatalf("NULL scan error = %v", err)
	}
	if err := rows.Scan(&s); err == nil {
		t.Fatal("arity mismatch must error")
	}
}

// Canceling the context mid-iteration must end the stream and surface
// through Err; Close stays idempotent.
func TestQueryRowsCancellation(t *testing.T) {
	db := snapk.New(0, 1000)
	tbl, err := db.CreateTable("t", "x")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 500; i++ {
		if err := tbl.Insert(i%900, i%900+10, i); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := db.SetParallelism(4).QueryRows(ctx, `SELECT x FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("no first row")
	}
	cancel()
	for rows.Next() { // drains whatever was already buffered, then stops
	}
	if rows.Err() == nil {
		t.Fatal("Err must report the cancellation")
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if rows.Next() {
		t.Fatal("Next after Close must be false")
	}
}

// Cursor edge cases around the Next/Scan/Close lifecycle: accessors
// before the first Next, Scan after Close, and Next after a mid-stream
// Close over a PARALLEL DIFFERENCE plan — the pipeline with the most
// fragment goroutines — pinning that no goroutines leak and Err stays
// nil on a clean close.
func TestRowsLifecycleEdgeCases(t *testing.T) {
	db := snapk.New(0, 2000)
	tl, err := db.CreateTable("l", "x")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := db.CreateTable("r", "x")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 800; i++ {
		if err := tl.Insert(i%1900, i%1900+20, i%40); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := tr.Insert(i%1900+5, i%1900+15, i%40); err != nil {
				t.Fatal(err)
			}
		}
	}
	const sql = `SEQ VT (SELECT x FROM l EXCEPT ALL SELECT x FROM r)`

	base := runtime.NumGoroutine()
	rows, err := db.SetParallelism(4).QueryRows(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}

	// Before the first Next: Period and Values are zero-valued, Scan
	// errors.
	if b, e := rows.Period(); b != 0 || e != 0 {
		t.Fatalf("Period before Next = (%d, %d)", b, e)
	}
	if v := rows.Values(); v != nil {
		t.Fatalf("Values before Next = %v", v)
	}
	var x int64
	if err := rows.Scan(&x); err == nil {
		t.Fatal("Scan before Next must error")
	}

	// Mid-stream close: consume a few rows, then Close while the
	// parallel fragments are still producing.
	for i := 0; i < 3; i++ {
		if !rows.Next() {
			t.Fatal("difference produced fewer than 3 rows; enlarge the dataset")
		}
	}
	if err := rows.Scan(&x); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}

	// After Close: Next is false, Scan errors, Period/Values are
	// zero-valued, and a clean close is not an error.
	if rows.Next() {
		t.Fatal("Next after Close must be false")
	}
	if err := rows.Scan(&x); err == nil {
		t.Fatal("Scan after Close must error")
	}
	if b, e := rows.Period(); b != 0 || e != 0 {
		t.Fatalf("Period after Close = (%d, %d)", b, e)
	}
	if v := rows.Values(); v != nil {
		t.Fatalf("Values after Close = %v", v)
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("Err after clean close = %v", err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}

	// Every fragment goroutine of the torn-down parallel difference must
	// exit.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines leaked after Close: %d running, want <= %d\n%s",
			n, base, buf[:runtime.Stack(buf, true)])
	}
}

// Values carves its slices from one slab per batch, yet every call
// returns a fresh slice the caller owns: distinct from every other
// call's, cut with len == cap so an append cannot reach a neighbour, and
// unchanged by later Next calls and batch refills.
func TestRowsValuesAreIndependent(t *testing.T) {
	db := snapk.New(0, 5000)
	tbl, err := db.CreateTable("t", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000 // several cursor batches
	for i := int64(0); i < n; i++ {
		if err := tbl.Insert(i, i+2, i, fmt.Sprintf("s%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := db.QueryRows(context.Background(), `SEQ VT (SELECT a, b FROM t)`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var kept, copies [][]any
	for rows.Next() {
		v := rows.Values()
		if len(v) != 2 || cap(v) != 2 {
			t.Fatalf("Values has len %d, cap %d; want 2 and 2", len(v), cap(v))
		}
		var a int64
		var b string
		if err := rows.Scan(&a, &b); err != nil {
			t.Fatal(err)
		}
		if v[0] != a || v[1] != b {
			t.Fatalf("Values = %v, Scan = (%d, %q)", v, a, b)
		}
		// A second call on the same row is its own slice.
		again := rows.Values()
		again[0] = "changed"
		_ = append(again, "appended")
		if v[0] != a {
			t.Fatalf("writing a second Values slice changed the first: %v", v)
		}
		kept = append(kept, v)
		copies = append(copies, []any{a, b})
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(kept) != n {
		t.Fatalf("cursor yielded %d rows, want %d", len(kept), n)
	}
	for i := range kept {
		if kept[i][0] != copies[i][0] || kept[i][1] != copies[i][1] {
			t.Fatalf("row %d: kept Values %v changed to %v after later Next calls", i, copies[i], kept[i])
		}
		if i > 0 && &kept[i][0] == &kept[i-1][0] {
			t.Fatalf("rows %d and %d share one Values slice", i-1, i)
		}
	}
}

// Repeated identical sequential difference queries must stream rows in
// the identical order — the regression test for the map-iteration
// nondeterminism of the blocking diff (the cursor exposes emission
// order directly; only the materialized Result hides it by sorting).
func TestRowsDiffOrderDeterministic(t *testing.T) {
	db := snapk.New(0, 500)
	tl, err := db.CreateTable("l", "x")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := db.CreateTable("r", "x")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 60; i++ {
		if err := tl.Insert(i, i+30, i%17); err != nil {
			t.Fatal(err)
		}
		if err := tr.Insert(i+2, i+20, i%5); err != nil {
			t.Fatal(err)
		}
	}
	const sql = `SEQ VT (SELECT x FROM l EXCEPT ALL SELECT x FROM r)`
	read := func() []string {
		rows, err := db.QueryRows(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		var out []string
		for rows.Next() {
			var x int64
			if err := rows.Scan(&x); err != nil {
				t.Fatal(err)
			}
			b, e := rows.Period()
			out = append(out, fmt.Sprintf("%d@[%d,%d)", x, b, e))
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := read()
	if len(ref) == 0 {
		t.Fatal("difference is empty; pick a denser input")
	}
	for run := 0; run < 8; run++ {
		got := read()
		if len(got) != len(ref) {
			t.Fatalf("run %d: %d rows, want %d", run, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("run %d: row %d = %s, want %s — difference stream order is nondeterministic", run, i, got[i], ref[i])
			}
		}
	}
}

// Repeated identical aggregation queries must stream rows in the
// identical order, in both sweep forms: table s is inserted in begin
// order, so its aggregation streams; table b is inserted backwards, so
// its aggregation runs the blocking sweep. Every one of the 64 groups
// is still open at end of input, where the streaming flush emits them
// all at once — in first-seen order, not map order.
func TestRowsAggOrderDeterministic(t *testing.T) {
	db := snapk.New(0, 1000)
	for _, name := range []string{"s", "b"} {
		tbl, err := db.CreateTable(name, "g", "v")
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 256; i++ {
			j := i
			if name == "b" {
				j = 255 - i
			}
			if err := tbl.Insert(j, 900+j%7, j%64, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, form := range map[string]string{"s": "sweep=streaming", "b": "sweep=blocking"} {
		sql := `SEQ VT (SELECT g, count(*) AS c, sum(v) AS total FROM ` + name + ` GROUP BY g)`
		if plan, err := db.Explain(sql); err != nil || !strings.Contains(plan, form) {
			t.Fatalf("%s: want %s in the plan (err %v):\n%s", name, form, err, plan)
		}
		read := func() []string {
			rows, err := db.QueryRows(context.Background(), sql)
			if err != nil {
				t.Fatal(err)
			}
			defer rows.Close()
			var out []string
			for rows.Next() {
				var g, c, total int64
				if err := rows.Scan(&g, &c, &total); err != nil {
					t.Fatal(err)
				}
				b, e := rows.Period()
				out = append(out, fmt.Sprintf("%d:%d:%d@[%d,%d)", g, c, total, b, e))
			}
			if err := rows.Err(); err != nil {
				t.Fatal(err)
			}
			return out
		}
		ref := read()
		if len(ref) < 64 {
			t.Fatalf("%s: %d rows for 64 groups", name, len(ref))
		}
		for run := 0; run < 20; run++ {
			if got := read(); !slices.Equal(got, ref) {
				t.Fatalf("%s (%s), run %d: row order differs from the first run", name, form, run)
			}
		}
	}
}

// QueryRows on bad SQL must fail up front, not at iteration time.
func TestQueryRowsParseError(t *testing.T) {
	db := factoryDB(t)
	if _, err := db.QueryRows(context.Background(), `THIS IS NOT SQL`); err == nil {
		t.Fatal("parse error expected")
	}
}

// Draining a cursor must flush its row count to the process-wide
// observability registry exactly once — the end-of-stream flush and the
// Close flush must not double-count.
func TestRowsFlushEmittedOnce(t *testing.T) {
	db := factoryDB(t)
	before := obs.Default.RowsEmitted.Load()
	rows, err := db.QueryRows(context.Background(), `SEQ VT (SELECT name FROM works)`)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for rows.Next() {
		n++
	}
	if n == 0 {
		t.Fatal("empty result")
	}
	rows.Close() // second flush path; must be a no-op
	if got := obs.Default.RowsEmitted.Load() - before; got != n {
		t.Fatalf("registry delta = %d, want %d (exactly the drained rows)", got, n)
	}
}
