// Public-API fault-domain tests: cancellation on the sequential path,
// the per-query resource governor through SetQueryLimits, and the
// database/sql error semantics of the cursor after a mid-stream
// failure.
package snapk_test

import (
	"context"
	"errors"
	"testing"
	"time"

	snapk "snapk"
)

// bigFaultDB builds a single-table database large enough that queries
// cross every governor checkpoint and batch boundary.
func bigFaultDB(t *testing.T) *snapk.DB {
	t.Helper()
	db := snapk.New(0, 5000)
	tbl, err := db.CreateTable("t", "x")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 4000; i++ {
		if err := tbl.Insert(i%4900, i%4900+10, i); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// Regression: the sequential path (parallelism unset) must honor the
// query context. Canceling mid-stream ends the cursor with
// context.Canceled through Err — not a silently truncated clean stream.
func TestSeqCancelMidStream(t *testing.T) {
	db := bigFaultDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := db.QueryRows(ctx, `SELECT x FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatal("no first row")
	}
	cancel()
	n := 1
	for rows.Next() { // at most the already-buffered batch drains
		n++
	}
	if !errors.Is(rows.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", rows.Err())
	}
	if n >= 4000 {
		t.Fatal("cancellation did not stop the sequential stream")
	}
}

// The row limit ends the query with ErrRowLimit at either width, and
// after the failure Scan reports the stream error (database/sql
// semantics) while Values returns nil.
func TestQueryLimitsRowLimit(t *testing.T) {
	for _, par := range []int{0, 4} {
		db := bigFaultDB(t).
			SetParallelism(par).
			SetQueryLimits(snapk.QueryLimits{RowLimit: 10})
		rows, err := db.QueryRows(context.Background(), `SELECT x FROM t`)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		if !errors.Is(rows.Err(), snapk.ErrRowLimit) {
			t.Fatalf("par=%d: Err = %v, want ErrRowLimit", par, rows.Err())
		}
		if n >= 4000 {
			t.Fatalf("par=%d: limit did not stop the stream", par)
		}
		var x int64
		if err := rows.Scan(&x); !errors.Is(err, snapk.ErrRowLimit) {
			t.Fatalf("par=%d: Scan after stream error = %v, want the stream error", par, err)
		}
		if v := rows.Values(); v != nil {
			t.Fatalf("par=%d: Values after stream error = %v, want nil", par, v)
		}
		rows.Close()
		// The error survives Close: a late Err (or Scan) still reports it.
		if !errors.Is(rows.Err(), snapk.ErrRowLimit) {
			t.Fatalf("par=%d: Err after Close = %v, want ErrRowLimit", par, rows.Err())
		}
	}
}

// A one-byte memory budget trips the join build's tracked state with
// ErrMemBudget — surfaced at QueryRows (construction) or through Err,
// but never as a clean complete result.
func TestQueryLimitsMemBudget(t *testing.T) {
	for _, par := range []int{0, 4} {
		db := factoryDB(t).
			SetParallelism(par).
			SetQueryLimits(snapk.QueryLimits{MemBudget: 1})
		const sql = `SEQ VT (SELECT w.name AS n FROM works w JOIN assign a ON w.skill = a.skill)`
		rows, err := db.QueryRows(context.Background(), sql)
		if err == nil {
			for rows.Next() {
			}
			err = rows.Err()
			rows.Close()
		}
		if !errors.Is(err, snapk.ErrMemBudget) {
			t.Fatalf("par=%d: err = %v, want ErrMemBudget", par, err)
		}
	}
}

// An expired per-query deadline surfaces as context.DeadlineExceeded at
// either width.
func TestQueryLimitsDeadline(t *testing.T) {
	for _, par := range []int{0, 4} {
		db := bigFaultDB(t).
			SetParallelism(par).
			SetQueryLimits(snapk.QueryLimits{Timeout: time.Nanosecond})
		rows, err := db.QueryRows(context.Background(), `SELECT x FROM t`)
		if err == nil {
			for rows.Next() {
			}
			err = rows.Err()
			rows.Close()
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("par=%d: err = %v, want DeadlineExceeded", par, err)
		}
	}
}

// Limits also govern the materializing Query entry point: the Seq
// approach propagates the typed error instead of returning a truncated
// result.
func TestQueryLimitsMaterializedPath(t *testing.T) {
	db := bigFaultDB(t).SetQueryLimits(snapk.QueryLimits{RowLimit: 10})
	_, err := db.Query(`SELECT x FROM t`)
	if !errors.Is(err, snapk.ErrRowLimit) {
		t.Fatalf("Query err = %v, want ErrRowLimit", err)
	}
}

// SeqNaive runs on the same governed executor as Seq, so QueryWith must
// hand it the database's limits too (regression: its options were built
// without them).
func TestQueryLimitsNaive(t *testing.T) {
	db := bigFaultDB(t).SetQueryLimits(snapk.QueryLimits{RowLimit: 10})
	_, err := db.QueryWith(`SELECT x FROM t`, snapk.SeqNaive)
	if !errors.Is(err, snapk.ErrRowLimit) {
		t.Fatalf("QueryWith(SeqNaive) err = %v, want ErrRowLimit", err)
	}
}
