package parallel_test

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/tuple"
)

// The fault domain of the time partition: closing or canceling while
// fragments run, a row limit that trips inside the rows the boundary
// merge holds, and a memory budget one fragment exceeds. (The results
// are checked against the abstract model in package engine.)

// globalCount is the pre-aggregated global count over t.
var globalCount = engine.AggP{Aggs: []algebra.AggSpec{{Fn: krel.CountStar, As: "n"}}, PreAgg: true, In: engine.ScanP{Name: "t"}}

func TestTimePartitionCancelAndCloseMidStream(t *testing.T) {
	db := sortedScanDB(20000)
	for _, cancelFirst := range []bool{true, false} {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		it, err := parallel.Exec(ctx, db, globalCount, parallel.Options{Workers: 4, MorselSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		for range 5 {
			if !pullRow(it) {
				t.Fatal("aggregation exhausted early; enlarge the dataset")
			}
		}
		if cancelFirst {
			cancel()
			for pullRow(it) {
			}
			if !errors.Is(it.Err(), context.Canceled) {
				t.Fatalf("canceled time partition ended with %v", it.Err())
			}
		}
		it.Close()
		it.Close()
		cancel()
		waitForGoroutines(t, base)
	}
}

// countRows drains it and returns the rows and the terminal error.
func countRows(it engine.RowIter) (int, error) {
	n := 0
	b := engine.NewRowBatch(7)
	for it.NextBatch(b) {
		n += b.Len()
	}
	return n, it.Err()
}

// The boundary merge hands the rows it holds out last, so a limit just
// below the total trips inside them and must still deliver exactly the
// limit. The count changes at every instant, so no held rows join and
// the three splits hold six.
func TestTimePartitionRowLimitInsideHeldRows(t *testing.T) {
	db := engine.NewDB(interval.NewDomain(0, 4000))
	tbl := db.CreateTable("t", tuple.NewSchema("v"))
	for i := range int64(3000) {
		tbl.Append(tuple.Tuple{tuple.Int(i)}, interval.New(i, i+1+i*7%13), 1)
	}
	it, err := parallel.Exec(context.Background(), db, globalCount, parallel.Options{Workers: 4, MorselSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	total, err := countRows(it)
	it.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int64{int64(total) - 1, int64(total) - 3, int64(total) - 5} {
		gov := engine.NewGovernor(engine.Limits{RowLimit: limit})
		it, err := parallel.Exec(context.Background(), db, globalCount, parallel.Options{Workers: 4, MorselSize: 16, Gov: gov})
		if err != nil {
			t.Fatal(err)
		}
		n, err := countRows(it)
		it.Close()
		if !errors.Is(err, engine.ErrRowLimit) || int64(n) != limit {
			t.Fatalf("limit %d of %d rows: delivered %d, err %v", limit, total, n, err)
		}
	}
}

// One fragment holds far more open intervals than the others: a budget
// the others fit in fails the query with ErrMemBudget.
func TestTimePartitionMemBudgetInOneFragment(t *testing.T) {
	db := engine.NewDB(interval.NewDomain(0, 10000))
	tbl := db.CreateTable("t", tuple.NewSchema("v"))
	for i := range 3000 {
		b, e := int64(i), int64(i)+3
		if i >= 1000 && i < 2000 {
			// The middle fragment, [1000, 2000), holds up to a thousand
			// rows open; they end at its split, so no other sees them.
			e = 2000
		}
		tbl.Append(tuple.Tuple{tuple.Int(1)}, interval.New(b, e), 1)
	}
	run := func(budget int64) error {
		base := runtime.NumGoroutine()
		gov := engine.NewGovernor(engine.Limits{MemBudget: budget})
		it, err := parallel.Exec(context.Background(), db, globalCount, parallel.Options{Workers: 3, MorselSize: 16, Gov: gov})
		if err != nil {
			return err
		}
		_, err = countRows(it)
		it.Close()
		waitForGoroutines(t, base)
		return err
	}
	if err := run(0); err != nil {
		t.Fatal(err)
	}
	budget := 300 * engine.ApproxRowBytes(3)
	if err := run(budget); !errors.Is(err, engine.ErrMemBudget) {
		t.Fatalf("budget %d: err = %v, want ErrMemBudget", budget, err)
	}
}

// The Exchange:time-partition node counts the rows each fragment's
// sweep reads: every row once, plus the rows that straddle a split once
// more, and the begin quantiles keep the fragments balanced.
func TestTimePartitionPartRows(t *testing.T) {
	db := sortedScanDB(4000) // rows [i, i+50)
	col := engine.NewCollector()
	it, err := parallel.Exec(context.Background(), db, globalCount,
		parallel.Options{Workers: 2, MorselSize: 16, Stats: col.Root.Child("result", "")})
	if err != nil {
		t.Fatal(err)
	}
	engine.Materialize(it)
	it.Close()
	var parts []int64
	var walk func(*engine.OpStats)
	walk = func(st *engine.OpStats) {
		if st.Label == "Exchange:time-partition" {
			parts = st.PartRows()
		}
		for _, c := range st.Children() {
			walk(c)
		}
	}
	walk(col.RootOp())
	if len(parts) != 2 {
		t.Fatalf("part_rows %v, want two fragments", parts)
	}
	// The split is begin 2000: the first fragment reads rows 0..1999,
	// the second the 49 rows that straddle it and rows 2000..3999.
	if parts[0] != 2000 || parts[1] != 2049 {
		t.Fatalf("part_rows %v, want [2000 2049]", parts)
	}
}
