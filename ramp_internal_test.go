// The cursor's first pull: Rows asks the query root for
// engine.FirstBatchRows runs before its first row and for
// engine.DefaultBatchSize runs on every later pull, so a streaming sweep
// hands out its first rows before it has read much of its input. These
// tests pin the capacities, how little a first row reads, and that the
// small first batch changes no row a limit or a cancel delivers.
package snapk

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"snapk/internal/engine"
	"snapk/internal/rewrite"
	"snapk/internal/sqlfe"
)

// rampRows is the row count of rampDB's tables.
const rampRows = 2000

// rampDB builds t(k), rampRows rows, four beginning at each instant
// with random lengths from 1 to 13, so the sweeps emit hundreds of
// runs; s(k), a few rows to subtract from t; and u, t's rows inserted
// backwards. t and s are begin-sorted, so their sweeps stream; u's
// sweeps block.
func rampDB(t *testing.T) *DB {
	t.Helper()
	db := New(0, 600)
	tb, u, s := rampTable(t, db, "t"), rampTable(t, db, "u"), rampTable(t, db, "s")
	rng := rand.New(rand.NewSource(1))
	ends := make([]int64, rampRows)
	for i := range ends {
		ends[i] = int64(i/4) + 1 + rng.Int63n(13)
	}
	for i := int64(0); i < rampRows; i++ {
		if err := tb.Insert(i/4, ends[i], i%5); err != nil {
			t.Fatal(err)
		}
		j := rampRows - 1 - i
		if err := u.Insert(j/4, ends[j], j%5); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 20; i++ {
		if err := s.Insert(i*20, i*20+7, i%5); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func rampTable(t *testing.T, db *DB, name string) *Table {
	t.Helper()
	tb, err := db.CreateTable(name, "k")
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// rampQueries are a root of each sweep the ramp reaches — a global
// aggregation, a coalesce and a difference, all streaming — and a
// blocking root, with the sweep form each plan must show.
var rampQueries = []struct{ name, sql, sweep string }{
	{"global aggregation", `SELECT count(*) AS c FROM t`, "sweep=streaming"},
	{"coalesce", `SELECT k FROM t`, "sweep=streaming"},
	{"difference", `SELECT k FROM t EXCEPT ALL SELECT k FROM s`, "sweep=streaming"},
	{"blocking aggregation", `SELECT count(*) AS c FROM u`, "sweep=blocking"},
}

// rampStream returns the root stream of sql on db under opt.
func rampStream(ctx context.Context, t *testing.T, db *DB, sql string, opt rewrite.Options) engine.RowIter {
	t.Helper()
	q, err := sqlfe.ParseAndTranslate(sql, db.eng)
	if err != nil {
		t.Fatal(err)
	}
	it, err := rewrite.Stream(ctx, db.eng, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	return it
}

// pullRecorder records the capacity of every batch its consumer pulls
// through it, forwarding runs.
type pullRecorder struct {
	engine.RowIter
	caps []int
}

func (r *pullRecorder) NextBatch(b *engine.RowBatch) bool {
	r.caps = append(r.caps, b.Cap())
	return r.RowIter.NextBatch(b)
}

func (r *pullRecorder) NextRuns(b *engine.RowBatch, mult *[]int64) bool {
	r.caps = append(r.caps, b.Cap())
	return engine.NextRuns(r.RowIter, b, mult)
}

// cursorRows drains rows through Next and returns each row's string.
func cursorRows(t *testing.T, rows *Rows) []string {
	t.Helper()
	defer rows.Close()
	var out []string
	for rows.Next() {
		out = append(out, rows.cur.String())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// batchRows drains it through NextBatch at DefaultBatchSize, as the
// cursor drained every batch before it had a first-batch capacity, and
// returns each row's string.
func batchRows(t *testing.T, it engine.RowIter) []string {
	t.Helper()
	defer it.Close()
	var out []string
	b := engine.NewRowBatch(engine.DefaultBatchSize)
	for it.NextBatch(b) {
		for _, row := range b.Rows {
			out = append(out, row.String())
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// The root's first pull asks for at most FirstBatchRows runs and every
// later one for DefaultBatchSize, at one worker and at two, over each
// sweep root; the cursor delivers the rows a DefaultBatchSize drain
// does, in the same order at one worker.
func TestRowsFirstPullIsSmall(t *testing.T) {
	db := rampDB(t)
	for _, par := range []int{1, 2} {
		db.SetParallelism(par)
		opt := db.seqOptions(rewrite.ModeOptimized)
		for _, qc := range rampQueries {
			plan, err := db.Explain(qc.sql)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(plan, qc.sweep) {
				t.Fatalf("%s: plan does not show %s:\n%s", qc.name, qc.sweep, plan)
			}
			rec := &pullRecorder{RowIter: rampStream(context.Background(), t, db, qc.sql, opt)}
			got := cursorRows(t, newRows(context.Background(), rec))
			if rec.caps[0] > engine.FirstBatchRows {
				t.Errorf("W=%d %s: first pull asked for %d runs, want at most %d", par, qc.name, rec.caps[0], engine.FirstBatchRows)
			}
			for i, c := range rec.caps[1:] {
				if c != engine.DefaultBatchSize {
					t.Errorf("W=%d %s: pull %d asked for %d runs, want %d", par, qc.name, i+2, c, engine.DefaultBatchSize)
				}
			}
			// A first batch, two full ones at least, and the pull that ends
			// the stream.
			if len(rec.caps) < 4 {
				t.Errorf("W=%d %s: %d pulls; the result must take more", par, qc.name, len(rec.caps))
			}
			want := batchRows(t, rampStream(context.Background(), t, db, qc.sql, opt))
			if par > 1 {
				slices.Sort(got)
				slices.Sort(want)
			}
			if !slices.Equal(got, want) {
				t.Errorf("W=%d %s: the cursor delivered %d rows, a batch drain %d, or in another order", par, qc.name, len(got), len(want))
			}
		}
	}
}

// scanCounter counts the rows its scan delivers.
type scanCounter struct {
	engine.RowIter
	n *int
}

func (c scanCounter) NextBatch(b *engine.RowBatch) bool {
	ok := c.RowIter.NextBatch(b)
	*c.n += b.Len()
	return ok
}

// At one worker over a begin-sorted table, the first row of a streaming
// root arrives when the scan has delivered a few times FirstBatchRows
// rows: the global aggregation reads about four rows per run here, and
// the scan hands its rows out FirstBatchRows at a time. A full first
// batch of DefaultBatchSize runs reads hundreds.
func TestRowsFirstRowReadsAPrefix(t *testing.T) {
	db := rampDB(t)
	for _, qc := range rampQueries[:3] {
		scanned := 0
		opt := db.seqOptions(rewrite.ModeOptimized)
		opt.Inject = func(site string, it engine.RowIter) engine.RowIter {
			if site == "scan:t" {
				return scanCounter{it, &scanned}
			}
			return it
		}
		rows := newRows(context.Background(), rampStream(context.Background(), t, db, qc.sql, opt))
		if !rows.Next() {
			t.Fatalf("%s: no first row: %v", qc.name, rows.Err())
		}
		if scanned == 0 || scanned > 8*engine.FirstBatchRows {
			t.Errorf("%s: the scan delivered %d of %d rows before the first row, want 1 to %d", qc.name, scanned, rampRows, 8*engine.FirstBatchRows)
		}
		rows.Close()
	}
}

// runsRampDB builds l(k), whose difference with r(k) — one row no l row
// matches — is one run per segment of l: 14 runs of one row, a run of
// five that holds rows 15 to 19, so it straddles the first batch's
// 16th row, and 185 runs of two, 389 rows in all. Inserted in begin
// order both tables are begin-sorted and the difference streams;
// otherwise l is inserted backwards and it blocks.
func runsRampDB(t *testing.T, sorted bool) *DB {
	t.Helper()
	db := New(0, 500)
	l, r := rampTable(t, db, "l"), rampTable(t, db, "r")
	segs := make([]int64, 200)
	for i := range segs {
		segs[i] = 2
		if i < 14 {
			segs[i] = 1
		}
	}
	segs[14] = 5
	for j := range segs {
		i := int64(j)
		if !sorted {
			i = int64(len(segs) - 1 - j)
		}
		for range segs[i] {
			if err := l.Insert(2*i, 2*i+1, fmt.Sprintf("v%03d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := r.Insert(0, 5, "zz"); err != nil {
		t.Fatal(err)
	}
	return db
}

// Row limits of 1, 15, 16, 17 and 300 — before, at and inside the run
// that holds the 16th row, and past the first batch — deliver exactly
// the result's first rows at one worker (a sub-multiset of the result
// at two), then ErrRowLimit; a cancel right after the first row ends
// the stream with context.Canceled within the rows of the first
// FirstBatchRows runs.
func TestRowsFirstBatchLimitsAndCancel(t *testing.T) {
	const sql = `SELECT k FROM l EXCEPT ALL SELECT k FROM r`
	for _, sorted := range []bool{true, false} {
		db := runsRampDB(t, sorted)
		for _, par := range []int{1, 2} {
			db.SetParallelism(par).SetQueryLimits(QueryLimits{})
			full := cursorRows(t, newRows(context.Background(), rampStream(context.Background(), t, db, sql, db.seqOptions(rewrite.ModeOptimized))))
			if len(full) != 389 {
				t.Fatalf("sorted=%v W=%d: %d rows, want 389", sorted, par, len(full))
			}
			// The rows of the first FirstBatchRows runs: a run's rows are
			// equal and adjacent.
			firstRuns, runs := 0, 0
			for i := 0; i < len(full) && runs <= engine.FirstBatchRows; i++ {
				if i == 0 || full[i] != full[i-1] {
					runs++
				}
				if runs <= engine.FirstBatchRows {
					firstRuns++
				}
			}
			prefix := func(what string, got []string) {
				t.Helper()
				want := full[:len(got)]
				if par > 1 {
					got, want = slices.Clone(got), slices.Clone(full)
					slices.Sort(got)
					slices.Sort(want)
					for _, row := range got {
						i, ok := slices.BinarySearch(want, row)
						if !ok {
							t.Fatalf("sorted=%v W=%d %s: row %s is not in the result", sorted, par, what, row)
						}
						want = slices.Delete(want, i, i+1)
					}
					return
				}
				if !slices.Equal(got, want) {
					t.Fatalf("sorted=%v W=%d %s: rows %v, want the result's first %v", sorted, par, what, got, want)
				}
			}
			for _, limit := range []int64{1, 15, 16, 17, 300} {
				db.SetQueryLimits(QueryLimits{RowLimit: limit})
				rows := newRows(context.Background(), rampStream(context.Background(), t, db, sql, db.seqOptions(rewrite.ModeOptimized)))
				var got []string
				for rows.Next() {
					got = append(got, rows.cur.String())
				}
				if !errors.Is(rows.Err(), ErrRowLimit) {
					t.Fatalf("sorted=%v W=%d limit %d: Err = %v, want ErrRowLimit", sorted, par, limit, rows.Err())
				}
				rows.Close()
				if int64(len(got)) != limit {
					t.Fatalf("sorted=%v W=%d limit %d: %d rows delivered", sorted, par, limit, len(got))
				}
				prefix(fmt.Sprintf("limit %d", limit), got)
			}
			db.SetQueryLimits(QueryLimits{})
			ctx, cancel := context.WithCancel(context.Background())
			rows := newRows(ctx, rampStream(ctx, t, db, sql, db.seqOptions(rewrite.ModeOptimized)))
			if !rows.Next() {
				t.Fatalf("sorted=%v W=%d: no first row: %v", sorted, par, rows.Err())
			}
			got := []string{rows.cur.String()}
			cancel()
			for rows.Next() {
				got = append(got, rows.cur.String())
			}
			if !errors.Is(rows.Err(), context.Canceled) {
				t.Fatalf("sorted=%v W=%d: Err after the cancel = %v, want context.Canceled", sorted, par, rows.Err())
			}
			rows.Close()
			if len(got) > firstRuns {
				t.Fatalf("sorted=%v W=%d: %d rows delivered after a cancel at the first, want at most the first batch's %d", sorted, par, len(got), firstRuns)
			}
			prefix("cancel", got)
		}
	}
}

// Query waits for every row, so its cursor pulls a full batch from the
// first on: over runsRampDB's 200 runs it allocates less than the same
// drain through a cursor that ramps, which pulls the root once more and
// boxes FirstBatchRows runs into slabs of their own.
func TestQueryPullsFullBatches(t *testing.T) {
	const sql = `SELECT k FROM l EXCEPT ALL SELECT k FROM r`
	for _, sorted := range []bool{true, false} {
		db := runsRampDB(t, sorted)
		// drain is Query's drain through a cursor that ramps unless whole
		// is set.
		drain := func(whole bool) float64 {
			return testing.AllocsPerRun(5, func() {
				rows := newRows(context.Background(), rampStream(context.Background(), t, db, sql, db.seqOptions(rewrite.ModeOptimized)))
				rows.whole = whole
				res := &Result{Columns: rows.Columns()}
				for rows.Next() {
					begin, end := rows.Period()
					res.Rows = append(res.Rows, Row{Values: rows.Values(), Begin: begin, End: end})
				}
				rows.Close()
				if len(res.Rows) != 389 {
					t.Fatalf("sorted=%v: drained %d rows, want 389", sorted, len(res.Rows))
				}
			})
		}
		query := testing.AllocsPerRun(5, func() {
			if res, err := db.Query(sql); err != nil || res.Len() != 389 {
				t.Fatalf("sorted=%v: Query = %v, %v; want 389 rows", sorted, res, err)
			}
		})
		full, ramped := drain(true), drain(false)
		if full >= ramped || query >= ramped {
			t.Fatalf("sorted=%v: Query made %.0f allocations; a drain pulling full batches makes %.0f, one that ramps %.0f",
				sorted, query, full, ramped)
		}
	}
}
