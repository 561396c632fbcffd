package parallel_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/tuple"
)

// fuzzDomain is the time domain of the parallel sweep fuzz harness.
var fuzzDomain = interval.NewDomain(0, 32)

// decodeFuzzDB decodes 3-byte chunks of fuzz data into a begin-sorted
// single-column stored table (value, begin, span-and-multiplicity) and
// returns the database holding it. Sorting the decoded rows is what
// arms the streaming sweeps: a sweep streams only over begin-ordered
// input.
func decodeFuzzDB(data []byte) (*engine.DB, *engine.Table) {
	if len(data) > 300 {
		data = data[:300]
	}
	tbl := engine.NewTable(tuple.NewSchema("v"))
	for i := 0; i+2 < len(data); i += 3 {
		v := int64(data[i] % 5)
		var val tuple.Value = tuple.Int(v)
		if v == 4 {
			val = tuple.Null // NULL is an ordinary data value for sweeping
		}
		begin := int64(data[i+1]) % (fuzzDomain.Max - 1)
		span := int64(data[i+2]%16) + 1
		end := begin + span
		if end > fuzzDomain.Max {
			end = fuzzDomain.Max
		}
		mult := int64(data[i+2]%3) + 1
		tbl.Append(tuple.Tuple{val}, interval.New(begin, end), mult)
	}
	tbl.SortByEndpoints()
	db := engine.NewDB(fuzzDomain)
	db.AddTable("t", tbl)
	return db, tbl
}

func fuzzMultiset(t *engine.Table) map[string]int {
	m := make(map[string]int)
	for _, row := range t.Rows {
		m[row.Key()]++
	}
	return m
}

func fuzzSameCounts(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// storeThroughMap stores tbl's rows in db as name, laid out through a
// random column map that seed picks — tbl's data columns at a random
// permutation of positions among up to three extra columns of every
// kind — and returns the column-only projection that reads them back
// under tbl's column names, which the executor lowers to a map.
func storeThroughMap(db *engine.DB, name string, tbl *engine.Table, seed int64) engine.Plan {
	rng := rand.New(rand.NewSource(seed))
	n := tbl.DataArity()
	w := n + rng.Intn(4)
	at := rng.Perm(w)[:n]
	cols := make([]string, w)
	for i := range cols {
		cols[i] = fmt.Sprintf("%s%d", name, i)
	}
	stored := db.CreateTable(name, tuple.NewSchema(cols...))
	extra := []tuple.Value{tuple.Null, tuple.Int(3), tuple.Float(0.5), tuple.String_("x")}
	for _, row := range tbl.Rows {
		wide := make(tuple.Tuple, w)
		for i := range wide {
			wide[i] = extra[rng.Intn(len(extra))]
		}
		for j, c := range at {
			wide[c] = row[j]
		}
		stored.Append(wide, tbl.Interval(row), 1)
	}
	exprs := make([]algebra.NamedExpr, n)
	for j, c := range at {
		exprs[j] = algebra.NamedExpr{Name: tbl.Schema.Cols[j], E: algebra.Col(cols[c])}
	}
	return engine.ProjectP{Exprs: exprs, In: engine.ScanP{Name: name}}
}

// fuzzSeed folds fuzz data into a seed for the column maps.
func fuzzSeed(data []byte) int64 {
	var h int64
	for _, c := range data {
		h = 31*h + int64(c)
	}
	return h
}

// FuzzParStreamSweep differences the parallel STREAMING sweeps — the
// order-preserving repartition exchange feeding per-worker streaming
// coalesce and pre-aggregated split — against the sequential blocking
// oracles on arbitrary interval multisets, and checks merge-order
// correctness: the ordered merge of a begin-sorted parallel scan must
// itself be begin-sorted. A sort-order violation inside a partition
// would also trip the streaming iterators' input-order panic, so this
// target simultaneously fuzzes the exchange's order guarantee. Every
// sweep also runs over its inputs read through random column maps
// (storeThroughMap), a different one per side of the difference: the
// exchanges hash and the sweeps group through them.
func FuzzParStreamSweep(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 5})
	f.Add([]byte{1, 3, 9, 1, 3, 9, 2, 0, 31})
	f.Add([]byte{0, 0, 4, 0, 4, 4, 0, 8, 4})    // adjacent same-value chains
	f.Add([]byte{3, 0, 15, 3, 5, 15, 3, 10, 2}) // overlaps within one group
	f.Fuzz(func(t *testing.T, data []byte) {
		db, tbl := decodeFuzzDB(data)
		ctx := context.Background()
		opt := parallel.Options{Workers: 3, MorselSize: 4}

		// Merge-order correctness: ordered merge of the sorted scan.
		scan, err := parallel.Exec(ctx, db, engine.ScanP{Name: "t"}, opt)
		if err != nil {
			t.Fatal(err)
		}
		// Under -tags snapdebug this panics at the exchange the moment a
		// row leaves begin order, naming it, instead of failing the
		// materialized check below.
		scan = engine.CheckOrdered("parallel ordered scan", scan)
		merged := engine.Materialize(scan)
		scan.Close()
		if !engine.RowsBeginSorted(merged.Rows) {
			t.Fatalf("ordered merge emitted out-of-order rows\ninput:\n%s", tbl)
		}
		if merged.Len() != tbl.Len() {
			t.Fatalf("ordered merge lost rows: %d of %d", merged.Len(), tbl.Len())
		}

		// Parallel streaming coalesce vs the blocking sweep.
		seed := fuzzSeed(data)
		scanT, mapT := engine.ScanP{Name: "t"}, storeThroughMap(db, "tm", tbl, seed)
		want := engine.Coalesce(tbl)
		for _, in := range []engine.Plan{scanT, mapT} {
			it, err := parallel.Exec(ctx, db, engine.CoalesceP{In: in}, opt)
			if err != nil {
				t.Fatal(err)
			}
			got := engine.Materialize(it)
			it.Close()
			if !fuzzSameCounts(fuzzMultiset(want), fuzzMultiset(got)) {
				t.Fatalf("parallel streaming coalesce over %s diverges from blocking oracle\ninput:\n%s\nwant:\n%s\ngot:\n%s", in, tbl, want, got)
			}
		}

		// Parallel streaming difference (a scan partition per side,
		// per-worker merge sweeps) vs the sequential blocking oracle.
		// The table is differenced against a shifted copy of itself so
		// value-equivalent groups exist on both sides and the monus has
		// truncation work; both sides are begin-sorted stored tables.
		shifted := engine.NewTable(tuple.Schema{Cols: tbl.Schema.Cols[:1]})
		for _, row := range tbl.Rows {
			iv := tbl.Interval(row)
			end := iv.End + 2
			if end > fuzzDomain.Max {
				end = fuzzDomain.Max
			}
			if iv.Begin+1 < end {
				shifted.Append(row[:1], interval.New(iv.Begin+1, end), 1)
			}
		}
		shifted.SortByEndpoints()
		db.AddTable("u", shifted)
		wantDiff, err := engine.TemporalDiff(tbl, shifted)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []engine.DiffP{
			{L: scanT, R: engine.ScanP{Name: "u"}},
			{L: mapT, R: storeThroughMap(db, "um", shifted, seed+1)},
		} {
			dit, err := parallel.Exec(ctx, db, p, opt)
			if err != nil {
				t.Fatal(err)
			}
			gotDiff := engine.Materialize(dit)
			dit.Close()
			if !fuzzSameCounts(fuzzMultiset(wantDiff), fuzzMultiset(gotDiff)) {
				t.Fatalf("parallel streaming difference %s diverges from blocking oracle\nleft:\n%s\nright:\n%s\nwant:\n%s\ngot:\n%s",
					p, tbl, shifted, wantDiff, gotDiff)
			}
		}

		// Parallel streaming pre-aggregated split vs the blocking sweep,
		// grouped (partitioned path) and global (ordered-merge path).
		aggs := []algebra.AggSpec{{Fn: krel.CountStar, As: "cnt"}}
		for _, groupBy := range [][]string{{"v"}, nil} {
			wantAgg, err := engine.TemporalAggregate(tbl, groupBy, aggs, true, fuzzDomain)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range []engine.Plan{scanT, mapT} {
				ait, err := parallel.Exec(ctx, db,
					engine.AggP{GroupBy: groupBy, Aggs: aggs, PreAgg: true, In: in}, opt)
				if err != nil {
					t.Fatal(err)
				}
				gotAgg := engine.Materialize(ait)
				ait.Close()
				if !fuzzSameCounts(fuzzMultiset(wantAgg), fuzzMultiset(gotAgg)) {
					t.Fatalf("parallel streaming aggregation (groupBy %v) over %s diverges from blocking oracle\ninput:\n%s\nwant:\n%s\ngot:\n%s",
						groupBy, in, tbl, wantAgg, gotAgg)
				}
			}
		}
	})
}
