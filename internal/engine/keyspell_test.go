package engine_test

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
	"snapk/internal/interval"
	"snapk/internal/tuple"
)

// keySpellingDB builds l(k) and r(k), whose key values are equal under
// tuple.SameKey but spelled differently on the two sides: an Int on the
// left and the integral Float on the right, 0.0 against −0.0, and two
// NaNs with different bits. Sorted tables are inserted in begin order,
// so the difference streams; otherwise in reverse, so it blocks.
func keySpellingDB(sorted bool) (*engine.DB, map[string]*engine.Table) {
	negZero := math.Copysign(0, -1)
	type pair struct{ l, r tuple.Value }
	pairs := []pair{
		{tuple.Float(0), tuple.Float(negZero)},
		{tuple.Int(0), tuple.Float(negZero)},
		{tuple.Float(math.NaN()), tuple.Float(math.Float64frombits(0x7ff8000000000bad))},
		{tuple.Float(2.5), tuple.Float(2.5)},
		{tuple.Int(1 << 53), tuple.Float(1 << 53)},
	}
	for k := int64(-20); k < 20; k++ {
		pairs = append(pairs, pair{tuple.Int(k), tuple.Float(float64(k))})
	}
	dom := interval.NewDomain(0, 40)
	type row struct {
		v  tuple.Value
		iv interval.Interval
	}
	var ls, rs []row
	for i, p := range pairs {
		b := int64(i % 25)
		ls = append(ls, row{p.l, interval.New(b, b+12)}, row{p.l, interval.New(b+3, b+6)})
		rs = append(rs, row{p.r, interval.New(b+2, b+9)})
	}
	db, tables := engine.NewDB(dom), make(map[string]*engine.Table)
	for name, rows := range map[string][]row{"l": ls, "r": rs} {
		slices.SortStableFunc(rows, func(a, b row) int {
			if a.iv.Begin != b.iv.Begin {
				return int(a.iv.Begin - b.iv.Begin)
			}
			return int(a.iv.End - b.iv.End)
		})
		if !sorted {
			slices.Reverse(rows)
		}
		t := db.CreateTable(name, tuple.NewSchema("k"))
		for _, r := range rows {
			t.Append(tuple.Tuple{r.v}, r.iv, 1)
		}
		tables[name] = t
	}
	return db, tables
}

// Both keyed exchanges — the scan partition under the streaming
// difference and the hash partition under the blocking one — route a
// row by tuple.HashKey, so keys that are SameKey but spelled apart meet
// in one fragment. A key split across fragments would leave its left
// rows unsubtracted, which the abstract model catches.
func TestKeyedExchangesMeetSameKeySpelledApart(t *testing.T) {
	q := algebra.Diff{L: algebra.Rel{Name: "l"}, R: algebra.Rel{Name: "r"}}
	p := engine.DiffP{L: engine.ScanP{Name: "l"}, R: engine.ScanP{Name: "r"}}
	for _, sorted := range []bool{true, false} {
		db, tables := keySpellingDB(sorted)
		for _, workers := range []int{2, 3, 4} {
			via := "via hash-partition"
			if sorted {
				via = "via scan-partition"
			}
			if explain := parallel.Explain(db, p, workers).Render(); !strings.Contains(explain, via) {
				t.Fatalf("sorted=%v, %d workers: want a difference %s:\n%s", sorted, workers, via, explain)
			}
			it, err := parallel.Exec(context.Background(), db, p, parallel.Options{Workers: workers, MorselSize: 4})
			if err != nil {
				t.Fatal(err)
			}
			got, err := engine.MaterializeErr(it)
			it.Close()
			if err != nil {
				t.Fatal(err)
			}
			if err := engine.SnapshotOracle(db.Domain(), q, got, tables); err != nil {
				t.Fatalf("sorted=%v, %d workers: %v", sorted, workers, err)
			}
		}
	}
}
