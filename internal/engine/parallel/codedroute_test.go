package parallel_test

import (
	"context"
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/semiring"
	"snapk/internal/snapshot"
	"snapk/internal/tuple"
)

// skewedCodedDB builds one begin-sorted table t(k) of rows rows whose
// keys are heavily skewed: key 1 holds 40 % of the rows, key 2 20 % and
// key 3 10 %, and 30 keys share the rest. Every key is spelled as an Int
// on even rows and as the integral Float on odd ones, which SameKey
// equates, so each key is one group and one code.
func skewedCodedDB(rows int) (*engine.DB, *engine.Table) {
	db := engine.NewDB(interval.NewDomain(0, int64(rows/4+10)))
	tbl := db.CreateTable("t", tuple.NewSchema("k"))
	for i := range rows {
		var k int64
		switch r := i * 7919 % 100; {
		case r < 40:
			k = 1
		case r < 60:
			k = 2
		case r < 70:
			k = 3
		default:
			k = 4 + int64(r%30)
		}
		v := tuple.Int(k)
		if i%2 == 1 {
			v = tuple.Float(float64(k))
		}
		b := int64(i / 4)
		tbl.Append(tuple.Tuple{v}, interval.New(b, b+1+int64(i%9)), 1)
	}
	return db, tbl
}

// fragSets records, per key code and per key, the scan-partition
// fragments whose batches carried it, across every input of a sweep.
type fragSets struct {
	mu    sync.Mutex
	codes map[int32]uint64
	keys  map[uint64]uint64
}

type fragRecorder struct {
	engine.RowIter
	frag int
	fs   *fragSets
}

func (it *fragRecorder) NextBatch(b *engine.RowBatch) bool {
	if !it.RowIter.NextBatch(b) {
		return false
	}
	it.fs.mu.Lock()
	defer it.fs.mu.Unlock()
	for _, c := range b.Codes {
		it.fs.codes[c] |= 1 << it.frag
	}
	for _, row := range b.Rows {
		it.fs.keys[row.HashKey([]int{0})] |= 1 << it.frag
	}
	return true
}

func (fs *fragSets) wrap(site string, it engine.RowIter) engine.RowIter {
	var frag int
	if _, err := fmt.Sscanf(site, "exchange:scan-partition:%d", &frag); err != nil {
		return it
	}
	return &fragRecorder{RowIter: it, frag: frag, fs: fs}
}

// scanPartitions returns the scan-partition nodes of a stats tree.
func scanPartitions(st *engine.OpStats) []*engine.OpStats {
	var out []*engine.OpStats
	for _, c := range st.Children() {
		if c.Label == "Exchange:scan-partition" {
			out = append(out, c)
		}
		out = append(out, scanPartitions(c)...)
	}
	return out
}

// modelCheck evaluates q in the abstract model (package snapshot) over
// tbl as t and reports an error unless got holds the same snapshot at
// every time point of dom.
func modelCheck(dom interval.Domain, q algebra.Query, got, tbl *engine.Table) error {
	load := func(r *snapshot.Relation[int64], tbl *engine.Table) {
		for _, row := range tbl.Rows {
			r.AddPeriod(tbl.Interval(row), row[:tbl.DataArity()], 1)
		}
	}
	db := snapshot.NewDB[int64](semiring.N, dom)
	load(db.CreateRelation("t", tbl.DataSchema()), tbl)
	want, err := db.Eval(q)
	if err != nil {
		return err
	}
	out := snapshot.NewRelation[int64](semiring.N, dom, got.DataSchema())
	load(out, got)
	for tp := dom.Min; tp < dom.Max; tp++ {
		if w, g := want.Timeslice(tp), out.Timeslice(tp); !w.Equal(g) {
			return fmt.Errorf("snapshot at %d differs from the abstract model\nwant:\n%s\ngot:\n%s", tp, w, g)
		}
	}
	return nil
}

// A coded sweep's scan partition routes by key code through the table's
// row-balanced code → fragment map. Over keys skewed far past N/W and
// spelled two ways, at W ∈ {2, 3, 4}: every code, and every key, reaches
// exactly one fragment across all inputs of the sweep, the exchange says
// route=codes, no partition holds more than N/W plus the rows of the
// largest code, and every result matches the abstract model. A sweep
// over a computing projection has no codes, and its partition says
// route=hash.
func TestCodedScanPartitionBalancesRows(t *testing.T) {
	const rows = 4000
	db, tbl := skewedCodedDB(rows)
	codes, n, _ := tbl.KeyCodes([]int{0})
	if n != 33 {
		t.Fatalf("%d codes over 33 keys spelled two ways", n)
	}
	largest := make([]int64, n)
	for _, c := range codes {
		largest[c]++
	}
	var most int64
	for _, k := range largest {
		most = max(most, k)
	}
	scan, rel := engine.ScanP{Name: "t"}, algebra.Rel{Name: "t"}
	notTwo := algebra.Ne(algebra.Col("k"), algebra.IntC(2))
	count := []algebra.AggSpec{{Fn: krel.CountStar, As: "n"}}
	// A computing projection leaves its sweep no codes: its partition
	// hashes, above the chain.
	plus := []algebra.NamedExpr{{Name: "k", E: algebra.Add(algebra.Col("k"), algebra.IntC(0))}}
	cases := []struct {
		name  string
		p     engine.Plan
		q     algebra.Query
		coded bool
	}{
		{"coalesce", engine.CoalesceP{In: scan}, rel, true},
		{"diff", engine.DiffP{L: scan, R: engine.FilterP{Pred: notTwo, In: scan}},
			algebra.Diff{L: rel, R: algebra.Select{Pred: notTwo, In: rel}}, true},
		{"agg", engine.AggP{GroupBy: []string{"k"}, Aggs: count, PreAgg: true, In: scan},
			algebra.Agg{GroupBy: []string{"k"}, Aggs: count, In: rel}, true},
		{"computed coalesce", engine.CoalesceP{In: engine.ProjectP{Exprs: plus, In: scan}},
			algebra.Project{Exprs: plus, In: rel}, false},
	}
	for _, tc := range cases {
		for _, workers := range []int{2, 3, 4} {
			what := fmt.Sprintf("%s, %d workers", tc.name, workers)
			fs := &fragSets{codes: make(map[int32]uint64), keys: make(map[uint64]uint64)}
			col := engine.NewCollector()
			it, err := parallel.Exec(context.Background(), db, tc.p, parallel.Options{
				Workers: workers, MorselSize: 16, Stats: col.Root.Child("result", ""), Inject: fs.wrap})
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			got, err := engine.MaterializeErr(it)
			it.Close()
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if err := modelCheck(db.Domain(), tc.q, got, tbl); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if want := map[bool]int{true: n, false: 0}[tc.coded]; len(fs.codes) != want {
				t.Fatalf("%s: %d codes reached the sweeps, want %d", what, len(fs.codes), want)
			}
			for c, frags := range fs.codes {
				if bits.OnesCount64(frags) != 1 {
					t.Fatalf("%s: code %d reached fragments %b", what, c, frags)
				}
			}
			for k, frags := range fs.keys {
				if bits.OnesCount64(frags) != 1 {
					t.Fatalf("%s: the key hashing to %x reached fragments %b", what, k, frags)
				}
			}
			parts := scanPartitions(col.RootOp())
			if len(parts) != len(engine.Inputs(tc.p)) {
				t.Fatalf("%s: %d scan partitions for %d inputs\n%s", what, len(parts), len(engine.Inputs(tc.p)), col.Render())
			}
			route := map[bool]string{true: "route=codes", false: "route=hash"}[tc.coded]
			for _, st := range parts {
				if !strings.Contains(st.Detail, route) {
					t.Fatalf("%s: the scan partition routes [%s], want %s", what, st.Detail, route)
				}
				var sum, peak int64
				for _, r := range st.PartRows() {
					sum, peak = sum+r, max(peak, r)
				}
				// The filtered input of the difference reaches its sweep
				// thinned; the map balances the stored rows.
				if tc.coded && sum == rows && float64(peak) > float64(rows)/float64(workers)+float64(most) {
					t.Fatalf("%s: part_rows %v, above N/W + %d", what, st.PartRows(), most)
				}
			}
		}
	}
}
