// The streaming sweeps' keyed exchange at W > 1 is the scan partition:
// each fragment reads the whole sorted scan and keeps the rows of its
// partition. These tests pin its shape — no goroutine between a sweep
// and its scans, so no key skew can stall it — and its teardown.
package parallel_test

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/qgen"
	"snapk/internal/rewrite"
	"snapk/internal/tuple"
)

// keyedSortedDB builds begin-sorted tables l and r (k, v) whose row i
// is determined by key(i), so the sweeps' groups are the distinct keys;
// r holds every third row of l, shifted, so a difference has work on
// every group.
func keyedSortedDB(rows int, key func(i int) int64) *engine.DB {
	db := engine.NewDB(interval.NewDomain(0, 1<<20))
	l := db.CreateTable("l", tuple.NewSchema("k", "v"))
	r := db.CreateTable("r", tuple.NewSchema("k", "v"))
	for i := 0; i < rows; i++ {
		k := key(i)
		row := tuple.Tuple{tuple.Int(k), tuple.Int(k % 5)}
		l.Append(row, interval.New(int64(i), int64(i)+20), 1)
		if i%3 == 0 {
			r.Append(row, interval.New(int64(i)+2, int64(i)+9), 1)
		}
	}
	return db
}

// streamingSweepPlans are one plan per streaming sweep over the sorted
// tables of keyedSortedDB.
func streamingSweepPlans() map[string]engine.Plan {
	scanL, scanR := engine.ScanP{Name: "l"}, engine.ScanP{Name: "r"}
	aggs := []algebra.AggSpec{{Fn: krel.Sum, Arg: "v", As: "s"}, {Fn: krel.CountStar, As: "c"}}
	return map[string]engine.Plan{
		"coalesce": engine.CoalesceP{In: scanL},
		"diff":     engine.DiffP{L: scanL, R: scanR},
		"agg":      engine.AggP{GroupBy: []string{"k"}, Aggs: aggs, PreAgg: true, In: scanL},
	}
}

// goroutineID returns the running goroutine's id, read off its stack
// header ("goroutine 18 [running]:").
func goroutineID() string {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	return strings.Fields(string(buf[:n]))[1]
}

// pullSites records which goroutines pull the iterators built at each
// inject site, folded over the fragment index ("scan:l:3" → "scan:l").
type pullSites struct {
	mu  sync.Mutex
	gos map[string]map[string]bool
}

type pullRecorder struct {
	engine.RowIter
	site string
	ps   *pullSites
}

func (it *pullRecorder) NextBatch(b *engine.RowBatch) bool {
	it.ps.mu.Lock()
	if it.ps.gos[it.site] == nil {
		it.ps.gos[it.site] = make(map[string]bool)
	}
	it.ps.gos[it.site][goroutineID()] = true
	it.ps.mu.Unlock()
	return it.RowIter.NextBatch(b)
}

func (ps *pullSites) wrap(site string, it engine.RowIter) engine.RowIter {
	if i := strings.LastIndexByte(site, ':'); i > 0 && strings.Trim(site[i+1:], "0123456789") == "" {
		site = site[:i]
	}
	return &pullRecorder{RowIter: it, site: site, ps: ps}
}

// Skewed keys cannot stall the scan partition: with every row under one
// key, or with keys that leave a partition empty, each streaming sweep
// completes at W ∈ {2, 4} and matches the reference evaluator. The
// partition sizes on the stats node show the skew, and every scan is
// pulled on a goroutine that pulls a sweep fragment: no goroutine is
// started for the sweep's inputs.
func TestScanPartitionSkewedKeys(t *testing.T) {
	for name, key := range map[string]func(int) int64{
		"one-key":    func(int) int64 { return 42 },
		"three-keys": func(i int) int64 { return int64(i % 3) },
	} {
		db := keyedSortedDB(3000, key)
		for plan, p := range streamingSweepPlans() {
			mat, err := db.Exec(p)
			if err != nil {
				t.Fatalf("%s %s: oracle: %v", name, plan, err)
			}
			want := sortedKeys(mat)
			for _, workers := range []int{2, 4} {
				ps := &pullSites{gos: make(map[string]map[string]bool)}
				col := engine.NewCollector()
				it, err := parallel.Exec(context.Background(), db, p, parallel.Options{
					Workers: workers, MorselSize: 16, Stats: col.Root.Child("result", ""), Inject: ps.wrap})
				if err != nil {
					t.Fatalf("%s %s workers %d: %v", name, plan, workers, err)
				}
				got, err := engine.MaterializeErr(it)
				it.Close()
				if err != nil {
					t.Fatalf("%s %s workers %d: %v", name, plan, workers, err)
				}
				if !sameMultiset(sortedKeys(got), want) {
					t.Fatalf("%s %s workers %d: got %d rows, want %d", name, plan, workers, got.Len(), len(want))
				}
				sweep := opStatsChildren(col.RootOp())[0]
				empty := 0
				for _, c := range sweep.Children() {
					if c.Label != "Exchange:scan-partition" {
						continue
					}
					for _, n := range c.PartRows() {
						if n == 0 {
							empty++
						}
					}
				}
				if want := workers - 1; name == "one-key" && empty != want*len(engine.Inputs(p)) {
					t.Fatalf("%s %s workers %d: %d empty partitions, want %d per input", name, plan, workers, empty, want)
				}
				if name == "three-keys" && workers == 4 && empty == 0 {
					t.Fatalf("%s %s workers %d: three keys filled four partitions", name, plan, workers)
				}
				sweeps := ps.gos[plan]
				for site, gos := range ps.gos {
					if !strings.HasPrefix(site, "scan:") {
						continue
					}
					for g := range gos {
						if !sweeps[g] {
							t.Fatalf("%s %s workers %d: %s pulled on goroutine %s, which pulls no %s fragment",
								name, plan, workers, site, g, plan)
						}
					}
				}
			}
		}
	}
}

// Canceling the context, or closing the root, mid-stream over
// partitioned scans tears every fragment goroutine down.
func TestScanPartitionCancelAndCloseMidStream(t *testing.T) {
	db := keyedSortedDB(20000, func(i int) int64 { return int64(i) })
	for plan, p := range streamingSweepPlans() {
		for _, cancelFirst := range []bool{true, false} {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			it, err := parallel.Exec(ctx, db, p, parallel.Options{Workers: 4, MorselSize: 16})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if !pullRow(it) {
					t.Fatalf("%s: exhausted before the cut; enlarge the dataset", plan)
				}
			}
			if cancelFirst {
				cancel()
				for pullRow(it) {
				}
			}
			it.Close()
			it.Close()
			cancel()
			waitForGoroutines(t, base)
		}
	}
}

// A computing projection and a window-pruned scan under the parallel
// streaming coalesce and difference: both are per-row chains over a
// scan, so the sweeps stream over a scan partition and agree with the
// reference evaluator.
func TestScanPartitionOverProjectionAndPrunedWindow(t *testing.T) {
	db := keyedSortedDB(4000, func(i int) int64 { return int64(i % 11) })
	bump := func(in engine.Plan) engine.Plan {
		return engine.ProjectP{Exprs: []algebra.NamedExpr{
			{Name: "h", E: algebra.Add(algebra.Col("k"), algebra.IntC(1))},
			{Name: "v", E: algebra.Col("v")},
		}, In: in}
	}
	win := func(name string) engine.Plan {
		return engine.WindowP{T: interval.New(500, 1500), In: engine.ScanP{Name: name}}
	}
	plans := map[string]engine.Plan{
		"coalesce-project": engine.CoalesceP{In: bump(engine.ScanP{Name: "l"})},
		"coalesce-window":  engine.CoalesceP{In: win("l")},
		"diff-project":     engine.DiffP{L: bump(engine.ScanP{Name: "l"}), R: bump(engine.ScanP{Name: "r"})},
		"diff-window":      engine.DiffP{L: win("l"), R: bump(win("r"))},
	}
	for name, p := range plans {
		mat, err := db.Exec(p)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		want := sortedKeys(mat)
		if len(want) == 0 {
			t.Fatalf("%s: empty oracle result; the test is vacuous", name)
		}
		for _, workers := range []int{2, 3, 4} {
			explain := parallel.Explain(db, p, workers).Render()
			if !strings.Contains(explain, "via scan-partition") || !strings.Contains(explain, "sweep=streaming") {
				t.Fatalf("%s workers %d: not a streaming sweep over a scan partition:\n%s", name, workers, explain)
			}
			if strings.Contains(name, "window") && !strings.Contains(explain, "prune") {
				t.Fatalf("%s workers %d: the window is not pruned into the scan:\n%s", name, workers, explain)
			}
			if got := runParallel(t, db, p, workers); !sameMultiset(sortedKeys(got), want) {
				t.Fatalf("%s workers %d: got %d rows, want %d", name, workers, got.Len(), len(want))
			}
		}
	}
}

// checkScanSources asserts, on an executed stats tree, that every
// streaming sweep running more than one fragment read each input
// through its own scan partition and through no other keyed exchange:
// every streaming keyed exchange runs over scan sources.
func checkScanSources(t *testing.T, st *engine.OpStats, what string) {
	t.Helper()
	var ops, scanParts, timeParts, others int
	for _, c := range st.Children() {
		switch {
		case c.Label == "fragment":
		case c.Label == "Exchange:scan-partition":
			scanParts++
		case c.Label == "Exchange:time-partition":
			timeParts++
		case c.Label == "Exchange:partition":
			others++
		case !strings.HasPrefix(c.Label, "Exchange:"):
			ops++
			checkScanSources(t, c, what)
		}
	}
	frags := countChildren(st, "fragment")
	if timeParts > 0 {
		// A time partition reads one input per fragment, straight off its
		// scan: no keyed exchange.
		if timeParts != 1 || ops != frags || scanParts+others != 0 {
			t.Fatalf("%s: time-partitioned %s ran %d inputs for %d fragments, %d time, %d scan and %d hash partitions",
				what, st.Label, ops, frags, timeParts, scanParts, others)
		}
	} else if strings.HasPrefix(st.Detail, "streaming") && frags > 1 {
		if scanParts != ops || others != 0 {
			t.Fatalf("%s: streaming %s over %d inputs ran %d scan partitions and %d hash partitions",
				what, st.Label, ops, scanParts, others)
		}
	} else if scanParts != 0 {
		t.Fatalf("%s: %s [%s] ran a scan partition", what, st.Label, st.Detail)
	}
}

// parStreamGridCase is one plan of the qgen grid TestParStreamQgenGrid
// sweeps.
type parStreamGridCase struct {
	seed   int64
	sorted bool
	db     *engine.DB
	plan   engine.Plan
}

// parStreamGrid returns the REWR plans of random queries over random
// databases, over unsorted and over begin-sorted tables, so their
// sweeps block and stream.
func parStreamGrid(t *testing.T) []parStreamGridCase {
	t.Helper()
	var cases []parStreamGridCase
	for seed := int64(200); seed < 260; seed++ {
		g := qgen.New(seed)
		spec := g.GenDB()
		q := g.GenQuery()
		for _, sorted := range []bool{false, true} {
			s := spec
			if sorted {
				s = spec.SortedByBegin()
			}
			db := s.ToEngineDB()
			p, err := rewrite.Rewrite(q, db, rewrite.Options{Mode: rewrite.ModeOptimized, Parallelism: 3})
			if err != nil {
				t.Fatalf("seed %d: rewrite: %v", seed, err)
			}
			cases = append(cases, parStreamGridCase{seed: seed, sorted: sorted, db: db, plan: p})
		}
	}
	return cases
}

func TestStreamingKeyedExchangesRunOverScanSources(t *testing.T) {
	type run struct {
		what string
		db   *engine.DB
		plan engine.Plan
	}
	var runs []run
	placementDB := withUnsortedCopy(t, bigPipelineDB(800))
	for _, p := range placementPlans() {
		runs = append(runs, run{"placement " + p.String(), placementDB, p})
	}
	for _, c := range parStreamGrid(t) {
		runs = append(runs, run{"qgen " + c.plan.String(), c.db, c.plan})
	}
	for _, r := range runs {
		for _, workers := range []int{2, 4} {
			col := engine.NewCollector()
			it, err := parallel.Exec(context.Background(), r.db, r.plan,
				parallel.Options{Workers: workers, MorselSize: 4, Stats: col.Root.Child("result", "")})
			if err != nil {
				t.Fatalf("%s workers %d: %v", r.what, workers, err)
			}
			_, err = engine.MaterializeErr(it)
			it.Close()
			if err != nil {
				t.Fatalf("%s workers %d: %v", r.what, workers, err)
			}
			checkScanSources(t, col.RootOp(), r.what)
		}
	}
}

// opRows sums the rows every node labeled label recorded, on itself and
// on its per-worker fragments.
func opRows(st *engine.OpStats, label string) int64 {
	var n int64
	if st.Label == label {
		n += st.Rows()
		for _, c := range st.Children() {
			if c.Label == "fragment" {
				n += c.Rows()
			}
		}
	}
	for _, c := range st.Children() {
		n += opRows(c, label)
	}
	return n
}

// partRows sums the part_rows of every node labeled label.
func partRows(st *engine.OpStats, label string) int64 {
	var n int64
	if st.Label == label {
		for _, r := range st.PartRows() {
			n += r
		}
	}
	for _, c := range st.Children() {
		n += partRows(c, label)
	}
	return n
}

// When the chain under a streaming sweep holds only column maps,
// filters and windows, the scan routes the partition: each fragment's
// chain runs on its own rows, so the Filters' rows= and the Scans'
// rows= summed over the fragments are the one-worker counts. A
// computing projection keeps the partition on top of the chain, so
// there every fragment scans the whole table. Either way part_rows
// counts the rows that reach the sweeps, after the filter.
func TestScanPartitionRoutesAtTheScan(t *testing.T) {
	db := keyedSortedDB(3000, func(i int) int64 { return int64(i % 17) })
	filter := func(in engine.Plan) engine.Plan {
		return engine.FilterP{Pred: algebra.Gt(algebra.Col("v"), algebra.IntC(1)), In: in}
	}
	rename := func(in engine.Plan) engine.Plan {
		return engine.ProjectP{Exprs: []algebra.NamedExpr{{Name: "v2", E: algebra.Col("v")}, {Name: "k2", E: algebra.Col("k")}}, In: in}
	}
	win := engine.WindowP{T: interval.New(100, 2500), In: engine.ScanP{Name: "r"}}
	plans := map[string]struct {
		p      engine.Plan
		routed bool
	}{
		"coalesce-filter":     {engine.CoalesceP{In: filter(engine.ScanP{Name: "l"})}, true},
		"coalesce-map-filter": {engine.CoalesceP{In: rename(filter(engine.ScanP{Name: "l"}))}, true},
		"diff-filter-window":  {engine.DiffP{L: filter(engine.ScanP{Name: "l"}), R: filter(win)}, true},
		"agg-filter":          {engine.AggP{GroupBy: []string{"k"}, Aggs: []algebra.AggSpec{{Fn: krel.CountStar, As: "n"}}, PreAgg: true, In: filter(engine.ScanP{Name: "l"})}, true},
		"coalesce-computed":   {engine.CoalesceP{In: engine.ProjectP{Exprs: []algebra.NamedExpr{{Name: "h", E: algebra.Add(algebra.Col("k"), algebra.IntC(1))}}, In: filter(engine.ScanP{Name: "l"})}}, false},
	}
	for name, c := range plans {
		counts := func(workers int) (filter, scan, parts int64, got *engine.Table) {
			col := engine.NewCollector()
			it, err := parallel.Exec(context.Background(), db, c.p, parallel.Options{Workers: workers, MorselSize: 16, Stats: col.Root.Child("result", "")})
			if err != nil {
				t.Fatalf("%s workers %d: %v", name, workers, err)
			}
			got = engine.Materialize(it)
			it.Close()
			return opRows(col.RootOp(), "Filter"), opRows(col.RootOp(), "Scan"), partRows(col.RootOp(), "Exchange:scan-partition"), got
		}
		filter1, scan1, _, want := counts(1)
		if filter1 == 0 || filter1 == scan1 || want.Len() == 0 {
			t.Fatalf("%s: vacuous at one worker", name)
		}
		for _, workers := range []int{2, 3, 4} {
			filterW, scanW, parts, got := counts(workers)
			if parts != filter1 {
				t.Fatalf("%s workers %d: part_rows sum to %d, but %d rows pass the filters", name, workers, parts, filter1)
			}
			if !sameMultiset(sortedKeys(got), sortedKeys(want)) {
				t.Fatalf("%s workers %d: diverges from one worker", name, workers)
			}
			wantFilter, wantScan := filter1, scan1
			if !c.routed {
				wantFilter, wantScan = int64(workers)*filter1, int64(workers)*scan1
			}
			if filterW != wantFilter || scanW != wantScan {
				t.Fatalf("%s workers %d: Filter rows=%d, Scan rows=%d; want %d and %d", name, workers, filterW, scanW, wantFilter, wantScan)
			}
		}
	}
}
