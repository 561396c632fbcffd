package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"regexp"
	"slices"
	"sort"
	"testing"

	"snapk"
)

func tinyConfig(t *testing.T, w *workload) runConfig {
	return runConfig{w: w, sz: scales["tiny"], seed: 1, seconds: 1, golden: "../golden.json", out: t.TempDir()}
}

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []declared `json:"end_to_end"`
	PerLayer  []declared `json:"per_layer"`
}

type declared struct {
	Name, Unit, Better string
	Bound              float64
}

func names(ds []declared) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]driverMetric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestTinyRunMatchesBenchmarkJSON is the schema pin: a tiny run of every
// workload emits exactly the metric names BENCHMARK.json declares, with
// the declared units, and nothing fails.
func TestTinyRunMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkFile
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	units := map[string]string{}
	for _, d := range append(append([]declared{}, bm.EndToEnd...), bm.PerLayer...) {
		if !valid.MatchString(d.Name) {
			t.Errorf("metric name %q is not made of letters, digits, _ . -", d.Name)
		}
		def := defByName(d.Name)
		if d.Unit != def.unit || d.Better != def.better || d.Bound != def.bound && def.everywhere {
			t.Errorf("BENCHMARK.json declares %+v, the spine %+v", d, def)
		}
		units[d.Name] = d.Unit
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the spine %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.name || !valid.MatchString(w.name) {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the spine", i, bm.Workloads[i].Name, w.name)
		}
		cfg := tinyConfig(t, w)
		for _, traced := range []bool{false, true} {
			run, want := runEndToEnd, names(bm.EndToEnd)
			if traced {
				run, want = runPerLayer, names(bm.PerLayer)
			}
			rep, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			line := driverResult(rep, traced)
			if got := keys(line.Metrics); !slices.Equal(got, want) {
				t.Errorf("%s traced=%v emits %v, BENCHMARK.json declares %v", w.name, traced, got, want)
			}
			for name, m := range line.Metrics {
				if m.Unit != units[name] {
					t.Errorf("%s %s has unit %q, declared %q", w.name, name, m.Unit, units[name])
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s %s = %v: an end-to-end metric is never 0", w.name, name, m.Value)
				}
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d failed", w.name, traced, line.Failed, line.Attempted)
			}
			if !traced && rep.EndToEnd["fail_ratio"].Value != 0 {
				t.Errorf("%s fail_ratio = %v", w.name, rep.EndToEnd["fail_ratio"].Value)
			}
			// A timing is the best cycle's, with the cycles' median beside it.
			if b, o := rep.EndToEnd["cycle_best_s"], rep.EndToEnd["ops_per_s"]; !traced &&
				(b.Value > b.Q1 || b.Median != rep.EndToEnd["cycle_p50_s"].Value || o.Value < o.Q3) {
				t.Errorf("%s: cycle_best_s %+v and ops_per_s %+v are not the best cycle's", w.name, b, o)
			}
		}
	}
}

func TestQuantilesAndGeomean(t *testing.T) {
	d := summarize([]float64{4, 1, 3, 2, 5})
	if d.Q1 != 2 || d.Median != 3 || d.Q3 != 4 || d.N != 5 {
		t.Errorf("summarize = %+v", d)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even sample = %v", got)
	}
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean(1, 100) = %v", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of nothing = %v", got)
	}
	if lo, hi := best([]float64{3, 1, 2}, "lower"), best([]float64{3, 1, 2}, "higher"); lo != 1 || hi != 3 {
		t.Errorf("best of 3, 1, 2 = %v when lower is better, %v when higher is", lo, hi)
	}
}

// TestTailPercentile pins "the highest percentile with at least ten
// samples beyond it".
func TestTailPercentile(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		return xs
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {100, 90}, {999, 95}, {1000, 99}, {10000, 99.9}, {100000, 99.99}} {
		if p, _ := tailPercentile(sample(c.n)); p != c.want {
			t.Errorf("tailPercentile of %d samples picks p%g, want p%g", c.n, p, c.want)
		}
	}
	if _, v := tailPercentile(sample(1001)); v != 991 {
		t.Errorf("p99 of 1..1001 = %v, want 991", v)
	}
	if got := percentile(sample(999), 99); got != 0 {
		t.Errorf("p99 of 999 samples = %v, want 0: fewer than ten samples lie beyond it", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "query", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: covered once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past its parent
		{Name: "a1", Start: 12, End: 18, Parent: 1},
	}
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestDigestIsOrderIndependent(t *testing.T) {
	rows := [][]any{{int64(1), "a"}, {int64(1), "a"}, {int64(2), nil}, {1.5, true}}
	sum := func(order []int) digest {
		var d digest
		for _, i := range order {
			d.add(hashValues(rows[i]), int64(i), int64(i+5))
		}
		return d
	}
	if a, b := sum([]int{0, 1, 2, 3}), sum([]int{3, 1, 0, 2}); a != b {
		t.Errorf("digest depends on row order: %v vs %v", a, b)
	}
	// Two equal rows must not cancel: a multiset counts duplicates.
	var once, twice digest
	once.add(hashValues(rows[2]), 0, 5)
	twice.add(hashValues(rows[0]), 0, 5)
	twice.add(hashValues(rows[0]), 0, 5)
	twice.add(hashValues(rows[2]), 0, 5)
	if once.Sum == twice.Sum {
		t.Error("a duplicated row cancelled out of the digest")
	}
	if hashValues([]any{int64(1)}) == hashValues([]any{1.0}) || hashValues([]any{"1"}) == hashValues([]any{int64(1)}) {
		t.Error("values of different kinds hash alike")
	}
}

// factoryDB is the running example of the paper's Fig 1.
func factoryDB(t *testing.T) *snapk.DB {
	db := snapk.New(0, 24)
	works, err := db.CreateTable("works", "name", "skill")
	if err != nil {
		t.Fatal(err)
	}
	assign, err := db.CreateTable("assign", "mach", "skill")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		t          *snapk.Table
		begin, end int64
		a, b       string
	}{
		{works, 3, 10, "Ann", "SP"}, {works, 8, 16, "Joe", "NS"}, {works, 8, 16, "Sam", "SP"}, {works, 18, 20, "Ann", "SP"},
		{assign, 3, 12, "M1", "SP"}, {assign, 6, 14, "M2", "SP"}, {assign, 3, 16, "M3", "NS"},
	} {
		if err := r.t.Insert(r.begin, r.end, r.a, r.b); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

const (
	onDuty   = `SELECT count(*) AS cnt FROM works WHERE skill = 'SP'`
	skillReq = `SELECT skill FROM assign EXCEPT ALL SELECT skill FROM works`
)

func encode(res *snapk.Result) []encRow {
	var rows []encRow
	for _, r := range res.Rows {
		rows = append(rows, encRow{hashValues(r.Values), r.Begin, r.End})
	}
	return rows
}

// TestChecksOnFig1 runs both theorem checks on the paper's Fig 1: the
// middleware's results pass, and the results of an interval-preserving
// native evaluation — which has the aggregation-gap bug on onDuty and
// the bag-difference bug on skillReq — are caught.
func TestChecksOnFig1(t *testing.T) {
	db := factoryDB(t)
	var all []int64
	for p := db.MinTime(); p < db.MaxTime(); p++ {
		all = append(all, p)
	}
	for _, sql := range []string{onDuty, skillReq} {
		good, err := db.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if err := sliceEqualsSnapshot(db, sql, good, all); err != nil {
			t.Errorf("%s: the middleware's result is not snapshot-reducible: %v", sql, err)
		}
		if err := checkCoalesced(encode(good)); err != nil {
			t.Errorf("%s: the middleware's result is not coalesced: %v", sql, err)
		}
		buggy, err := db.QueryWith(sql, snapk.NativeIntervalPreservation)
		if err != nil {
			t.Fatal(err)
		}
		if err := sliceEqualsSnapshot(db, sql, buggy, all); err == nil {
			t.Errorf("%s: the native result passed the reducibility check:\n%s", sql, buggy)
		}
	}
}

// TestCheckCoalescedCounterExamples hand-builds encodings of onDuty's
// snapshots that are equivalent to the unique one but are not it.
func TestCheckCoalescedCounterExamples(t *testing.T) {
	one, two := hashValues([]any{int64(1)}), hashValues([]any{int64(2)})
	unique := []encRow{{one, 3, 8}, {two, 8, 10}, {one, 10, 16}, {one, 18, 20}}
	if err := checkCoalesced(append([]encRow{}, unique...)); err != nil {
		t.Errorf("the unique encoding is rejected: %v", err)
	}
	// A bag with a duplicate: multiplicity 2 during [3,8), then 1.
	if err := checkCoalesced([]encRow{{one, 3, 8}, {one, 3, 8}, {one, 8, 12}}); err != nil {
		t.Errorf("adjacent periods of different multiplicity are rejected: %v", err)
	}
	for name, rows := range map[string][]encRow{
		"adjacent periods of equal multiplicity": {{one, 3, 8}, {two, 8, 10}, {one, 10, 13}, {one, 13, 16}},
		"overlapping periods of one value":       {{one, 3, 12}, {one, 6, 14}},
		"a period inside another":                {{two, 0, 24}, {two, 8, 10}},
		"equal duplicates on both sides":         {{one, 3, 8}, {one, 3, 8}, {one, 8, 12}, {one, 8, 12}},
	} {
		if err := checkCoalesced(rows); err == nil {
			t.Errorf("%s passed the unique-encoding check", name)
		}
	}
}

// TestSmallRWRestoresSalaries checks that small-rw's writes leave the
// stored salaries multiset as it was, cycle after cycle.
func TestSmallRWRestoresSalaries(t *testing.T) {
	in, err := workloadByName("small-rw").setup(scales["tiny"], 1, false)
	if err != nil {
		t.Fatal(err)
	}
	dump := func() []byte {
		var b bytes.Buffer
		for _, salaries := range in.salaries {
			if err := salaries.WriteCSV(&b); err != nil {
				t.Fatal(err)
			}
		}
		return b.Bytes()
	}
	before := dump()
	r := newRunner(in)
	for cycle := 0; cycle < 3; cycle++ {
		r.phase(0, r.public(nil, nil))
		if !bytes.Equal(before, dump()) {
			t.Fatalf("salaries differs from its generated state after cycle %d", cycle)
		}
	}
	if r.chk.failed != 0 {
		t.Errorf("%d of %d operations failed", r.chk.failed, r.chk.attempted)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "cycle_p50_s", better: "lower", bound: 0.10}
	higher := metricDef{name: "ops_per_s", better: "higher", bound: 0.10}
	m := func(v float64) metric { return metric{Value: v, Median: v, Q1: v * 0.99, Q3: v * 1.01, N: 10} }
	noisy := metric{Value: 1, Median: 1, Q1: 0.9, Q3: 1.1, N: 10}
	for _, c := range []struct {
		def      metricDef
		old, new metric
		want     verdict
	}{
		{lower, m(1), m(1.05), withinBound},
		{lower, m(1), m(1.2), worse},
		{lower, m(1), m(0.8), better},
		{higher, m(1), m(0.8), worse},
		{higher, m(1), m(1.2), better},
		{lower, noisy, m(1.5), unresolved},
		{metricDef{name: "fail_ratio"}, m(0), metric{Value: 0.001}, worse},
		{metricDef{name: "fail_ratio"}, m(0), metric{}, withinBound},
	} {
		if _, got := judge(c.def, c.old, c.new); got != c.want {
			t.Errorf("judge(%s, %v -> %v) = %s, want %s", c.def.name, c.old.Value, c.new.Value, got, c.want)
		}
	}
}
