package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// cycleStats is what one pass over the operation list measured.
type cycleStats struct {
	wall     float64             // s
	class    [numClasses]float64 // s, summed latency per operation class
	querySum float64             // s, summed latency of the queries
	ops      int
	rows     int     // result rows scanned
	logLat   float64 // sums of ln(ms) over the cycle's queries
	logTTFR  float64
	queries  int
	alloc    uint64 // runtime.MemStats deltas over the cycle
	mallocs  uint64
	gcs      uint32
	gcPause  uint64  // ns
	peakRSS  float64 // MB, the resident-set high-water mark of the cycle
}

// samples is what a phase — a run of whole cycles — measured. Its
// storage is allocated before the phase starts: on a database of a
// megabyte the garbage collector's pace follows the live heap, and
// samples that grew during the phase would slow its later cycles.
type samples struct {
	ops     []op
	cycles  []cycleStats
	lat     [][]float64 // ms, by operation index, one sample per cycle
	ttfr    [][]float64 // ms, by operation index, queries only
	digests []digest    // by operation index, of the last cycle
}

func newSamples(ops []op, cycles int) *samples {
	s := &samples{ops: ops, cycles: make([]cycleStats, 0, cycles), digests: make([]digest, len(ops)),
		lat: make([][]float64, len(ops)), ttfr: make([][]float64, len(ops))}
	store := make([]float64, 2*len(ops)*cycles)
	for i := range ops {
		s.lat[i], store = store[:0:cycles], store[cycles:]
		s.ttfr[i], store = store[:0:cycles], store[cycles:]
	}
	return s
}

// byID pools per-operation samples by operation ID, over the
// operations keep accepts.
func (s *samples) byID(xs [][]float64, keep func(o *op) bool) map[string][]float64 {
	out := map[string][]float64{}
	for i := range s.ops {
		if o := &s.ops[i]; keep(o) && len(xs[i]) > 0 {
			out[o.id] = append(out[o.id], xs[i]...)
		}
	}
	return out
}

func anyOp(*op) bool { return true }

// opLat returns the latency of every operation executed, in ms.
func (s *samples) opLat() []float64 {
	var out []float64
	for _, xs := range s.lat {
		out = append(out, xs...)
	}
	return out
}

func (s *samples) series(f func(c *cycleStats) float64) []float64 {
	out := make([]float64, len(s.cycles))
	for i := range s.cycles {
		out[i] = f(&s.cycles[i])
	}
	return out
}

// checker counts what was attempted and what failed: an operation that
// errors and an output check that misses both count as failures.
type checker struct {
	attempted, failed int
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if c.failed <= 20 {
			fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
		}
	}
}

// runner holds one run of one workload.
type runner struct {
	ctx context.Context
	in  *instance
	chk *checker
	// ref holds, per operation index, the digest every execution of
	// that operation must reproduce; the warm-up cycle sets it, and warm,
	// its wall time in seconds.
	ref  []digest
	warm float64
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// phase runs whole cycles until at least d has passed. exec runs one
// operation; a nil result skips it (the staged paths run queries only).
func (r *runner) phase(d time.Duration, exec func(i int, o *op) *opResult) *samples {
	expect := 1
	if r.warm > 0 {
		expect = int(1.5*d.Seconds()/r.warm) + 8
	}
	s := newSamples(r.in.ops, expect)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	resetPeakRSS()
	for start := time.Now(); len(s.cycles) == 0 || time.Since(start) < d; {
		var c cycleStats
		t0 := time.Now()
		for i := range r.in.ops {
			o := &r.in.ops[i]
			res := exec(i, o)
			if res == nil {
				continue
			}
			r.chk.check(res.err == nil, "%s %s: %v", r.in.w.name, o.id, res.err)
			s.digests[i] = res.digest
			latMs := ms(res.lat)
			c.ops++
			c.class[o.class] += res.lat.Seconds()
			s.lat[i] = append(s.lat[i], latMs)
			if o.kind != opQuery {
				continue
			}
			c.rows += res.digest.Rows
			c.querySum += res.lat.Seconds()
			c.queries++
			c.logLat += math.Log(latMs)
			c.logTTFR += math.Log(ms(res.ttfr))
			s.ttfr[i] = append(s.ttfr[i], ms(res.ttfr))
		}
		c.wall = time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)
		c.alloc, c.mallocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
		c.gcs, c.gcPause = m1.NumGC-m0.NumGC, m1.PauseTotalNs-m0.PauseTotalNs
		m0 = m1
		c.peakRSS = peakRSSMB()
		resetPeakRSS()
		s.cycles = append(s.cycles, c)
		for db, t := range r.in.salaries {
			if t != nil {
				r.chk.check(t.Rows() == r.in.baseRows[db], "%s: salaries of database %d has %d rows after a cycle, %d before", r.in.w.name, db, t.Rows(), r.in.baseRows[db])
			}
		}
	}
	return s
}

// public executes an operation through the public API and checks its
// digest against the reference. A non-nil kept receives, per operation
// index, the encoded rows of every query result.
func (r *runner) public(tr *tracer, kept [][]encRow) func(i int, o *op) *opResult {
	return func(i int, o *op) *opResult {
		name := "snapk.query"
		if o.kind != opQuery {
			name = "table." + o.id
		}
		sp := tr.begin(name, -1, o.id)
		var rows *[]encRow
		if kept != nil {
			rows = &kept[i]
		}
		res := r.in.exec(r.ctx, o, rows)
		tr.end(sp)
		if r.ref != nil {
			r.chk.check(res.digest == r.ref[i], "%s %s: digest %v differs from the first cycle's %v", r.in.w.name, o.id, res.digest, r.ref[i])
		}
		return &res
	}
}

// replay executes the queries through one of the paths on the staged
// database. Where the stored rows are the generated ones — everywhere
// on a read-only workload, in round 0 otherwise — the digest must equal
// the public path's.
func (r *runner) replay(path string, run func(i int, o *op) opResult) func(i int, o *op) *opResult {
	return func(i int, o *op) *opResult {
		if o.kind != opQuery {
			return nil
		}
		res := run(i, o)
		if o.round == 0 {
			r.chk.check(res.digest == r.ref[i], "%s %s: %s path digest %v differs from the public path's %v", r.in.w.name, o.id, path, res.digest, r.ref[i])
		}
		return &res
	}
}

// endToEnd computes every end-to-end metric from a phase driven
// through the public API with tracing off. A timing's value is the best
// the run saw — a latency is the operation's fastest execution, a
// cycle's time or rate that of the fastest cycle — and the median and
// quartiles over the cycles are reported beside it: this machine's noise
// is one-sided — a neighbour on the core's other hardware thread slows
// the benchmark and nothing speeds it up — and it comes in stretches of
// minutes, which move every quantile of a 20 s run by the same 10-50 %
// and leave only the fastest samples where they were (see "Why the best
// and not the median" in ../README.md).
func endToEnd(s *samples, setup []float64) map[string]metric {
	out := map[string]metric{}
	put := func(name string, value float64, d dist) {
		def := defByName(name)
		out[name] = metric{Value: value, Unit: def.unit, Q1: d.Q1, Median: d.Median, Q3: d.Q3, N: d.N}
	}
	putMedian := func(name string, xs []float64) {
		d := summarize(xs)
		put(name, d.Median, d)
	}
	putBestCycle := func(name string, f func(c *cycleStats) float64) {
		xs := s.series(f)
		put(name, best(xs, defByName(name).better), summarize(xs))
	}
	putMedian("setup_s", setup)
	putBestCycle("cycle_best_s", wallOf)
	putMedian("cycle_p50_s", s.series(wallOf))
	putBestCycle("ops_per_s", func(c *cycleStats) float64 { return float64(c.ops) / c.wall })
	putBestCycle("rows_out_per_s", func(c *cycleStats) float64 { return float64(c.rows) / c.wall })

	// Latencies: each operation's fastest execution, in ms.
	var lat, ttfr []float64
	var class [numClasses]float64
	for i := range s.ops {
		fastest := slices.Min(s.lat[i])
		class[s.ops[i].class] += fastest
		if s.ops[i].kind == opQuery {
			lat = append(lat, fastest)
			ttfr = append(ttfr, slices.Min(s.ttfr[i]))
		}
	}
	put("geomean_ms", geomean(lat), summarize(s.series(func(c *cycleStats) float64 { return math.Exp(c.logLat / float64(c.queries)) })))
	put("ttfr_geomean_ms", geomean(ttfr), summarize(s.series(func(c *cycleStats) float64 { return math.Exp(c.logTTFR / float64(c.queries)) })))
	for c := opClass(0); c < numClasses; c++ {
		name, scale := c.String()+"_cycle_s", 1e-3
		if c == classWrite {
			name, scale = "write_cycle_ms", 1.0
		}
		if class[c] > 0 { // else the workload has no operation of this class
			put(name, scale*class[c], summarize(s.series(func(cs *cycleStats) float64 { return scale * 1e3 * cs.class[c] })))
		}
	}
	opLat := s.opLat()
	if p99 := percentile(opLat, 99); p99 > 0 {
		put("op_p99_ms", p99, dist{N: len(opLat)})
	}

	var alloc, mallocs float64
	for _, c := range s.cycles {
		alloc += float64(c.alloc)
		mallocs += float64(c.mallocs)
	}
	n := float64(len(s.cycles))
	put("alloc_mb_per_cycle", alloc/n/1e6, summarize(s.series(func(c *cycleStats) float64 { return float64(c.alloc) / 1e6 })))
	put("allocs_per_cycle", mallocs/n, summarize(s.series(func(c *cycleStats) float64 { return float64(c.mallocs) })))
	putMedian("peak_rss_mb", s.series(func(c *cycleStats) float64 { return c.peakRSS }))
	return out
}

// resetPeakRSS resets the resident-set high-water mark, so that every
// cycle reports its own peak: peak_rss_mb is the median over the cycles,
// which one late collection on a 13 MB process does not move, where the
// mark of the whole run jumped between 12 and 24 MB. Where the kernel
// refuses the reset, the mark stays process-wide.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// runConfig is what one run of one workload is given.
type runConfig struct {
	w            *workload
	sz           sizes
	seed         int64
	seconds      int
	golden       string // path of golden.json
	out          string // directory the trace files are written to
	updateGolden bool
}

// timedSetup sets the workload up once and returns the wall time.
func timedSetup(cfg runConfig) (*instance, float64, error) {
	runtime.GC()
	t0 := time.Now()
	in, err := cfg.w.setup(cfg.sz, cfg.seed, false)
	return in, time.Since(t0).Seconds(), err
}

// moreSetups sets the workload up again, at least twice and, while a
// set-up takes milliseconds, up to a hundred times or a second in all,
// so that setup_s is a steady median. It runs
// after the measured phase: the measured instance is the process's
// first, laid out in a fresh heap.
func moreSetups(cfg runConfig, first float64) ([]float64, error) {
	times := []float64{first}
	for total := first; len(times) < 3 || (total < 1 && len(times) < 101); {
		_, t, err := timedSetup(cfg)
		if err != nil {
			return nil, err
		}
		times = append(times, t)
		total += t
	}
	return times, nil
}

func newRunner(in *instance) *runner {
	return &runner{ctx: context.Background(), in: in, chk: &checker{}}
}

// warmUp runs one untimed cycle and keeps its digests as the reference.
func (r *runner) warmUp() {
	s := r.phase(0, r.public(nil, nil))
	r.ref, r.warm = s.digests, s.cycles[0].wall
}

// runEndToEnd is a run with tracing off: set-up, warm-up, the timed
// phase, the output check, and the further set-ups.
func runEndToEnd(cfg runConfig) (*workloadReport, error) {
	debug.FreeOSMemory() // a workload the process ran before leaves nothing resident
	in, first, err := timedSetup(cfg)
	if err != nil {
		return nil, err
	}
	r := newRunner(in)
	r.warmUp()
	s := r.phase(time.Duration(cfg.seconds)*time.Second, r.public(nil, nil))
	if err := r.verify(cfg); err != nil {
		return nil, err
	}
	r.in, in = nil, nil
	setupTimes, err := moreSetups(cfg, first)
	if err != nil {
		return nil, err
	}
	rep := newWorkloadReport(cfg.w, s)
	rep.EndToEnd = endToEnd(s, setupTimes)
	rep.Attempted, rep.Failed = r.chk.attempted, r.chk.failed
	rep.EndToEnd["fail_ratio"] = metric{Value: float64(rep.Failed) / float64(rep.Attempted), Unit: "ratio", N: rep.Attempted}
	return rep, nil
}

// verify is the output check, outside all timing. (b) One more cycle
// keeps every result and checks that it is the unique coalesced
// encoding. With more than one worker, a sequential cycle must
// reproduce the digests. (c) The digests must equal the golden file's.
// (a) On the scaled-down twin every query must be snapshot-reducible.
func (r *runner) verify(cfg runConfig) error {
	in := r.in
	kept := make([][]encRow, len(in.ops))
	r.phase(0, r.public(nil, kept))
	encodingOK := true
	for i, rows := range kept {
		if in.ops[i].kind != opQuery {
			continue
		}
		err := checkCoalesced(rows)
		r.chk.check(err == nil, "%s %s: result is not the unique coalesced encoding: %v", in.w.name, in.ops[i].id, err)
		encodingOK = encodingOK && err == nil
		kept[i] = nil
	}
	if in.w.workers > 1 {
		for _, db := range in.pub {
			db.SetParallelism(1)
		}
		r.phase(0, r.public(nil, nil))
		for _, db := range in.pub {
			db.SetParallelism(in.w.workers)
		}
	}

	twin, err := cfg.w.setup(twinOf(cfg.sz), cfg.seed, false)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	reducibleOK := true
	for i := range twin.ops {
		o := &twin.ops[i]
		if o.kind != opQuery || o.round != 0 {
			continue
		}
		db := twin.pub[o.db]
		err := checkReducible(db, o.sql, timePoints(db, 5, rng))
		r.chk.check(err == nil, "%s %s: not snapshot-reducible on the twin: %v", in.w.name, o.id, err)
		reducibleOK = reducibleOK && err == nil
	}
	return r.checkGolden(cfg, encodingOK && reducibleOK)
}

// checkGolden compares the round-0 digests with the golden file, or
// records them there when asked to and the two theorems' checks passed.
func (r *runner) checkGolden(cfg runConfig, theoremsOK bool) error {
	path := cfg.golden
	golden, err := readGolden(path)
	if err != nil {
		return err
	}
	key := goldenKey(cfg.w.data, cfg.sz.name, cfg.seed)
	got := map[string]digest{}
	for i, o := range r.in.ops {
		if o.kind == opQuery && o.round == 0 {
			got[o.id] = r.ref[i]
		}
	}
	if cfg.updateGolden {
		if !theoremsOK {
			return fmt.Errorf("%s: refusing to update %s: the reducibility or the encoding check failed", cfg.w.name, path)
		}
		golden[key] = got
		return golden.write(path)
	}
	want, ok := golden[key]
	if !ok {
		return nil // no golden digests for this seed: the other checks stand alone
	}
	for id, d := range got {
		r.chk.check(d == want[id], "%s %s: digest %v differs from golden %v", cfg.w.name, id, d, want[id])
	}
	return nil
}
