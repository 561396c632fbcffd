package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metricDef declares one metric: every number the benchmark prints has
// an entry here, and BENCHMARK.json repeats the names, units, directions
// and bounds (the schema test pins the two together).
type metricDef struct {
	name   string
	unit   string
	better string // lower or higher
	// bound is the share of the old median by which the metric may get
	// worse before -compare calls it a regression; 0 never gates.
	bound float64
	// everywhere marks the end-to-end metrics the driver gates on:
	// BENCHMARK.json's end_to_end list. Every workload reports them, they
	// are never 0, and a timing among them is the best the run saw. The
	// other end-to-end metrics — those only some workloads have, and the
	// median cycle, which follows the host's noise — BENCHMARK.json lists
	// under per_layer, where 0 stands for "not applicable".
	everywhere bool
}

// The bounds are the issue's floors (0.10 for timings, 0.03 for
// allocation, 0.15 for memory and set-up) widened to three times the
// spread measured on this machine over ten seeds, and capped at 0.25;
// see "How the bounds were set" in ../README.md.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25, true},
	{"cycle_best_s", "s", "lower", 0.25, true},
	{"cycle_p50_s", "s", "lower", 0.25, false},
	{"geomean_ms", "ms", "lower", 0.25, true},
	{"ttfr_geomean_ms", "ms", "lower", 0.25, true},
	{"ops_per_s", "1/s", "higher", 0.25, true},
	{"rows_out_per_s", "1/s", "higher", 0.25, true},
	{"join_cycle_s", "s", "lower", 0.25, false},
	{"agg_cycle_s", "s", "lower", 0.25, true},
	{"diff_cycle_s", "s", "lower", 0.25, true},
	{"scan_cycle_s", "s", "lower", 0.25, false},
	{"write_cycle_ms", "ms", "lower", 0.25, false},
	{"op_p99_ms", "ms", "lower", 0.25, false},
	{"alloc_mb_per_cycle", "MB", "lower", 0.22, true},
	{"allocs_per_cycle", "count", "lower", 0.17, true},
	{"peak_rss_mb", "MB", "lower", 0.25, true},
	{"fail_ratio", "ratio", "lower", 0, false},
}

var perLayerDefs = []metricDef{
	{name: "sqlfe.parse_us", unit: "us", better: "lower"},
	{name: "sqlfe.translate_us", unit: "us", better: "lower"},
	{name: "rewrite.plan_us", unit: "us", better: "lower"},
	{name: "rewrite.plan_ops", unit: "count", better: "lower"},
	{name: "rewrite.streaming_sweep_ratio", unit: "ratio", better: "higher"},
	{name: "parallel.build_s", unit: "s", better: "lower"},
	{name: "parallel.exchange_wait_s", unit: "s", better: "lower"},
	{name: "parallel.exchange_batches", unit: "count", better: "lower"},
	{name: "parallel.part_skew", unit: "ratio", better: "lower"},
	{name: "parallel.speedup", unit: "ratio", better: "higher"},
	{name: "engine.first_batch_s", unit: "s", better: "lower"},
	{name: "engine.drain_s", unit: "s", better: "lower"},
	{name: "engine.scan_self_s", unit: "s", better: "lower"},
	{name: "engine.filter_project_self_s", unit: "s", better: "lower"},
	{name: "engine.join_self_s", unit: "s", better: "lower"},
	{name: "engine.agg_self_s", unit: "s", better: "lower"},
	{name: "engine.diff_self_s", unit: "s", better: "lower"},
	{name: "engine.coalesce_self_s", unit: "s", better: "lower"},
	{name: "engine.sort_self_s", unit: "s", better: "lower"},
	{name: "engine.rows_scanned_per_row_out", unit: "ratio", better: "lower"},
	{name: "engine.max_state_rows", unit: "count", better: "lower"},
	{name: "engine.collector_overhead_rel", unit: "ratio", better: "lower"},
	{name: "table.insert_ns_per_row", unit: "ns", better: "lower"},
	{name: "table.insert_us", unit: "us", better: "lower"},
	{name: "table.update_us", unit: "us", better: "lower"},
	{name: "table.delete_us", unit: "us", better: "lower"},
	{name: "table.read_after_write_ratio", unit: "ratio", better: "lower"},
	{name: "snapk.cursor_overhead_rel", unit: "ratio", better: "lower"},
	{name: "tuple.compare_ns", unit: "ns", better: "lower"},
	{name: "tuple.appendkey_ns_per_row", unit: "ns", better: "lower"},
	{name: "algebra.eval_ns_per_row", unit: "ns", better: "lower"},
	{name: "tuple.value_bytes", unit: "bytes", better: "lower"},
	{name: "runtime.gc_cycles_per_cycle", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_ms_per_cycle", unit: "ms", better: "lower"},
	{name: "bench.trace_overhead_rel", unit: "ratio", better: "lower"},
}

func defByName(name string) metricDef {
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			if d.name == name {
				return d
			}
		}
	}
	panic("spine: undeclared metric " + name)
}

// driverEndToEnd and driverPerLayer are the metric lists of
// BENCHMARK.json: what a run prints with -trace 0 and with -trace 1.
func driverEndToEnd() []metricDef {
	var out []metricDef
	for _, d := range endToEndDefs {
		if d.everywhere {
			out = append(out, d)
		}
	}
	return out
}

func driverPerLayer() []metricDef {
	out := append([]metricDef{}, perLayerDefs...)
	for _, d := range endToEndDefs {
		if !d.everywhere && d.name != "fail_ratio" {
			out = append(out, d)
		}
	}
	return out
}

// metric is one reported number. A timing carries the median, the
// quartiles and the count of its per-cycle values next to the headline
// value, which is the best the run saw or, for setup_s and cycle_p50_s,
// the median.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Q1     float64 `json:"q1,omitempty"`
	Median float64 `json:"median,omitempty"`
	Q3     float64 `json:"q3,omitempty"`
	N      int     `json:"n,omitempty"`
}

type queryReport struct {
	P50Ms     float64 `json:"p50_ms"`
	Q1Ms      float64 `json:"q1_ms"`
	Q3Ms      float64 `json:"q3_ms"`
	TTFRP50Ms float64 `json:"ttfr_p50_ms,omitempty"`
	N         int     `json:"n"`
	Rows      int     `json:"rows,omitempty"`
}

type workloadReport struct {
	Name       string  `json:"name"`
	Why        string  `json:"why"`
	Cycles     int     `json:"cycles"`
	Operations int     `json:"operations"`
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	TailPct    float64 `json:"op_tail_percentile,omitempty"`
	TailMs     float64 `json:"op_tail_ms,omitempty"`
	// EndToEnd comes from a run with tracing off, PerLayer and
	// LayerShare from a traced run.
	EndToEnd   map[string]metric      `json:"end_to_end,omitempty"`
	PerLayer   map[string]metric      `json:"per_layer,omitempty"`
	LayerShare map[string]float64     `json:"layer_share,omitempty"`
	Queries    map[string]queryReport `json:"queries,omitempty"`
}

func newWorkloadReport(w *workload, s *samples) *workloadReport {
	opLat := s.opLat()
	rep := &workloadReport{Name: w.name, Why: w.why, Cycles: len(s.cycles), Operations: len(opLat), Queries: map[string]queryReport{}}
	rep.TailPct, rep.TailMs = tailPercentile(opLat)
	ttfr := s.byID(s.ttfr, anyOp)
	for id, xs := range s.byID(s.lat, anyOp) {
		d := summarize(xs)
		rep.Queries[id] = queryReport{P50Ms: d.Median, Q1Ms: d.Q1, Q3Ms: d.Q3, N: d.N, TTFRP50Ms: median(ttfr[id])}
	}
	for i, o := range s.ops {
		if q := rep.Queries[o.id]; o.kind == opQuery && o.round == 0 {
			q.Rows = s.digests[i].Rows
			rep.Queries[o.id] = q
		}
	}
	return rep
}

type header struct {
	Commit     string  `json:"commit"`
	Date       string  `json:"date"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Scale      string  `json:"scale"`
	Comparable bool    `json:"comparable"`
	Nproc      int     `json:"nproc"`
	Gomaxprocs int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	Go         string  `json:"go"`
	Claim      *string `json:"claim"` // this benchmark claims no gain
}

type report struct {
	Header    header            `json:"header"`
	Workloads []*workloadReport `json:"workloads"`
}

func newHeader(seed int64, seconds int, scale string) header {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return header{
		Commit: commit, Date: time.Now().UTC().Format(time.RFC3339), Seed: seed, Seconds: seconds,
		Scale: scale, Comparable: scale == "full",
		Nproc: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0), GOGC: gogc, Go: runtime.Version(),
	}
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func (rep *report) write(path string) error {
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func (rep *report) workload(name string) *workloadReport {
	for _, w := range rep.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func printMetrics(w io.Writer, defs []metricDef, ms map[string]metric) {
	for _, d := range defs {
		m, ok := ms[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-6s", d.name, m.Value, m.Unit)
		if m.N > 1 && m.Q3 != 0 {
			fmt.Fprintf(w, " q1 %-12.6g median %-12.6g q3 %-12.6g n %d", m.Q1, m.Median, m.Q3, m.N)
		}
		fmt.Fprintln(w)
	}
}

// print writes every metric by name with its unit, one workload after
// the other.
func (rep *report) print(w io.Writer) {
	h := rep.Header
	fmt.Fprintf(w, "spine: commit %s seed %d seconds %d scale %s nproc %d GOMAXPROCS %d GOGC %s %s\n",
		h.Commit, h.Seed, h.Seconds, h.Scale, h.Nproc, h.Gomaxprocs, h.GOGC, h.Go)
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "\n== %s: %d cycles, %d operations, %d of %d checks and operations failed\n", wr.Name, wr.Cycles, wr.Operations, wr.Failed, wr.Attempted)
		if wr.TailPct > 0 {
			fmt.Fprintf(w, "  operation latency p%g = %.4g ms, the highest percentile with ten samples beyond it\n", wr.TailPct, wr.TailMs)
		}
		printMetrics(w, endToEndDefs, wr.EndToEnd)
		printMetrics(w, perLayerDefs, wr.PerLayer)
		if len(wr.LayerShare) > 0 {
			fmt.Fprintln(w, "  share of the staged path's time, by layer:")
			names := make([]string, 0, len(wr.LayerShare))
			for name := range wr.LayerShare {
				names = append(names, name)
			}
			sort.Slice(names, func(i, j int) bool { return wr.LayerShare[names[i]] > wr.LayerShare[names[j]] })
			for _, name := range names {
				fmt.Fprintf(w, "    %-22s %8.4f %%\n", name, 100*wr.LayerShare[name])
			}
		}
	}
}

// driverLine is the last line of a single run's output, in the shape
// the benchmark contract fixes.
type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

// driverResult picks the declared metrics out of a workload's report;
// a per-layer metric that does not apply to the workload reads 0.
func driverResult(wr *workloadReport, traced bool) driverLine {
	defs, have := driverEndToEnd(), wr.EndToEnd
	if traced {
		defs, have = driverPerLayer(), wr.PerLayer
	}
	line := driverLine{Correct: wr.Failed == 0, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]driverMetric{}}
	for _, d := range defs {
		line.Metrics[d.name] = driverMetric{Value: have[d.name].Value, Unit: d.unit}
	}
	return line
}
