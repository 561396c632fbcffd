// Package harness contains the shared machinery of the experiment
// drivers (cmd/snapbench and the root bench_test.go): dataset scales,
// approach dispatch, timing and table formatting. Each experiment in
// DESIGN.md's per-experiment index is regenerated through this package.
package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"snapk/internal/algebra"
	"snapk/internal/baseline"
	"snapk/internal/dataset"
	"snapk/internal/engine"
	"snapk/internal/rewrite"
	"snapk/internal/workload"
)

// Approach identifies an evaluation strategy in experiment output, in
// the paper's naming: Seq is the middleware, Nat-* are the native
// comparators.
type Approach int

// The approaches compared by Table 3, plus SeqPar — Seq with
// DefaultWorkers fragments per partitioned operator.
const (
	Seq Approach = iota
	SeqNaive
	NatIP
	NatAlign
	SeqPar
)

// DefaultWorkers is the worker count used by SeqPar: every available
// CPU, but at least 2 so exchanges are actually exercised on
// single-core machines.
var DefaultWorkers = max(2, runtime.NumCPU())

// String returns the label used in experiment tables.
func (a Approach) String() string {
	switch a {
	case Seq:
		return "Seq"
	case SeqNaive:
		return "Seq-naive"
	case NatIP:
		return "Nat-ip"
	case NatAlign:
		return "Nat-align"
	case SeqPar:
		return "Seq-par"
	default:
		return fmt.Sprintf("Approach(%d)", int(a))
	}
}

// Run evaluates q over db under the given approach and returns the
// result table. Every Seq-family approach runs on the one executor
// (internal/engine/parallel); they differ in plan mode and worker count.
func Run(db *engine.DB, q algebra.Query, ap Approach) (*engine.Table, error) {
	switch ap {
	case Seq:
		return rewrite.Run(db, q, rewrite.Options{Mode: rewrite.ModeOptimized})
	case SeqNaive:
		return rewrite.Run(db, q, rewrite.Options{Mode: rewrite.ModeNaive})
	case SeqPar:
		return rewrite.Run(db, q, rewrite.Options{Mode: rewrite.ModeOptimized, Parallelism: DefaultWorkers})
	case NatIP:
		return baseline.Eval(db, q, baseline.IntervalPreservation)
	case NatAlign:
		return baseline.Eval(db, q, baseline.Alignment)
	default:
		return nil, fmt.Errorf("harness: unknown approach %d", ap)
	}
}

// RunWorkload translates and evaluates a workload query.
func RunWorkload(db *engine.DB, wq workload.Query, ap Approach) (*engine.Table, error) {
	q, err := wq.Translate(db)
	if err != nil {
		return nil, err
	}
	return Run(db, q, ap)
}

// Scale bundles the dataset sizes of one harness configuration.
type Scale struct {
	Name      string
	Employees dataset.EmployeesConfig
	TPCSmall  dataset.TPCBiHConfig
	TPCLarge  dataset.TPCBiHConfig
	Fig5Sizes []int
	Runs      int
}

// Quick is the scale used by tests and `snapbench -quick`: seconds, not
// minutes.
var Quick = Scale{
	Name:      "quick",
	Employees: dataset.EmployeesConfig{NumEmployees: 1000, NumDepartments: 9, Seed: 42},
	TPCSmall:  dataset.TPCBiHConfig{ScaleFactor: 0.1, Seed: 7},
	TPCLarge:  dataset.TPCBiHConfig{ScaleFactor: 0.2, Seed: 7},
	Fig5Sizes: []int{1000, 5000, 20000, 50000},
	Runs:      2,
}

// Full is the default `snapbench` scale; it mirrors the paper's relative
// dataset proportions (Employees ≈ 15× TPC-small rows; TPC-large = 3×
// TPC-small, standing in for the paper's SF1 → SF10 step).
var Full = Scale{
	Name:      "full",
	Employees: dataset.EmployeesConfig{NumEmployees: 10000, NumDepartments: 9, Seed: 42},
	TPCSmall:  dataset.TPCBiHConfig{ScaleFactor: 0.5, Seed: 7},
	TPCLarge:  dataset.TPCBiHConfig{ScaleFactor: 1.5, Seed: 7},
	Fig5Sizes: []int{1000, 10000, 100000, 300000, 500000, 1000000},
	Runs:      3,
}

// Median times f over runs executions and returns the median duration.
// The error of any run aborts timing.
func Median(runs int, f func() error) (time.Duration, error) {
	if runs < 1 {
		runs = 1
	}
	ds := make([]time.Duration, 0, runs)
	for i := 0; i < runs; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(start))
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2], nil
}

// MedianAllocs times f like Median while also measuring allocation
// pressure: it returns the median duration and the median number of heap
// allocations per execution, from runtime.MemStats.Mallocs deltas — a
// process-wide counter, so allocations made by the pipeline's worker
// goroutines are included (and so are those of any unrelated concurrent
// goroutines; the harness runs experiments one at a time).
func MedianAllocs(runs int, f func() error) (time.Duration, float64, error) {
	if runs < 1 {
		runs = 1
	}
	ds := make([]time.Duration, 0, runs)
	as := make([]float64, 0, runs)
	var ms runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		start := time.Now()
		if err := f(); err != nil {
			return 0, 0, err
		}
		d := time.Since(start)
		runtime.ReadMemStats(&ms)
		ds = append(ds, d)
		as = append(as, float64(ms.Mallocs-before))
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	sort.Float64s(as)
	return ds[len(ds)/2], as[len(as)/2], nil
}

// TableWriter accumulates aligned experiment tables.
type TableWriter struct {
	header []string
	rows   [][]string
}

// NewTable returns a table with the given header.
func NewTable(header ...string) *TableWriter { return &TableWriter{header: header} }

// AddRow appends one formatted row.
func (t *TableWriter) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// WriteTo renders the table.
func (t *TableWriter) WriteTo(w io.Writer) (int64, error) {
	all := append([][]string{t.header}, t.rows...)
	widths := make([]int, 0, len(t.header))
	for _, row := range all {
		for i, c := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for ri, row := range all {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
		if ri == 0 {
			for i, wd := range widths {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", wd))
			}
			b.WriteByte('\n')
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// FormatDuration renders a duration the way the paper's tables do
// (seconds with two to three significant decimals).
func FormatDuration(d time.Duration) string {
	return fmt.Sprintf("%.4f", d.Seconds())
}

// Metric is one machine-readable measurement of an experiment run: a
// median runtime plus optional derived values (e.g. speedup factors).
type Metric struct {
	// Experiment is the snapbench experiment id (e.g. "scaling").
	Experiment string `json:"experiment"`
	// Name identifies the measured configuration within the experiment,
	// e.g. "join-pipeline/workers=4".
	Name string `json:"name"`
	// Seconds is the median runtime.
	Seconds float64 `json:"seconds"`
	// AllocsPerOp is the median heap allocation count per measured
	// execution (0 when the experiment does not measure allocations).
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Rows is the output cardinality of the measured configuration (0
	// when not applicable).
	Rows int64 `json:"rows,omitempty"`
	// Extra holds derived values such as {"speedup": 2.7}.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report accumulates experiment measurements for machine-readable output
// (snapbench -json), so the performance trajectory can be tracked as
// BENCH_*.json across PRs. A nil *Report is valid and records nothing,
// letting experiments thread it unconditionally.
type Report struct {
	Scale   string   `json:"scale"`
	Workers int      `json:"workers"`
	Metrics []Metric `json:"metrics"`
}

// NewReport returns an empty report for the given scale.
func NewReport(sc Scale) *Report {
	return &Report{Scale: sc.Name, Workers: DefaultWorkers}
}

// Add records one runtime-only measurement; it is a no-op on a nil
// report.
func (r *Report) Add(experiment, name string, d time.Duration, extra map[string]float64) {
	r.AddDetail(experiment, name, d, 0, 0, extra)
}

// AddDetail records one measurement together with its allocation count
// and output cardinality; it is a no-op on a nil report.
func (r *Report) AddDetail(experiment, name string, d time.Duration, allocsPerOp float64, rows int64, extra map[string]float64) {
	if r == nil {
		return
	}
	r.Metrics = append(r.Metrics, Metric{
		Experiment:  experiment,
		Name:        name,
		Seconds:     d.Seconds(),
		AllocsPerOp: allocsPerOp,
		Rows:        rows,
		Extra:       extra,
	})
}

// WriteJSON writes the report to path, indented for diff-friendliness.
func (r *Report) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
