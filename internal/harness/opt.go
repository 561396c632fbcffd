package harness

import (
	"fmt"
	"io"

	"snapk/internal/algebra"
	"snapk/internal/dataset"
	"snapk/internal/engine"
	"snapk/internal/interval"
	"snapk/internal/rewrite"
	"snapk/internal/tuple"
)

// This file is the planner ablation study (`snapbench -exp opt`): each
// cost-aware planner knob — window pushdown, zone-map pruning, hash
// pre-sizing, adaptive worker count — measured independently against
// the all-off baseline, on begin-sorted input. Every configuration of
// every experiment computes the same windowed result (the differential
// planner tests pin that); the study measures only how much work the
// knobs avoid.

// optWindowFrac is the fraction of the time domain the study's query
// window covers: small enough that pushdown and pruning have real rows
// to skip, large enough that the windowed result is non-trivial.
const optWindowFrac = 10

// optConfig is one knob setting of the ablation grid.
type optConfig struct {
	name  string
	knobs rewrite.PlannerKnobs
}

// optConfigs is the ablation grid: all-off, all-on, and all-on with
// each knob individually removed, so every knob's contribution is
// isolated as (no-X vs all-on). Selection and column placement is not in
// the grid: it runs on every plan.
func optConfigs() []optConfig {
	all := rewrite.AllKnobs()
	noWindowPushdown, noPrune, noPresize, noAdaptive := all, all, all, all
	noWindowPushdown.Pushdown = false
	noPrune.Prune = false
	noPresize.PreSize = false
	noAdaptive.AdaptiveWorkers = false
	return []optConfig{
		{"all-off", rewrite.PlannerKnobs{}},
		{"all-on", all},
		{"no-window-pushdown", noWindowPushdown},
		{"no-prune", noPrune},
		{"no-presize", noPresize},
		{"no-adaptive", noAdaptive},
	}
}

// optExperiment is one workload of the study.
type optExperiment struct {
	name   string
	query  algebra.Query
	window interval.Interval
	par    int // Options.Parallelism; 0 = sequential
}

// optInput builds the study's database: the coalescing workload's "sal"
// table with n rows, re-sorted into endpoint order (the acceptance
// configuration is begin-sorted input), plus a smaller "ref" table with
// one row per employee for the join workload.
func optInput(n int) *engine.DB {
	gen := dataset.CoalesceInput(n, 7)
	tbl, err := gen.Table("sal")
	if err != nil {
		panic(err) // generated dataset always has the sal table
	}
	sal := tbl.Clone()
	sal.SortByEndpoints()
	db := engine.NewDB(gen.Domain())
	db.AddTable("sal", sal)

	// One bonus row per employee, valid over a deterministic slice of the
	// domain; built unsorted, then endpoint-sorted like the fact table.
	empIdx := 0 // emp_no column position in sal's data schema
	seen := make(map[int64]bool)
	ref := engine.NewTable(tuple.NewSchema("emp_no", "bonus"))
	dom := db.Domain()
	span := dom.Max - dom.Min
	for _, row := range sal.Rows {
		emp := row[empIdx].AsInt()
		if seen[emp] {
			continue
		}
		seen[emp] = true
		begin := dom.Min + (emp*37)%(span/2)
		ref.Append(
			tuple.Tuple{tuple.Int(emp), tuple.Int(500 + emp%5*100)},
			interval.New(begin, begin+span/4),
			1,
		)
	}
	ref.SortByEndpoints()
	db.AddTable("ref", ref)
	// Warm the per-table statistics: in steady state they are computed
	// once and cached (invalidated only by mutation), so the study should
	// not charge the one-time computation to whichever knob configuration
	// happens to run first.
	sal.Stats()
	ref.Stats()
	return db
}

// optExperiments builds the study's three workloads over the domain of
// db: a windowed coalescing scan (pushdown + pruning territory), a
// windowed equi-join (build side + pre-sizing territory), and a small
// windowed query at full parallelism (adaptive-workers territory).
func optExperiments(db *engine.DB) []optExperiment {
	dom := db.Domain()
	span := dom.Max - dom.Min
	window := interval.New(dom.Min, dom.Min+span/optWindowFrac)
	join := algebra.Join{
		L: algebra.Rel{Name: "sal"},
		R: algebra.Rel{Name: "ref"},
		Pred: algebra.BinOp{
			Op: algebra.OpEq,
			L:  algebra.ColRef{Name: "emp_no"},
			R:  algebra.ColRef{Name: "r.emp_no"},
		},
	}
	return []optExperiment{
		{name: "coalesce", query: algebra.Rel{Name: "sal"}, window: window},
		{name: "join", query: join, window: window},
		{name: "small-par", query: algebra.Rel{Name: "sal"}, window: window, par: DefaultWorkers},
	}
}

// Opt measures the planner ablation grid: every knob configuration of
// every workload at the largest configured Fig 5 size (capped at 50000
// rows), reporting median runtime and allocations.
func Opt(w io.Writer, sc Scale, rep *Report) error {
	n := 0
	for _, s := range sc.Fig5Sizes {
		if s > n {
			n = s
		}
	}
	if n > 50000 {
		// Not silently: the report must show the measured size.
		fmt.Fprintf(w, "opt: capping input at 50000 rows (largest configured size %d)\n", n)
		n = 50000
	}
	db := optInput(n)
	tw := NewTable("experiment", "config", "median (s)", "allocs/op", "out rows")
	for _, exp := range optExperiments(db) {
		for _, cfg := range optConfigs() {
			opt := rewrite.Options{
				Mode:        rewrite.ModeOptimized,
				Window:      exp.window,
				Planner:     cfg.knobs,
				Parallelism: exp.par,
			}
			var rows int
			d, allocs, err := MedianAllocs(sc.Runs, func() error {
				out, err := rewrite.Run(db, exp.query, opt)
				if err != nil {
					return err
				}
				rows = out.Len()
				return nil
			})
			if err != nil {
				return fmt.Errorf("opt %s/%s: %w", exp.name, cfg.name, err)
			}
			tw.AddRow(exp.name, cfg.name, FormatDuration(d), fmt.Sprintf("%.0f", allocs), fmt.Sprintf("%d", rows))
			rep.AddDetail("opt", fmt.Sprintf("%s/%s/rows=%d", exp.name, cfg.name, n), d, allocs, int64(rows), nil)
		}
	}
	_, err := tw.WriteTo(w)
	return err
}
