// Command snapq is the interactive face of the middleware: it loads one
// of the built-in temporal datasets and evaluates a snapshot SQL query
// against it, printing the period-encoded result.
//
//	snapq -data factory -sql "SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')"
//	snapq -data employees -query agg-1 -approach seq
//	snapq -data tpcbih -query Q5 -limit 20
//	snapq -data employees -query diff-2 -approach nat-ip   # observe the BD bug
//	snapq -data factory -explain -sql "SEQ VT (SELECT count(*) AS cnt FROM works)"
//	snapq -data employees -query agg-1 -approach seq-par -explain   # plan + placement annotations
//	snapq -data employees -query agg-1 -approach seq-par -analyze   # EXPLAIN ANALYZE: runtime counters
//	snapq -data employees -query agg-1 -approach seq-par -analyze -trace trace.json
//	snapq -data employees -query join-1 -approach seq-par  # DefaultWorkers fragments + exchanges
//	snapq -data employees -query join-1 -stream -limit 0   # stream rows as they arrive
//	snapq -data employees -query agg-1 -window 100,200   # timeslice: clip the result to [100, 200)
//	snapq -data employees -query join-1 -window 100,200 -explain   # windows pushed to the scans, pruned
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"snapk/internal/algebra"
	"snapk/internal/csvio"
	"snapk/internal/dataset"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
	"snapk/internal/harness"
	"snapk/internal/interval"
	"snapk/internal/obs"
	"snapk/internal/rewrite"
	"snapk/internal/sqlfe"
	"snapk/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is the parsed command line of one snapq invocation.
type config struct {
	Data     string
	Scale    float64
	Load     string
	Domain   string
	SQL      string
	QueryID  string
	Approach string
	Limit    int
	Explain  bool
	Analyze  bool
	Trace    string
	Stream   bool
	Out      string
	Window   string
}

// parseFlags parses the command line into a config; separated from run
// so tests can assert flag handling in isolation. Flag diagnostics and
// -help usage go to out.
func parseFlags(args []string, out io.Writer) (config, error) {
	fs := flag.NewFlagSet("snapq", flag.ContinueOnError)
	fs.SetOutput(out)
	cfg := config{}
	fs.StringVar(&cfg.Data, "data", "factory", "dataset: factory|employees|tpcbih|csv")
	fs.Float64Var(&cfg.Scale, "scale", 1, "dataset scale multiplier")
	fs.StringVar(&cfg.Load, "load", "", "with -data csv: comma-separated name=path.csv table sources")
	fs.StringVar(&cfg.Domain, "domain", "0,1000000", "with -data csv: time domain min,max")
	fs.StringVar(&cfg.SQL, "sql", "", "snapshot SQL to run (SEQ VT optional)")
	fs.StringVar(&cfg.QueryID, "query", "", "run a named workload query (join-1..diff-2, Q1..Q19)")
	fs.StringVar(&cfg.Approach, "approach", "seq", "seq|seq-naive|seq-par|nat-ip|nat-align")
	fs.IntVar(&cfg.Limit, "limit", 50, "maximum rows to print (0 = all)")
	fs.BoolVar(&cfg.Explain, "explain", false, "print the rewritten plan and its annotated EXPLAIN tree instead of executing")
	fs.BoolVar(&cfg.Analyze, "analyze", false, "execute and print EXPLAIN ANALYZE: per-operator rows, timings, sweep state and exchange metrics")
	fs.StringVar(&cfg.Trace, "trace", "", "write the executed query's operator spans as Chrome-trace JSON to this file (implies -analyze)")
	fs.BoolVar(&cfg.Stream, "stream", false, "print rows as the pipeline produces them instead of materializing and sorting (seq approaches only)")
	fs.StringVar(&cfg.Out, "out", "", "write the result as CSV to this file instead of printing")
	fs.StringVar(&cfg.Window, "window", "", "restrict the query to the time window begin,end (timeslice: row intervals are clipped)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	return cfg, nil
}

// run executes one query per the config, writing results to stdout and
// diagnostics to stderr, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0 // the flag package already printed the usage text
	}
	if err != nil {
		return 2 // diagnostics already written by the flag package
	}
	if err := runQuery(cfg, stdout); err != nil {
		fmt.Fprintf(stderr, "snapq: %v\n", err)
		return 1
	}
	return 0
}

// runQuery is the flag-free core of the command.
func runQuery(cfg config, stdout io.Writer) error {
	var db *engine.DB
	var defaultWorkload []workload.Query
	var err error
	if cfg.Data == "csv" {
		db, err = loadCSVTables(cfg.Load, cfg.Domain)
	} else {
		db, defaultWorkload, err = loadDataset(cfg.Data, cfg.Scale)
	}
	if err != nil {
		return err
	}

	var q algebra.Query
	switch {
	case cfg.SQL != "":
		q, err = sqlfe.ParseAndTranslate(cfg.SQL, db)
	case cfg.QueryID != "":
		wq, ok := workload.ByID(defaultWorkload, cfg.QueryID)
		if !ok {
			return fmt.Errorf("unknown workload query %q for dataset %s", cfg.QueryID, cfg.Data)
		}
		fmt.Fprintf(stdout, "-- %s: %s\n", wq.ID, wq.Description)
		q, err = wq.Translate(db)
	default:
		return fmt.Errorf("provide -sql or -query; see -help")
	}
	if err != nil {
		return err
	}

	ap, err := parseApproach(cfg.Approach)
	if err != nil {
		return err
	}
	window, err := parseWindow(cfg.Window)
	if err != nil {
		return err
	}
	// plan layers the window over an approach's base options.
	plan := func(opt rewrite.Options) rewrite.Options {
		opt.Window = window
		return opt
	}
	if cfg.Explain {
		return explainQuery(db, q, ap, plan, stdout)
	}
	if cfg.Analyze || cfg.Trace != "" {
		return analyzeQuery(db, q, ap, plan, cfg.Trace, stdout)
	}
	if cfg.Stream {
		opt, err := streamOptions(ap)
		if err != nil {
			return err
		}
		return streamRows(db, q, plan(opt), cfg.Limit, stdout)
	}
	var res *engine.Table
	if window.Valid() {
		// The window only exists on the rewriting pipeline — the native
		// baselines have no planner to place it.
		opt, err := streamOptions(ap)
		if err != nil {
			return err
		}
		res, err = rewrite.Run(db, q, plan(opt))
		if err != nil {
			return err
		}
	} else {
		res, err = harness.Run(db, q, ap)
		if err != nil {
			return err
		}
	}
	if cfg.Out != "" {
		f, err := os.Create(cfg.Out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := csvio.WriteTable(f, res); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d rows to %s\n", res.Len(), cfg.Out)
		return nil
	}
	printTable(res, cfg.Limit, stdout)
	return nil
}

// loadCSVTables builds a database from name=path.csv pairs.
func loadCSVTables(load, domain string) (*engine.DB, error) {
	var minT, maxT int64
	if _, err := fmt.Sscanf(domain, "%d,%d", &minT, &maxT); err != nil || minT >= maxT {
		return nil, fmt.Errorf("bad -domain %q (want min,max)", domain)
	}
	db := engine.NewDB(interval.NewDomain(minT, maxT))
	if load == "" {
		return nil, fmt.Errorf("-data csv requires -load name=path[,name=path...]")
	}
	for _, spec := range strings.Split(load, ",") {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			return nil, fmt.Errorf("bad -load entry %q (want name=path)", spec)
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		t, err := csvio.ReadTable(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		db.AddTable(name, t)
	}
	return db, nil
}

func loadDataset(name string, scale float64) (*engine.DB, []workload.Query, error) {
	switch name {
	case "factory":
		return harness.RunningExample(), nil, nil
	case "employees":
		cfg := dataset.DefaultEmployees
		cfg.NumEmployees = int(float64(cfg.NumEmployees) * scale)
		return dataset.Employees(cfg), workload.Employees(), nil
	case "tpcbih":
		cfg := dataset.DefaultTPCBiH
		cfg.ScaleFactor *= scale
		return dataset.TPCBiH(cfg), workload.TPCH(), nil
	default:
		return nil, nil, fmt.Errorf("unknown dataset %q", name)
	}
}

func parseApproach(s string) (harness.Approach, error) {
	switch s {
	case "seq":
		return harness.Seq, nil
	case "seq-naive":
		return harness.SeqNaive, nil
	case "nat-ip":
		return harness.NatIP, nil
	case "nat-align":
		return harness.NatAlign, nil
	case "seq-par":
		return harness.SeqPar, nil
	default:
		return 0, fmt.Errorf("unknown approach %q (valid: seq, seq-naive, seq-par, nat-ip, nat-align)", s)
	}
}

// parseWindow parses a begin,end -window value; empty means no window
// (the zero interval).
func parseWindow(s string) (interval.Interval, error) {
	if s == "" {
		return interval.Interval{}, nil
	}
	var b, e int64
	if _, err := fmt.Sscanf(s, "%d,%d", &b, &e); err != nil || b >= e {
		return interval.Interval{}, fmt.Errorf("bad -window %q (want begin,end with begin < end)", s)
	}
	return interval.New(b, e), nil
}

// explainQuery prints the static EXPLAIN of the query under the given
// approach: the compact rewritten plan, then the annotated operator
// tree — sweep modes, sort properties, estimated cardinalities, join
// strategies, pruned windows, and the fragment/exchange placement the
// executor chooses at the approach's worker count — and, when the
// planner noted any, the windows it could not push and why.
func explainQuery(db *engine.DB, q algebra.Query, ap harness.Approach, plan func(rewrite.Options) rewrite.Options, w io.Writer) error {
	opt, err := streamOptions(ap)
	if err != nil {
		return err
	}
	opt = plan(opt)
	p, dec, err := rewrite.PlanQuery(q, db, opt)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, p)
	fmt.Fprintln(w)
	fmt.Fprint(w, parallel.Explain(db, p, max(opt.Parallelism, 1)).Render())
	if len(dec.Notes) > 0 {
		fmt.Fprintln(w, "\nplanner decisions:")
		for _, note := range dec.Notes {
			fmt.Fprintf(w, "  %s\n", note)
		}
	}
	fmt.Fprintf(w, "\nprocess: %s\n", obs.Default.Snapshot())
	return nil
}

// analyzeQuery is EXPLAIN ANALYZE: it executes the query through the
// streaming pipeline with a collector attached, drains the result, and
// prints the measured per-operator tree plus the process-wide registry
// line. A non-empty tracePath additionally exports the collected spans
// as Chrome-trace JSON (view with chrome://tracing or ui.perfetto.dev).
func analyzeQuery(db *engine.DB, q algebra.Query, ap harness.Approach, plan func(rewrite.Options) rewrite.Options, tracePath string, w io.Writer) error {
	opt, err := streamOptions(ap)
	if err != nil {
		return err
	}
	opt = plan(opt)
	col := engine.NewCollector()
	opt.Collect = col
	it, err := rewrite.Stream(context.Background(), db, q, opt)
	if err != nil {
		return err
	}
	rows := 0
	b := engine.NewRowBatch(engine.DefaultBatchSize)
	for it.NextBatch(b) {
		rows += b.Len()
	}
	streamErr := it.Err()
	it.Close()
	if streamErr != nil {
		return streamErr
	}
	fmt.Fprintf(w, "EXPLAIN ANALYZE (approach %s)\n", ap)
	fmt.Fprint(w, col.Render())
	fmt.Fprintf(w, "(%d rows)\n", rows)
	fmt.Fprintf(w, "process: %s\n", obs.Default.Snapshot())
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := col.WriteTrace(f); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote trace to %s\n", tracePath)
	}
	return nil
}

// streamOptions maps a seq-family approach to rewrite options for the
// executor (the cursor, explain and analyze paths); the native
// baselines have no pipeline form.
func streamOptions(ap harness.Approach) (rewrite.Options, error) {
	switch ap {
	case harness.Seq:
		return rewrite.Options{Mode: rewrite.ModeOptimized}, nil
	case harness.SeqNaive:
		return rewrite.Options{Mode: rewrite.ModeNaive}, nil
	case harness.SeqPar:
		return rewrite.Options{Mode: rewrite.ModeOptimized, Parallelism: harness.DefaultWorkers}, nil
	default:
		return rewrite.Options{}, fmt.Errorf("approach %s has no streaming pipeline (valid here: seq, seq-naive, seq-par)", ap)
	}
}

// streamRows evaluates q through the streaming cursor path and prints
// rows in pipeline arrival order, without materializing the result.
func streamRows(db *engine.DB, q algebra.Query, opt rewrite.Options, limit int, w io.Writer) error {
	it, err := rewrite.Stream(context.Background(), db, q, opt)
	if err != nil {
		return err
	}
	defer it.Close()
	fmt.Fprintf(w, "%s\n", it.Schema())
	n := 0
	b := engine.NewRowBatch(engine.DefaultBatchSize)
	for it.NextBatch(b) {
		for _, row := range b.Rows {
			if limit > 0 && n >= limit {
				fmt.Fprintln(w, "... (more rows; raise -limit)")
				return nil
			}
			fmt.Fprintf(w, "%v\n", row)
			n++
		}
	}
	// A truncated stream must not print as a complete result.
	if err := it.Err(); err != nil {
		return err
	}
	fmt.Fprintf(w, "(%d rows)\n", n)
	return nil
}

func printTable(t *engine.Table, limit int, w io.Writer) {
	c := t.Clone()
	c.Sort()
	fmt.Fprintf(w, "%s\n", c.Schema)
	for i, row := range c.Rows {
		if limit > 0 && i >= limit {
			fmt.Fprintf(w, "... (%d more rows)\n", len(c.Rows)-limit)
			return
		}
		fmt.Fprintf(w, "%v\n", row)
	}
	fmt.Fprintf(w, "(%d rows)\n", len(c.Rows))
}
