// Command snapbench regenerates every table and figure of the paper's
// evaluation (Section 10) plus the §9 ablations, over the synthetic
// stand-in datasets documented in DESIGN.md:
//
//	snapbench -exp fig1       Figure 1(b,c): running-example results
//	snapbench -exp table1     Table 1: measured bug taxonomy per approach
//	snapbench -exp fig5       Figure 5: coalescing runtime vs input size
//	snapbench -exp table2     Table 2: result row counts per query
//	snapbench -exp table3emp  Table 3 (Employee): Seq vs Nat runtimes
//	snapbench -exp table3tpc  Table 3 (TPC-BiH): Seq vs Nat at two scales
//	snapbench -exp ablation   §9 ablations (E7, E8, E9)
//	snapbench -exp sweep      streaming vs materializing vs partitioned sweep operators
//	snapbench -exp parstream  parallel streaming sweeps (ordered exchange) vs parallel blocking
//	snapbench -exp diff       streaming merge-based difference vs the blocking fused diff sweep
//	snapbench -exp chaos      resource-governor overhead, ungoverned vs governed (limits never trip)
//	snapbench -exp all        everything above
//
// -quick shrinks datasets for a fast smoke run; -runs sets the number of
// repetitions per measurement (the median is reported); -json writes the
// per-experiment median runtimes as machine-readable JSON to the given
// path. The repository's benchmark — end-to-end and per-layer metrics
// with a committed baseline — is the spine: bash bench/run.sh.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"snapk/internal/harness"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is the parsed command line of one snapbench invocation.
type config struct {
	Exp      string
	Scale    harness.Scale
	JSONPath string
}

// parseFlags parses the command line into a config. It is separated
// from run so tests can assert flag handling without executing
// experiments. Flag diagnostics and -help usage go to out.
func parseFlags(args []string, out io.Writer) (config, error) {
	fs := flag.NewFlagSet("snapbench", flag.ContinueOnError)
	fs.SetOutput(out)
	exp := fs.String("exp", "all", "experiment: fig1|table1|fig5|table2|table3emp|table3tpc|ablation|sweep|parstream|diff|chaos|all")
	quick := fs.Bool("quick", false, "use small datasets (smoke run)")
	runs := fs.Int("runs", 0, "repetitions per measurement (0 = scale default)")
	jsonPath := fs.String("json", "", "write per-experiment medians as JSON to this path")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	sc := harness.Full
	if *quick {
		sc = harness.Quick
	}
	if *runs > 0 {
		sc.Runs = *runs
	}
	return config{Exp: *exp, Scale: sc, JSONPath: *jsonPath}, nil
}

// experiment is one named entry of the experiment registry.
type experiment struct {
	Name string
	Run  func() error
}

// experiments returns the experiment registry in execution order; every
// experiment writes its tables to w and its medians into rep.
func experiments(w io.Writer, sc harness.Scale, rep *harness.Report) []experiment {
	return []experiment{
		{"fig1", func() error { return harness.Fig1(w) }},
		{"table1", func() error { return harness.Table1(w) }},
		{"fig5", func() error { return harness.Fig5(w, sc, rep) }},
		{"table2", func() error { return harness.Table2(w, sc) }},
		{"table3emp", func() error { return harness.Table3Employees(w, sc, rep) }},
		{"table3tpc", func() error { return harness.Table3TPC(w, sc, rep) }},
		{"ablation", func() error { return harness.Ablations(w, sc, rep) }},
		{"sweep", func() error { return harness.Sweep(w, sc, rep) }},
		{"parstream", func() error { return harness.ParStream(w, sc, rep) }},
		{"diff", func() error { return harness.Diff(w, sc, rep) }},
		{"chaos", func() error { return harness.Chaos(w, sc, rep) }},
	}
}

// run executes the selected experiments, returning the process exit
// code. All output goes through the given writers, which is what makes
// the command testable.
func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0 // the flag package already printed the usage text
	}
	if err != nil {
		return 2 // diagnostics already written by the flag package
	}
	rep := harness.NewReport(cfg.Scale)
	exps := experiments(stdout, cfg.Scale, rep)
	ran := false
	for _, e := range exps {
		if cfg.Exp != "all" && cfg.Exp != e.Name {
			continue
		}
		ran = true
		fmt.Fprintf(stdout, "==== %s (scale: %s) ====\n", e.Name, cfg.Scale.Name)
		if err := e.Run(); err != nil {
			fmt.Fprintf(stderr, "snapbench: %s: %v\n", e.Name, err)
			return 1
		}
		fmt.Fprintln(stdout)
	}
	if !ran {
		names := make([]string, len(exps))
		for i, e := range exps {
			names[i] = e.Name
		}
		fmt.Fprintf(stderr, "snapbench: unknown experiment %q (valid: %s, all)\n",
			cfg.Exp, strings.Join(names, ", "))
		return 2
	}
	if cfg.JSONPath != "" {
		if err := rep.WriteJSON(cfg.JSONPath); err != nil {
			fmt.Fprintf(stderr, "snapbench: writing %s: %v\n", cfg.JSONPath, err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d metrics to %s\n", len(rep.Metrics), cfg.JSONPath)
	}
	return 0
}
