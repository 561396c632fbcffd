package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"snapk/internal/harness"
	"snapk/internal/rewrite"
)

func TestParseFlagsDefaults(t *testing.T) {
	cfg, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Data != "factory" || cfg.Approach != "seq" || cfg.Limit != 50 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
}

func TestParseFlagsRejectsUnknown(t *testing.T) {
	var diag bytes.Buffer
	if _, err := parseFlags([]string{"-nonsense"}, &diag); err == nil {
		t.Fatal("expected error for unknown flag")
	}
	if !strings.Contains(diag.String(), "nonsense") {
		t.Fatalf("diagnostic missing flag name: %s", diag.String())
	}
}

// -help must print the full usage text and exit 0, like the standard
// flag package does (regression: the testable refactor swallowed it).
func TestRunHelpPrintsUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-help"}, &out, &errb); code != 0 {
		t.Fatalf("-help: exit %d, want 0", code)
	}
	for _, flagName := range []string{"-data", "-approach", "-sql", "-stream"} {
		if !strings.Contains(errb.String(), flagName) {
			t.Fatalf("usage text lacks %s:\n%s", flagName, errb.String())
		}
	}
}

func TestParseApproach(t *testing.T) {
	cases := map[string]harness.Approach{
		"seq":       harness.Seq,
		"seq-naive": harness.SeqNaive,
		"seq-par":   harness.SeqPar,
		"nat-ip":    harness.NatIP,
		"nat-align": harness.NatAlign,
	}
	for s, want := range cases {
		got, err := parseApproach(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if got != want {
			t.Fatalf("%s: got %v, want %v", s, got, want)
		}
	}
	if _, err := parseApproach("bogus"); err == nil {
		t.Fatal("expected error for unknown approach")
	} else {
		// The diagnostic must list the valid choices.
		for _, name := range []string{"seq", "seq-naive", "seq-par", "nat-ip", "nat-align"} {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("approach error does not list %q: %v", name, err)
			}
		}
	}
}

// TestDiffApproachesAgree pins the difference end to end through the
// CLI: the diff workload query under seq, seq-naive (a coalesce after
// every operator) and seq-par (per-worker diffs over the hash
// repartition) must print the identical sorted result.
func TestDiffApproachesAgree(t *testing.T) {
	outputs := map[string]string{}
	for _, ap := range []string{"seq", "seq-naive", "seq-par"} {
		var out, errb bytes.Buffer
		code := run([]string{"-data", "employees", "-scale", "0.1", "-query", "diff-1", "-approach", ap, "-limit", "0"}, &out, &errb)
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr: %s", ap, code, errb.String())
		}
		outputs[ap] = out.String()
		if !strings.Contains(out.String(), "rows)") {
			t.Fatalf("%s: no result footer:\n%s", ap, out.String())
		}
	}
	for ap, got := range outputs {
		if got != outputs["seq"] {
			t.Fatalf("approach %s disagrees with seq on diff-1:\n%s\nvs\n%s", ap, got, outputs["seq"])
		}
	}
}

func TestStreamOptions(t *testing.T) {
	opt, err := streamOptions(harness.SeqNaive)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Mode != rewrite.ModeNaive {
		t.Fatalf("seq-naive must plan in naive mode, got %+v", opt)
	}
	ps, err := streamOptions(harness.SeqPar)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Mode != rewrite.ModeOptimized || ps.Parallelism < 2 {
		t.Fatalf("seq-par must run the optimized plan on the parallel executor, got %+v", ps)
	}
	if _, err := streamOptions(harness.NatIP); err == nil {
		t.Fatal("native baselines have no streaming form; expected error")
	}
}

// Every seq-family approach must produce the same factory-query result
// text through the full run path.
func TestRunFactoryQueryAcrossApproaches(t *testing.T) {
	var want string
	for _, ap := range []string{"seq", "seq-naive", "seq-par"} {
		var out, errb bytes.Buffer
		code := run([]string{
			"-data", "factory", "-approach", ap,
			"-sql", "SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')",
		}, &out, &errb)
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr: %s", ap, code, errb.String())
		}
		if !strings.Contains(out.String(), "(7 rows)") {
			t.Fatalf("%s: unexpected output:\n%s", ap, out.String())
		}
		if want == "" {
			want = out.String()
		} else if out.String() != want {
			t.Fatalf("%s output diverges from seq:\n%s\nvs\n%s", ap, out.String(), want)
		}
	}
}

func TestRunExplainPrintsPlan(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{
		"-data", "factory", "-explain",
		"-sql", "SEQ VT (SELECT count(*) AS cnt FROM works)",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "TAgg") {
		t.Fatalf("explain output lacks plan operators:\n%s", out.String())
	}
	// The aggregation emits the unique encoding itself: no final
	// coalesce is planned above it.
	if strings.Contains(out.String(), "Coalesce") {
		t.Fatalf("explain output plans a coalesce above the aggregation:\n%s", out.String())
	}
	// The annotated tree: sweep modes, sequential placement, registry.
	for _, want := range []string{"sweep=", "{sequential", "process: queries="} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("explain output lacks %q:\n%s", want, out.String())
		}
	}
}

// -explain under a parallel approach must annotate fragment/exchange
// placement at the approach's worker count: a global aggregation runs
// as a time partition whose fragments each scan at one worker, and a
// grouped one over a morsel scan.
func TestRunExplainParallelPlacement(t *testing.T) {
	for sql, wants := range map[string][]string{
		"SEQ VT (SELECT count(*) AS cnt FROM works)":                       {"fragments ×2 via time-partition", "{sequential scan}"},
		"SEQ VT (SELECT skill, count(*) AS cnt FROM works GROUP BY skill)": {"morsel scan ×", "fragments ×"},
	} {
		var out, errb bytes.Buffer
		code := run([]string{"-data", "factory", "-explain", "-approach", "seq-par", "-sql", sql}, &out, &errb)
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr: %s", sql, code, errb.String())
		}
		for _, want := range wants {
			if !strings.Contains(out.String(), want) {
				t.Fatalf("parallel explain of %s lacks placement %q:\n%s", sql, want, out.String())
			}
		}
	}
}

// -window -explain pushes the window onto both scans and prints it
// there with its zone-map prune; the join strategy is the executor's,
// and a plan whose windows all reach a scan prints no decisions.
func TestRunExplainPlannerDecisions(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{
		"-data", "factory", "-explain", "-window", "4,12",
		"-sql", "SEQ VT (SELECT w.name FROM works w JOIN assign a ON w.skill = a.skill)",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{
		"hash build=right",
		"Window [[4, 12) prune]", // the pushed, pruned windows in the tree
		"est_rows=",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("windowed explain lacks %q:\n%s", want, out.String())
		}
	}
	if n := strings.Count(out.String(), "Window [[4, 12) prune]"); n != 2 {
		t.Fatalf("windowed explain shows %d pruned windows, want one per scan:\n%s", n, out.String())
	}
	if strings.Contains(out.String(), "planner decisions:") {
		t.Fatalf("every window reached a scan, yet a decisions section was printed:\n%s", out.String())
	}
	// Without a window, no decisions section and no window.
	out.Reset()
	errb.Reset()
	code = run([]string{
		"-data", "factory", "-explain",
		"-sql", "SEQ VT (SELECT count(*) AS cnt FROM works)",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if strings.Contains(out.String(), "planner decisions:") || strings.Contains(out.String(), "Window") {
		t.Fatalf("plain explain must print no window and no decisions section:\n%s", out.String())
	}
}

// -window restricts the executed query; the worker count must not
// change its rows.
func TestRunWindowedQuery(t *testing.T) {
	query := func(extra ...string) string {
		var out, errb bytes.Buffer
		args := append([]string{
			"-data", "factory", "-window", "4,12",
			"-sql", "SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')",
		}, extra...)
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errb.String())
		}
		return out.String()
	}
	plain := query()
	// Figure 1b clipped to [4, 12): the windowed result is non-trivial
	// and everything lies inside the window.
	for _, want := range []string{"(1, 4, 8)", "(2, 8, 10)", "(1, 10, 12)", "(3 rows)"} {
		if !strings.Contains(plain, want) {
			t.Fatalf("windowed result lacks %q:\n%s", want, plain)
		}
	}
	if got := query("-approach", "seq-par"); got != plain {
		t.Fatalf("seq-par changed the windowed result:\n%s\nvs\n%s", got, plain)
	}
}

func TestRunBadWindowErrors(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{
		"-data", "factory", "-window", "bogus",
		"-sql", "SEQ VT (SELECT count(*) AS cnt FROM works)",
	}, &out, &errb)
	if code == 0 {
		t.Fatal("a malformed -window must exit non-zero")
	}
	if !strings.Contains(errb.String(), "bad -window") {
		t.Fatalf("diagnostic missing: %s", errb.String())
	}
	errb.Reset()
	code = run([]string{
		"-data", "factory", "-window", "12,4",
		"-sql", "SEQ VT (SELECT count(*) AS cnt FROM works)",
	}, &out, &errb)
	if code == 0 {
		t.Fatal("an inverted -window must exit non-zero")
	}
}

// -analyze must execute the query, print the measured operator tree with
// exact row counts, and -trace must export well-formed Chrome-trace
// JSON alongside it.
func TestRunAnalyzeWithTrace(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	var out, errb bytes.Buffer
	code := run([]string{
		"-data", "factory", "-approach", "seq-par", "-analyze", "-trace", trace,
		"-sql", "SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"EXPLAIN ANALYZE", "Agg [streaming]", "rows=", "(7 rows)", "process: queries=1"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("analyze output lacks %q:\n%s", want, out.String())
		}
	}
	// Figure 1b's seven rows come straight from the aggregation's fused
	// emission, with no coalesce operator executed above it.
	if strings.Contains(out.String(), "Coalesce") {
		t.Fatalf("analyze output ran a coalesce above the aggregation:\n%s", out.String())
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	if !strings.Contains(string(data), "traceEvents") || !strings.Contains(string(data), `"ph":"X"`) {
		t.Fatalf("trace file is not Chrome-trace JSON: %s", data)
	}
	// -trace alone implies -analyze.
	var out2, errb2 bytes.Buffer
	code = run([]string{
		"-data", "factory", "-trace", filepath.Join(dir, "trace2.json"),
		"-sql", "SEQ VT (SELECT count(*) AS cnt FROM works)",
	}, &out2, &errb2)
	if code != 0 {
		t.Fatalf("-trace alone: exit %d, stderr: %s", code, errb2.String())
	}
	if !strings.Contains(out2.String(), "EXPLAIN ANALYZE") {
		t.Fatalf("-trace alone must run the analyze path:\n%s", out2.String())
	}
}

func TestRunStreamMode(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{
		"-data", "factory", "-stream", "-limit", "0",
		"-sql", "SELECT name FROM works WHERE skill = 'SP'",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "rows)") {
		t.Fatalf("stream mode did not report a row count:\n%s", out.String())
	}
}

func TestRunErrorsExitNonzero(t *testing.T) {
	for _, args := range [][]string{
		{"-data", "nope", "-sql", "SELECT * FROM works"},
		{"-data", "factory"}, // neither -sql nor -query
		{"-data", "factory", "-sql", "SELECT FROM"},
		{"-data", "factory", "-approach", "bogus", "-sql", "SELECT name FROM works"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 {
			t.Fatalf("args %v: expected nonzero exit", args)
		}
		if errb.Len() == 0 {
			t.Fatalf("args %v: expected diagnostics on stderr", args)
		}
	}
}

func TestRunCSVOut(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "res.csv")
	var buf, errb bytes.Buffer
	code := run([]string{
		"-data", "factory", "-out", out,
		"-sql", "SELECT name FROM works",
	}, &buf, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "name") {
		t.Fatalf("CSV output lacks header: %s", data)
	}
}
