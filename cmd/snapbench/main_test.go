package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"snapk/internal/harness"
)

func TestParseFlagsDefaults(t *testing.T) {
	cfg, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Exp != "all" || cfg.Scale.Name != "full" || cfg.JSONPath != "" {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
}

func TestParseFlagsQuickAndRuns(t *testing.T) {
	cfg, err := parseFlags([]string{"-quick", "-runs", "7", "-exp", "sweep"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scale.Name != "quick" || cfg.Scale.Runs != 7 || cfg.Exp != "sweep" {
		t.Fatalf("flags not applied: %+v", cfg)
	}
}

// -help must print the usage text and exit 0.
func TestRunHelpPrintsUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-h"}, &out, &errb); code != 0 {
		t.Fatalf("-h: exit %d, want 0", code)
	}
	if !strings.Contains(errb.String(), "-exp") || !strings.Contains(errb.String(), "-json") {
		t.Fatalf("usage text incomplete:\n%s", errb.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "nope", "-quick"}, &out, &errb); code != 2 {
		t.Fatalf("unknown experiment: exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown experiment") {
		t.Fatalf("missing diagnostic: %s", errb.String())
	}
	// The diagnostic must list the valid experiment names.
	for _, name := range []string{"sweep", "diff", "chaos", "all"} {
		if !strings.Contains(errb.String(), name) {
			t.Fatalf("diagnostic does not list %q: %s", name, errb.String())
		}
	}
}

func TestExperimentRegistryCoversDocumentedIDs(t *testing.T) {
	var out bytes.Buffer
	exps := experiments(&out, harness.Quick, nil)
	ids := make(map[string]bool)
	for _, e := range exps {
		ids[e.Name] = true
	}
	for _, want := range []string{"fig1", "table1", "fig5", "table2", "table3emp", "table3tpc", "ablation", "sweep", "parstream", "diff", "chaos"} {
		if !ids[want] {
			t.Fatalf("experiment %q missing from registry", want)
		}
	}
}

// The -json output is the machine-readable contract downstream bench
// tooling parses; pin its schema on a real sweep run.
func TestRunSweepJSONSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	sc := harness.Quick
	sc.Fig5Sizes = []int{200} // keep the test fast
	sc.Runs = 1
	rep := harness.NewReport(sc)
	var out bytes.Buffer
	if err := harness.Sweep(&out, sc, rep); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got harness.Report
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("-json output is not valid JSON: %v", err)
	}
	if got.Scale != "quick" || got.Workers < 2 {
		t.Fatalf("report header wrong: %+v", got)
	}
	if len(got.Metrics) == 0 {
		t.Fatal("no metrics recorded")
	}
	names := make(map[string]bool)
	for _, m := range got.Metrics {
		if m.Experiment != "sweep" {
			t.Fatalf("metric experiment = %q, want sweep", m.Experiment)
		}
		if m.Name == "" || m.Seconds < 0 {
			t.Fatalf("malformed metric: %+v", m)
		}
		if m.Rows <= 0 {
			t.Fatalf("sweep metrics must carry output cardinality: %+v", m)
		}
		if m.AllocsPerOp <= 0 {
			t.Fatalf("sweep metrics must carry allocation counts: %+v", m)
		}
		names[m.Name] = true
	}
	for _, want := range []string{
		"coalesce-blocking/unsorted/rows=200",
		"coalesce-streaming/sorted/rows=200",
		"agg-blocking/unsorted/rows=200",
		"agg-streaming/sorted/rows=200",
	} {
		if !names[want] {
			t.Fatalf("metric %q missing; got %v", want, names)
		}
	}
}

// The parstream experiment feeds the CI smoke and the ROADMAP
// performance trajectory; pin its -json metric naming so downstream
// parsing does not silently break.
func TestRunParStreamJSONSchema(t *testing.T) {
	sc := harness.Quick
	sc.Fig5Sizes = []int{200} // keep the test fast
	sc.Runs = 1
	rep := harness.NewReport(sc)
	var out bytes.Buffer
	if err := harness.ParStream(&out, sc, rep); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, m := range rep.Metrics {
		if m.Experiment != "parstream" {
			t.Fatalf("metric experiment = %q, want parstream", m.Experiment)
		}
		if m.Name == "" || m.Seconds < 0 {
			t.Fatalf("malformed metric: %+v", m)
		}
		if m.Rows <= 0 {
			t.Fatalf("parstream metrics must carry output cardinality: %+v", m)
		}
		names[m.Name] = true
	}
	w := harness.DefaultWorkers
	for _, want := range []string{
		fmt.Sprintf("coalesce-blocking-x%d/unsorted/rows=200", w),
		fmt.Sprintf("coalesce-streaming-x%d/sorted/rows=200", w),
		fmt.Sprintf("agg-blocking-x%d/unsorted/rows=200", w),
		fmt.Sprintf("agg-streaming-x%d/sorted/rows=200", w),
		"coalesce-streaming/sorted/rows=200",
		"agg-streaming/sorted/rows=200",
	} {
		if !names[want] {
			t.Fatalf("metric %q missing; got %v", want, names)
		}
	}
	// Paired variants must agree on output cardinality: the streaming
	// and blocking parallel sweeps compute the same multiset.
	var rows []int64
	for _, m := range rep.Metrics {
		if strings.HasPrefix(m.Name, "coalesce-") {
			rows = append(rows, m.Rows)
		}
	}
	for _, r := range rows {
		if r != rows[0] {
			t.Fatalf("coalesce variants disagree on output cardinality: %v", rows)
		}
	}
}

// The diff experiment backs the streaming-difference acceptance
// numbers and the CI smoke; pin its -json metric naming so downstream
// parsing does not silently break.
func TestRunDiffJSONSchema(t *testing.T) {
	sc := harness.Quick
	sc.Fig5Sizes = []int{200} // keep the test fast
	sc.Runs = 1
	rep := harness.NewReport(sc)
	var out bytes.Buffer
	if err := harness.Diff(&out, sc, rep); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, m := range rep.Metrics {
		if m.Experiment != "diff" {
			t.Fatalf("metric experiment = %q, want diff", m.Experiment)
		}
		if m.Name == "" || m.Seconds < 0 {
			t.Fatalf("malformed metric: %+v", m)
		}
		if m.Rows <= 0 {
			t.Fatalf("diff metrics must carry output cardinality: %+v", m)
		}
		names[m.Name] = true
	}
	w := harness.DefaultWorkers
	for _, want := range []string{
		"diff-streaming/sorted/rows=200",
		"diff-blocking/unsorted/rows=200",
		fmt.Sprintf("diff-blocking-x%d/unsorted/rows=200", w),
		fmt.Sprintf("diff-streaming-x%d/sorted/rows=200", w),
	} {
		if !names[want] {
			t.Fatalf("metric %q missing; got %v", want, names)
		}
	}
	// Every physical variant computes the same multiset, so all four must
	// agree on output cardinality.
	var rows []int64
	for _, m := range rep.Metrics {
		rows = append(rows, m.Rows)
	}
	for _, r := range rows {
		if r != rows[0] {
			t.Fatalf("diff variants disagree on output cardinality: %v", rows)
		}
	}
}

// An end-to-end quick run of the fig1 experiment through run(),
// asserting exit code, stdout banner, and JSON side effect.
func TestRunFig1WithJSON(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	var out, errb bytes.Buffer
	code := run([]string{"-exp", "fig1", "-quick", "-json", path}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "==== fig1 (scale: quick) ====") {
		t.Fatalf("missing banner:\n%s", out.String())
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("-json file not written: %v", err)
	}
}

// The chaos experiment backs the fault-domain acceptance numbers
// (governor overhead within noise); pin its -json metric naming (paired
// ungoverned/governed entries with an overhead extra) so downstream
// parsing does not silently break.
func TestRunChaosJSONSchema(t *testing.T) {
	sc := harness.Quick
	sc.Fig5Sizes = []int{200} // keep the test fast
	sc.Runs = 1
	rep := harness.NewReport(sc)
	var out bytes.Buffer
	if err := harness.Chaos(&out, sc, rep); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, m := range rep.Metrics {
		if m.Experiment != "chaos" {
			t.Fatalf("metric experiment = %q, want chaos", m.Experiment)
		}
		if m.Name == "" || m.Seconds < 0 {
			t.Fatalf("malformed metric: %+v", m)
		}
		if m.Rows <= 0 {
			t.Fatalf("chaos metrics must carry output cardinality: %+v", m)
		}
		if strings.Contains(m.Name, "/governed/") {
			if _, ok := m.Extra["overhead"]; !ok {
				t.Fatalf("governed metric must carry the overhead extra: %+v", m)
			}
		}
		names[m.Name] = true
	}
	w := harness.DefaultWorkers
	for _, want := range []string{
		"filter-project/ungoverned/rows=200",
		"filter-project/governed/rows=200",
		"coalesce-streaming/governed/rows=200",
		"agg-streaming/governed/rows=200",
		"diff-streaming/governed/rows=200",
		fmt.Sprintf("coalesce-parallel-x%d/ungoverned/rows=200", w),
		fmt.Sprintf("coalesce-parallel-x%d/governed/rows=200", w),
	} {
		if !names[want] {
			t.Fatalf("metric %q missing; got %v", want, names)
		}
	}
	// Governing with limits that never trip must not change results:
	// the ungoverned/governed pair agrees on output cardinality.
	cards := make(map[string]int64)
	for _, m := range rep.Metrics {
		base := strings.Replace(strings.Replace(m.Name, "/ungoverned/", "/", 1), "/governed/", "/", 1)
		if prev, ok := cards[base]; ok && prev != m.Rows {
			t.Fatalf("runs of %s disagree on cardinality: %d vs %d", base, prev, m.Rows)
		} else {
			cards[base] = m.Rows
		}
	}
}
