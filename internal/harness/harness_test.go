package harness

import (
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"snapk/internal/dataset"
	"snapk/internal/workload"
)

// tiny is a test-only scale that keeps every experiment under a second.
var tiny = Scale{
	Name:      "tiny",
	Employees: dataset.EmployeesConfig{NumEmployees: 120, NumDepartments: 5, Seed: 42},
	TPCSmall:  dataset.TPCBiHConfig{ScaleFactor: 0.02, Seed: 7},
	TPCLarge:  dataset.TPCBiHConfig{ScaleFactor: 0.04, Seed: 7},
	Fig5Sizes: []int{500, 1000},
	Runs:      1,
}

func TestFig1Output(t *testing.T) {
	var b strings.Builder
	if err := Fig1(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, frag := range []string{"(0, 0, 3)", "(2, 8, 10)", "(SP, 6, 8)", "(NS, 3, 8)"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Fig1 output missing %q:\n%s", frag, out)
		}
	}
}

func TestTable1Probes(t *testing.T) {
	var b strings.Builder
	if err := Table1(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // header + separator + 4 approaches
		t.Fatalf("Table1 has %d lines:\n%s", len(lines), out)
	}
	// Seq passes everything; natives fail AG/BD/uniqueness.
	for _, l := range lines[2:] {
		if strings.HasPrefix(l, "Seq") && strings.Contains(l, "NO") {
			t.Errorf("Seq row has failures: %s", l)
		}
		if strings.HasPrefix(l, "Nat") && !strings.Contains(l, "NO") {
			t.Errorf("native row has no failures: %s", l)
		}
	}
}

func TestFig5Runs(t *testing.T) {
	var b strings.Builder
	if err := Fig5(&b, tiny, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "500") {
		t.Errorf("Fig5 output:\n%s", b.String())
	}
}

func TestTable2GoldenCounts(t *testing.T) {
	// Golden result-row counts at the tiny scale pin down determinism of
	// generator + engine end to end (the Table 2 analogue).
	db := dataset.Employees(tiny.Employees)
	golden := map[string]int{}
	for _, wq := range workload.Employees() {
		res, err := RunWorkload(db, wq, Seq)
		if err != nil {
			t.Fatalf("%s: %v", wq.ID, err)
		}
		golden[wq.ID] = res.Len()
	}
	// Counts must be reproducible across a rebuild of the same dataset.
	db2 := dataset.Employees(tiny.Employees)
	for _, wq := range workload.Employees() {
		res, err := RunWorkload(db2, wq, Seq)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != golden[wq.ID] {
			t.Errorf("%s: count %d != %d on identical dataset", wq.ID, res.Len(), golden[wq.ID])
		}
	}
	// Shape expectations mirroring Table 2: diff-2 is by far the largest
	// diff result; join-3 is tiny.
	if golden["join-3"] > golden["join-1"] {
		t.Errorf("join-3 (%d) should be far smaller than join-1 (%d)", golden["join-3"], golden["join-1"])
	}
}

func TestTable2Writes(t *testing.T) {
	var b strings.Builder
	if err := Table2(&b, tiny); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"join-1", "diff-2", "Q1", "Q19"} {
		if !strings.Contains(b.String(), frag) {
			t.Errorf("Table2 missing %q", frag)
		}
	}
}

func TestTable3Runs(t *testing.T) {
	var b strings.Builder
	if err := Table3Employees(&b, tiny, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "agg-join") || !strings.Contains(b.String(), "BD") {
		t.Errorf("Table3Employees output:\n%s", b.String())
	}
	b.Reset()
	if err := Table3TPC(&b, tiny, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Q14") || !strings.Contains(b.String(), "AG") {
		t.Errorf("Table3TPC output:\n%s", b.String())
	}
}

func TestAblationsRun(t *testing.T) {
	var b strings.Builder
	if err := Ablations(&b, tiny, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, frag := range []string{"E7", "E8", "E9", "#coalesce"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Ablations missing %q", frag)
		}
	}
}

func TestMedian(t *testing.T) {
	calls := 0
	d, err := Median(5, func() error {
		calls++
		time.Sleep(time.Microsecond)
		return nil
	})
	if err != nil || calls != 5 || d <= 0 {
		t.Fatalf("Median = %v, %v, calls %d", d, err, calls)
	}
	wantErr := errors.New("boom")
	if _, err := Median(3, func() error { return wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("error not propagated: %v", err)
	}
	if _, err := Median(0, func() error { return nil }); err != nil {
		t.Fatalf("runs<1 should clamp: %v", err)
	}
}

func TestTableWriter(t *testing.T) {
	tw := NewTable("a", "bee")
	tw.AddRow("x", "1")
	tw.AddRow("longer", "2")
	var b strings.Builder
	if _, err := tw.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "a       bee") || !strings.Contains(out, "longer  2") {
		t.Errorf("TableWriter output:\n%s", out)
	}
}

func TestApproachStringAndRunErrors(t *testing.T) {
	if Seq.String() != "Seq" || NatAlign.String() != "Nat-align" ||
		SeqNaive.String() != "Seq-naive" || NatIP.String() != "Nat-ip" {
		t.Error("Approach names broken")
	}
	db := RunningExample()
	if _, err := Run(db, QOnduty(), Approach(42)); err == nil {
		t.Error("unknown approach must error")
	}
	bad := workload.Query{ID: "bad", SQL: "this is not sql"}
	if _, err := RunWorkload(db, bad, Seq); err == nil {
		t.Error("bad workload SQL must error")
	}
}

func TestFormatDuration(t *testing.T) {
	if got := FormatDuration(1500 * time.Millisecond); got != "1.5000" {
		t.Errorf("FormatDuration = %q", got)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep := NewReport(tiny)
	rep.Add("scaling", "join-pipeline/workers=2", 1500*time.Millisecond, map[string]float64{"speedup": 1.8})
	var nilRep *Report
	nilRep.Add("x", "y", time.Second, nil) // must not panic
	path := t.TempDir() + "/bench.json"
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Scale != "tiny" || len(got.Metrics) != 1 || got.Metrics[0].Seconds != 1.5 ||
		got.Metrics[0].Extra["speedup"] != 1.8 {
		t.Fatalf("round-tripped report = %+v", got)
	}
}

func TestSeqParApproach(t *testing.T) {
	if SeqPar.String() != "Seq-par" {
		t.Errorf("SeqPar label = %q", SeqPar)
	}
	db := RunningExample()
	seq, err := Run(db, QOnduty(), Seq)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(db, QOnduty(), SeqPar)
	if err != nil {
		t.Fatal(err)
	}
	seq, par = seq.Clone(), par.Clone()
	seq.Sort()
	par.Sort()
	if seq.Len() != par.Len() {
		t.Fatalf("SeqPar rows %d != Seq rows %d", par.Len(), seq.Len())
	}
	for i := range seq.Rows {
		if seq.Rows[i].Key() != par.Rows[i].Key() {
			t.Fatalf("SeqPar row %d differs: %v vs %v", i, par.Rows[i], seq.Rows[i])
		}
	}
}
