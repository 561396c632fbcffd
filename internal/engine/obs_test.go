// Unit tests of the EXPLAIN ANALYZE collection layer: nil-safety of the
// collector-off path, ObsIter counting, sweep-state capture, the
// rendered operator tree and the Chrome-trace export.
package engine_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"snapk/internal/engine"
	"snapk/internal/interval"
	"snapk/internal/tuple"
)

// obsDB builds a 50-row single-table database whose intervals overlap
// heavily, so streaming sweeps accumulate real open-interval state.
func obsDB() *engine.DB {
	db := engine.NewDB(interval.NewDomain(0, 100))
	tb := db.CreateTable("t", tuple.NewSchema("g", "v"))
	for i := 0; i < 50; i++ {
		b := int64(i % 10)
		tb.Append(tuple.Tuple{tuple.Int(int64(i % 3)), tuple.Int(int64(i))}, interval.New(b, b+5), 1)
	}
	return db
}

// Every instrumentation hook must be an identity no-op without a
// collector: nil OpStats receivers absorb all calls, and NewObsIter
// returns its input unchanged.
func TestObsNilSafety(t *testing.T) {
	var st *engine.OpStats
	if st.Child("x", "") != nil {
		t.Fatal("nil OpStats.Child must return nil")
	}
	if st.Fragment(2) != nil {
		t.Fatal("nil OpStats.Fragment must return nil")
	}
	st.AddBatch()
	st.AddWait(5)
	st.InitParts(3)
	st.AddPartRows(0, 1)
	st.Span()()

	db := obsDB()
	it := execSeq(t, db, engine.ScanP{Name: "t"}, nil)
	defer it.Close()
	if engine.NewObsIter(it, nil) != it {
		t.Fatal("NewObsIter without a stats node must be the identity")
	}
}

// An analyzed enforced-streaming coalesce must report exact per-operator
// row counts, the sweep's peak state, a tree mirroring the plan, and a
// well-formed Chrome trace.
func TestAnalyzeCountsStateAndTrace(t *testing.T) {
	db := obsDB()
	col := engine.NewCollector()
	plan := engine.CoalesceP{In: engine.SortP{In: engine.ScanP{Name: "t"}}, Streaming: true}
	it := execSeq(t, db, plan, col.Root)
	res := engine.Materialize(it)
	it.Close()

	root := col.RootOp()
	if root == nil || root.Label != "Coalesce" || root.Detail != "streaming" {
		t.Fatalf("unexpected root stats node: %+v", root)
	}
	if root.Rows() != int64(res.Len()) {
		t.Fatalf("root rows=%d, materialized %d", root.Rows(), res.Len())
	}
	// Materialize drives the batch-capable chain via NextBatch, so the
	// pull counter amortizes: one Next/NextBatch call per delivered batch
	// plus the exhausting call, with the row count unchanged.
	if root.Batches() < 1 {
		t.Fatalf("batch-driven drain must count batches, got %d", root.Batches())
	}
	if root.Nexts() != root.Batches()+1 {
		t.Fatalf("drained batch iterator must count batches+1 pull calls, got batches=%d nexts=%d", root.Batches(), root.Nexts())
	}
	if root.MaxState() <= 0 {
		t.Fatal("streaming sweep must report peak open-interval/group state")
	}
	ch := root.Children()
	if len(ch) != 1 || ch[0].Label != "Sort" {
		t.Fatalf("expected one Sort child under Coalesce, got %+v", ch)
	}
	sc := ch[0].Children()
	if len(sc) != 1 || sc[0].Label != "Scan" || sc[0].Detail != "t" {
		t.Fatalf("expected a Scan[t] child under Sort, got %+v", sc)
	}
	if sc[0].Rows() != 50 {
		t.Fatalf("scan rows=%d, want 50", sc[0].Rows())
	}

	out := col.Render()
	for _, want := range []string{"Coalesce [streaming]", "Sort", "Scan [t]", "rows=50", "max_state="} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered tree lacks %q:\n%s", want, out)
		}
	}

	var buf bytes.Buffer
	if err := col.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) < 4 || tr.TraceEvents[0].Ph != "M" {
		t.Fatalf("trace must open with the metadata event and carry one span per active operator: %s", buf.String())
	}
	spans := 0
	for _, ev := range tr.TraceEvents[1:] {
		if ev.Ph != "X" {
			t.Fatalf("unexpected trace phase %q", ev.Ph)
		}
		if ev.Args["rows"] == nil {
			t.Fatalf("span %s lacks a rows arg", ev.Name)
		}
		spans++
	}
	if spans != 3 {
		t.Fatalf("expected 3 operator spans (Coalesce, Sort, Scan), got %d", spans)
	}
}

// Closing an analyzed iterator before exhaustion must still snapshot the
// sweep state and keep the counters consistent.
func TestAnalyzeEarlyCloseSnapshotsState(t *testing.T) {
	db := obsDB()
	col := engine.NewCollector()
	plan := engine.CoalesceP{In: engine.SortP{In: engine.ScanP{Name: "t"}}, Streaming: true}
	it := execSeq(t, db, plan, col.Root)
	b := engine.NewRowBatch(1)
	for i := 0; i < 5; i++ {
		if !it.NextBatch(b) {
			t.Fatal("stream ended before the early close")
		}
	}
	it.Close()
	root := col.RootOp()
	if root.Rows() != 5 || root.Nexts() != 5 {
		t.Fatalf("early close: rows=%d nexts=%d, want 5/5", root.Rows(), root.Nexts())
	}
	if root.MaxState() <= 0 {
		t.Fatal("Close must snapshot the sweep's peak state")
	}
}
