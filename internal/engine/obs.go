package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"snapk/internal/tuple"
)

// This file is the EXPLAIN ANALYZE side of the execution-observability
// layer: per-operator runtime counters (OpStats), the per-query
// Collector that owns them, the instrumented iterator wrapper (ObsIter)
// the executor inserts around every operator when a collector is
// attached, and the Chrome-trace exporter. Everything here is strictly
// pay-for-use: with no collector attached, NewObsIter returns its input
// unchanged and the executor's only cost is a nil check per plan node at
// build time — the batch hot path is untouched (the spine's
// engine.collector_overhead_rel measures exactly this).

// OpStats holds the runtime counters of one operator, exchange or
// fragment. Counter fields are updated through atomics: fragment
// iterators and exchange producers run on their own goroutines, so one
// node's counters may be written concurrently (per-partition row counts
// of a repartition exchange) while the race detector watches.
type OpStats struct {
	rows    atomic.Int64 // rows delivered by NextBatch
	nexts   atomic.Int64 // NextBatch calls (batches + the exhausting call)
	timeNs  atomic.Int64 // cumulative wall time inside NextBatch
	startNs atomic.Int64 // first activity, ns offset from the collector epoch
	endNs   atomic.Int64 // last activity (exhaustion or Close)
	state   atomic.Int64 // peak sweep state (StateSizer operators only)
	batches atomic.Int64 // batches delivered (exchange: sent by producers)
	waitNs  atomic.Int64 // exchange: producer time blocked on a full channel

	// Label names the operator ("StreamCoalesce", "exchange:merge");
	// Detail carries a static annotation ("streaming", "fanin=4"); Frag
	// is the fragment index of per-worker nodes, -1 otherwise.
	Label  string
	Detail string
	Frag   int

	c        *Collector
	mu       sync.Mutex
	children []*OpStats
	// partRows counts rows routed to each partition of a repartition
	// exchange — the skew signal. Sized once by InitParts, then updated
	// atomically by the producer goroutines.
	partRows []atomic.Int64
}

// Child creates and attaches a child node. It is nil-safe: a nil
// receiver (no collection) returns nil, so the executor can thread
// stats unconditionally.
func (st *OpStats) Child(label, detail string) *OpStats {
	if st == nil {
		return nil
	}
	n := &OpStats{Label: label, Detail: detail, Frag: -1, c: st.c}
	st.mu.Lock()
	st.children = append(st.children, n)
	st.mu.Unlock()
	return n
}

// Fragment creates a per-worker child node for fragment i. Nil-safe.
func (st *OpStats) Fragment(i int) *OpStats {
	n := st.Child("fragment", "")
	if n != nil {
		n.Frag = i
	}
	return n
}

// InitParts sizes the per-partition row counters of an exchange node.
// Nil-safe.
func (st *OpStats) InitParts(n int) {
	if st == nil {
		return
	}
	st.partRows = make([]atomic.Int64, n)
}

// AddPartRows records n rows routed to partition i; AddBatch and
// AddWait record one batch sent and producer blocking time. All are
// called from exchange producer goroutines and are nil-safe.
func (st *OpStats) AddPartRows(i, n int) {
	if st == nil || i >= len(st.partRows) {
		return
	}
	st.partRows[i].Add(int64(n))
}

// AddBatch counts one exchange batch sent downstream. Nil-safe.
func (st *OpStats) AddBatch() {
	if st != nil {
		st.batches.Add(1)
	}
}

// AddWait records ns spent blocked on a full exchange channel. Nil-safe.
func (st *OpStats) AddWait(ns int64) {
	if st != nil {
		st.waitNs.Add(ns)
	}
}

// Span marks the start of a blocking computation attributed to st (a
// materializing sweep or an eager hash-join build, which run at plan
// build time, outside any NextBatch) and returns a func recording its
// duration. Nil-safe.
func (st *OpStats) Span() func() {
	if st == nil {
		return func() {}
	}
	t0 := st.c.now()
	st.startNs.CompareAndSwap(0, t0)
	return func() {
		t1 := st.c.now()
		st.timeNs.Add(t1 - t0)
		st.endNs.Store(t1)
	}
}

// Rows, Nexts, Time, MaxState, Batches and Wait read the counters; they
// are meaningful once the query has been drained or closed.
func (st *OpStats) Rows() int64         { return st.rows.Load() }
func (st *OpStats) Nexts() int64        { return st.nexts.Load() }
func (st *OpStats) Time() time.Duration { return time.Duration(st.timeNs.Load()) }
func (st *OpStats) MaxState() int64     { return st.state.Load() }
func (st *OpStats) Batches() int64      { return st.batches.Load() }
func (st *OpStats) Wait() time.Duration { return time.Duration(st.waitNs.Load()) }
func (st *OpStats) Children() []*OpStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]*OpStats(nil), st.children...)
}

// PartRows returns the per-partition row counts of an exchange node
// (nil for non-exchange nodes): the skew signal.
func (st *OpStats) PartRows() []int64 {
	if st.partRows == nil {
		return nil
	}
	out := make([]int64, len(st.partRows))
	for i := range st.partRows {
		out[i] = st.partRows[i].Load()
	}
	return out
}

// Collector owns the per-query OpStats tree of one EXPLAIN ANALYZE run.
// Attach one via rewrite.Options.Collect (or pass an OpStats parent as
// parallel.Options.Stats directly); after draining the query,
// Render gives the annotated operator tree and WriteTrace the
// Chrome-trace spans.
type Collector struct {
	epoch time.Time
	// Root is the virtual query node; the executor attaches the operator
	// tree beneath it.
	Root *OpStats
}

// NewCollector returns an empty collector whose trace epoch is now.
func NewCollector() *Collector {
	c := &Collector{epoch: time.Now()}
	c.Root = &OpStats{Label: "query", Frag: -1, c: c}
	return c
}

// now returns the ns offset from the collector epoch — the span
// timestamp base of the trace export.
func (c *Collector) now() int64 { return time.Since(c.epoch).Nanoseconds() }

// RootOp returns the first operator node attached under the virtual
// root: the node whose row count is exactly what the cursor observed
// (the analyze-vs-cursor cross-check tests pin this equality).
func (c *Collector) RootOp() *OpStats {
	ch := c.Root.Children()
	if len(ch) == 0 {
		return nil
	}
	return ch[0]
}

// StateSizer is implemented by iterators that track the peak size of
// internal sweep state (active groups plus open intervals); ObsIter
// records it into OpStats when the stream ends.
type StateSizer interface {
	MaxState() int64
}

// ObsIter is the instrumented iterator wrapper of EXPLAIN ANALYZE: it
// forwards batches unchanged while counting rows out, batches,
// NextBatch calls and cumulative time — one update per batch, so the
// instrumentation overhead amortizes exactly like the execution it
// measures — and snapshots the wrapped iterator's peak sweep state at
// end of stream. Construct through NewObsIter, which is an identity
// no-op without a stats node.
type ObsIter struct {
	in RowIter
	st *OpStats
}

// NewObsIter wraps in with per-operator instrumentation recording into
// st. With st == nil it returns in unchanged — the collector-off hot
// path pays nothing. The root row count is exactly the rows the cursor
// observes.
func NewObsIter(in RowIter, st *OpStats) RowIter {
	if st == nil {
		return in
	}
	return &ObsIter{in: in, st: st}
}

func (it *ObsIter) Schema() tuple.Schema { return it.in.Schema() }

func (it *ObsIter) NextBatch(b *RowBatch) bool {
	t0 := it.st.c.now()
	ok := it.in.NextBatch(b)
	t1 := it.st.c.now()
	it.st.timeNs.Add(t1 - t0)
	it.st.nexts.Add(1)
	it.st.startNs.CompareAndSwap(0, t0)
	if ok {
		it.st.rows.Add(int64(b.Len()))
		it.st.batches.Add(1)
	} else {
		it.st.endNs.Store(t1)
		it.recordState()
	}
	return ok
}

func (it *ObsIter) Close() {
	it.st.endNs.CompareAndSwap(0, it.st.c.now())
	it.recordState()
	it.in.Close()
}

// Err delegates the terminal error: instrumentation never severs the
// error-carrying protocol.
func (it *ObsIter) Err() error { return it.in.Err() }

func (it *ObsIter) recordState() {
	if s, ok := it.in.(StateSizer); ok {
		if v := s.MaxState(); v > it.st.state.Load() {
			it.st.state.Store(v)
		}
	}
}

// Render returns the EXPLAIN ANALYZE operator tree: one line per
// operator/exchange/fragment with its measured counters.
func (c *Collector) Render() string {
	var b strings.Builder
	for _, op := range c.Root.Children() {
		renderStats(&b, op, "", true, true)
	}
	return b.String()
}

func renderStats(b *strings.Builder, st *OpStats, prefix string, last, root bool) {
	if !root {
		if last {
			b.WriteString(prefix + "└─ ")
			prefix += "   "
		} else {
			b.WriteString(prefix + "├─ ")
			prefix += "│  "
		}
	}
	b.WriteString(st.line())
	b.WriteByte('\n')
	ch := st.Children()
	for i, c := range ch {
		renderStats(b, c, prefix, i == len(ch)-1, false)
	}
}

// line formats one node's counters; zero-valued optional counters are
// omitted so sequential plans stay one short line per operator.
func (st *OpStats) line() string {
	var b strings.Builder
	b.WriteString(st.Label)
	if st.Frag >= 0 {
		fmt.Fprintf(&b, " %d", st.Frag)
	}
	if st.Detail != "" {
		fmt.Fprintf(&b, " [%s]", st.Detail)
	}
	fmt.Fprintf(&b, "  rows=%d nexts=%d time=%s", st.Rows(), st.Nexts(), fmtNs(st.timeNs.Load()))
	if v := st.MaxState(); v > 0 {
		fmt.Fprintf(&b, " max_state=%d", v)
	}
	if v := st.Batches(); v > 0 {
		fmt.Fprintf(&b, " batches=%d", v)
	}
	if v := st.waitNs.Load(); v > 0 {
		fmt.Fprintf(&b, " wait=%s", fmtNs(v))
	}
	if pr := st.PartRows(); pr != nil {
		fmt.Fprintf(&b, " part_rows=%v", pr)
	}
	return b.String()
}

func fmtNs(ns int64) string {
	return fmt.Sprintf("%.3fms", float64(ns)/1e6)
}

// traceEvent is one Chrome trace-event ("X" complete span or "M"
// metadata) of the query trace export; the JSON shape is the catapult
// trace-event format that chrome://tracing and ui.perfetto.dev load.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds from the collector epoch
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteTrace exports the collected spans as Chrome-trace JSON: one "X"
// span per operator, exchange and fragment that saw any activity, with
// fragments on their own trace threads so parallel overlap is visible.
// View with chrome://tracing or https://ui.perfetto.dev.
func (c *Collector) WriteTrace(w io.Writer) error {
	events := []traceEvent{{
		Name: "process_name", Ph: "M", Pid: 1, Tid: 0,
		Args: map[string]any{"name": "snapk query"},
	}}
	var walk func(st *OpStats, tid int)
	var maxTid int
	var spans []traceEvent
	walk = func(st *OpStats, tid int) {
		if st.Frag >= 0 {
			tid = st.Frag + 1
		}
		if tid > maxTid {
			maxTid = tid
		}
		start, end := st.startNs.Load(), st.endNs.Load()
		if start > 0 {
			if end < start {
				end = start
			}
			name := st.Label
			if st.Detail != "" {
				name += " [" + st.Detail + "]"
			}
			args := map[string]any{
				"rows":    st.Rows(),
				"nexts":   st.Nexts(),
				"busy_ms": float64(st.timeNs.Load()) / 1e6,
			}
			if v := st.MaxState(); v > 0 {
				args["max_state"] = v
			}
			if v := st.Batches(); v > 0 {
				args["batches"] = v
				args["wait_ms"] = float64(st.waitNs.Load()) / 1e6
			}
			if pr := st.PartRows(); pr != nil {
				args["part_rows"] = pr
			}
			spans = append(spans, traceEvent{
				Name: name, Cat: "operator", Ph: "X",
				Ts: float64(start) / 1e3, Dur: float64(end-start) / 1e3,
				Pid: 1, Tid: tid, Args: args,
			})
		}
		for _, ch := range st.Children() {
			walk(ch, tid)
		}
	}
	for _, op := range c.Root.Children() {
		walk(op, 0)
	}
	// Deterministic order for diffable traces: by start, then name.
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Ts != spans[j].Ts {
			return spans[i].Ts < spans[j].Ts
		}
		return spans[i].Name < spans[j].Name
	})
	events = append(events, spans...)
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
