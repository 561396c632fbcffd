package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one traced call into a layer. Start and End are nanoseconds
// since the tracer's epoch; Parent indexes the span that caused it (-1
// for a root); the spans of one operation share its Query identifier.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Query  string `json:"query"`
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// is tracing off: begin and end are no-ops, so the timed and the traced
// phases run the same code.
type tracer struct {
	epoch time.Time
	spans []span
}

// newTracer returns a tracer with room for capacity spans: like the
// samples, the spans should not grow the heap while a phase runs.
func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(name string, parent int, query string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch).Nanoseconds(), Parent: parent, Query: query})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = time.Since(t.epoch).Nanoseconds()
	}
}

// selfTimes returns, per span, its duration minus the part of that
// interval its child spans cover (children may overlap each other).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ch := kids[i]
		sort.Slice(ch, func(a, b int) bool { return spans[ch[a]].Start < spans[ch[b]].Start })
		covered, edge := int64(0), s.Start
		for _, c := range ch {
			lo, hi := max(spans[c].Start, edge), min(spans[c].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// durations returns the duration in nanoseconds of every span named
// name, in recording order.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
