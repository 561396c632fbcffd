// Package obs is the process-wide observability registry: cheap,
// always-on counters aggregated across every query the process runs —
// queries rewritten, rows emitted through cursors, and the sweeps the
// executor ran, by form (streaming / blocking). Unlike the per-query
// engine.Collector, which must be attached explicitly, the registry is
// updated unconditionally; its counters are plain atomics updated at
// per-query (not per-row) granularity, so the cost is unmeasurable.
// Surfaced by `snapq -explain` / `snapq -analyze`.
package obs

import (
	"fmt"
	"sync/atomic"
)

// Registry holds the process-wide counters. The zero value is ready to
// use; most callers share Default.
type Registry struct {
	// QueriesRun counts snapshot queries rewritten to plans.
	QueriesRun atomic.Int64
	// RowsEmitted counts rows delivered through result cursors, flushed
	// in batches at cursor end (never one atomic per row).
	RowsEmitted atomic.Int64
	// StreamingSweeps / BlockingSweeps count the sweep operators the
	// executor built, by physical form: streaming over begin-ordered
	// input, and the materializing sweep.
	StreamingSweeps atomic.Int64
	BlockingSweeps  atomic.Int64
}

// Default is the process-wide registry instance.
var Default = &Registry{}

// CountSweep records one executed sweep operator in the given form.
func (r *Registry) CountSweep(streaming bool) {
	if streaming {
		r.StreamingSweeps.Add(1)
	} else {
		r.BlockingSweeps.Add(1)
	}
}

// Snapshot is a consistent-enough point-in-time copy of the counters
// (each counter is read atomically; the set is not a transaction).
type Snapshot struct {
	QueriesRun      int64
	RowsEmitted     int64
	StreamingSweeps int64
	BlockingSweeps  int64
}

// Snapshot copies the current counter values.
func (r *Registry) Snapshot() Snapshot {
	return Snapshot{
		QueriesRun:      r.QueriesRun.Load(),
		RowsEmitted:     r.RowsEmitted.Load(),
		StreamingSweeps: r.StreamingSweeps.Load(),
		BlockingSweeps:  r.BlockingSweeps.Load(),
	}
}

// String renders the snapshot as the one-line summary the CLIs print.
func (s Snapshot) String() string {
	return fmt.Sprintf("queries=%d rows_emitted=%d sweeps{streaming=%d blocking=%d}",
		s.QueriesRun, s.RowsEmitted, s.StreamingSweeps, s.BlockingSweeps)
}
