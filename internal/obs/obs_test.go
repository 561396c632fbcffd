package obs_test

import (
	"testing"

	"snapk/internal/obs"
)

func TestRegistryCountersAndSnapshot(t *testing.T) {
	r := &obs.Registry{}
	r.QueriesRun.Add(2)
	r.RowsEmitted.Add(5)
	r.CountSweep(true)
	r.CountSweep(false)
	r.CountSweep(false)
	s := r.Snapshot()
	if s.QueriesRun != 2 || s.RowsEmitted != 5 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.StreamingSweeps != 1 || s.BlockingSweeps != 2 {
		t.Fatalf("sweep counters %+v", s)
	}
	want := "queries=2 rows_emitted=5 sweeps{streaming=1 blocking=2}"
	if got := s.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
