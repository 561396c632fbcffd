package parallel

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"snapk/internal/engine"
	"snapk/internal/interval"
	"snapk/internal/tuple"
)

// An ordered keyed exchange over a stream without its scan source is
// an executor bug: scanPartition refuses it rather than falling back to
// an exchange that would partition rows it cannot keep in order.
func TestScanPartitionWithoutScanSourcesIsAnInternalError(t *testing.T) {
	db := engine.NewDB(interval.NewDomain(0, 10))
	tbl := db.CreateTable("t", tuple.NewSchema("k"))
	e := &executor{ctx: context.Background(), db: db, workers: 2, morsel: 4}
	s := e.scanStream(engine.ScanP{Name: "t"}, tbl, tbl, nil)
	s.scan = nil
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "scan source") {
			t.Fatalf("want an internal error naming the scan source, got %v", r)
		}
	}()
	e.exchange(s, 2, []int{0}, true, nil)
}
