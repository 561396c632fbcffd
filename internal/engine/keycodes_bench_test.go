package engine_test

import (
	"sync"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/dataset"
	"snapk/internal/engine"
)

var (
	fig5Once sync.Once
	fig5Sal  *engine.Table
)

// fig5Table returns Fig 5's input as the spine's fig5 workloads build it:
// 500 k rows of sal(emp_no, salary), begin-sorted.
func fig5Table(b *testing.B) *engine.Table {
	fig5Once.Do(func() {
		t, err := dataset.CoalesceInput(500000, 1).Table("sal")
		if err != nil {
			b.Fatal(err)
		}
		t.SortByEndpoints()
		fig5Sal = t
	})
	return fig5Sal
}

// BenchmarkCodedSweeps prices the two group lookups of the streaming
// count sweeps over Fig 5's table: the coalesce of sal, and its
// difference with its rows of salary < 45000, both keyed by (emp_no,
// salary), as the spine's fig5 coalesce and diff queries run them. hash
// finds a row's group by hashing its key; coded by the table's key codes,
// warm with the codes cached and cold as the first query after a write,
// which builds them. Each op drains the sweep by runs, as the cursor
// does.
func BenchmarkCodedSweeps(b *testing.B) {
	tbl := fig5Table(b)
	key := []int{0, 1}
	scan := func(coded bool) (engine.RowIter, int) {
		if coded {
			return engine.NewCodedTableIter(tbl, key)
		}
		return engine.NewTableIter(tbl), 0
	}
	sweeps := map[string]func(coded bool) engine.RowIter{
		"coalesce": func(coded bool) engine.RowIter {
			in, codes := scan(coded)
			return engine.NewStreamCountIter(tbl.Schema, in, key, nil, nil, codes)
		},
		"diff": func(coded bool) engine.RowIter {
			l, codes := scan(coded)
			r, _ := scan(coded)
			r, err := engine.NewFilterIter(r, tbl.Schema, nil, algebra.Lt(algebra.Col("salary"), algebra.IntC(45000)))
			if err != nil {
				b.Fatal(err)
			}
			return engine.NewStreamCountIter(tbl.Schema, l, key, r, key, codes)
		},
	}
	for _, op := range []string{"coalesce", "diff"} {
		for _, path := range []string{"hash", "coded-warm", "coded-cold"} {
			b.Run(op+"/"+path, func(b *testing.B) {
				if path == "coded-warm" {
					tbl.KeyCodes(key)
					b.ResetTimer()
				}
				var rows int64
				for range b.N {
					if path == "coded-cold" {
						tbl.InvalidateMeta() // what a write drops
					}
					it := sweeps[op](path != "hash")
					bt, mult := engine.NewRowBatch(engine.DefaultBatchSize), []int64(nil)
					for engine.NextRuns(it, bt, &mult) {
						rows += engine.RunRows(bt, &mult)
					}
					if err := it.Err(); err != nil {
						b.Fatal(err)
					}
					it.Close()
				}
				b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
			})
		}
	}
}
