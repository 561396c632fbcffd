package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"snapk"
)

// sizes is one scale of the datasets. Only "full" is comparable with a
// baseline; "tiny" exists for tests and diagnosis.
type sizes struct {
	name           string
	employees      int     // table3's Employees half
	sf             float64 // table3's TPC-BiH half
	salRows        int     // fig5's sal table
	smallEmployees int     // small-rw
}

var scales = map[string]sizes{
	"full": {"full", 10000, 1.5, 500000, 200},
	"tiny": {"tiny", 100, 0.05, 2000, 100},
}

// twinOf is the scaled-down twin the snapshot-reducibility check runs
// on: the abstract model behind QueryAt joins by nested loops, which
// takes seconds per time point at full size.
func twinOf(sz sizes) sizes {
	return sizes{"twin", min(sz.employees, 500), min(sz.sf, 0.1), min(sz.salRows, 5000), sz.smallEmployees}
}

// opClass groups operations: the summed latency of a class per cycle
// is reported as <class>_cycle_s (write_cycle_ms for the writes).
type opClass int

const (
	classJoin opClass = iota
	classAgg
	classDiff
	classScan
	classWrite
	numClasses
)

func (c opClass) String() string { return [...]string{"join", "agg", "diff", "scan", "write"}[c] }

type opKind int

const (
	opQuery opKind = iota
	opInsert
	opUpdate
	opDelete
)

// op is one operation of a workload's cycle: a query, timed from its
// SQL text to the last row scanned, or one write call.
type op struct {
	kind  opKind
	id    string // the query ID, or insert, update, delete
	class opClass
	db    int    // index of the instance's database it runs on or writes
	sql   string // query text; the condition of an update or a delete
	// round numbers the passes over the query list within a cycle.
	// Before the first write of a cycle (round 0) the stored rows are
	// the generated ones, so those results are comparable with the
	// staged database and the golden file.
	round      int
	afterWrite bool // a query issued directly after a write to its database
	begin, end int64
	vals       []any // the row of an insert; the new value of an update
}

func classOf(id string) opClass {
	switch {
	case strings.HasPrefix(id, "join-"), id == "Q5", id == "Q7", id == "Q8", id == "Q9":
		return classJoin
	case strings.HasPrefix(id, "agg-"), id == "Q1", id == "Q6", id == "Q12", id == "Q14", id == "Q19":
		return classAgg
	case strings.HasPrefix(id, "diff"):
		return classDiff
	case id == "coalesce", id == "filter-project":
		return classScan
	}
	panic("spine: query " + id + " has no class")
}

func queryOps(db, round int, qs []namedQuery) []op {
	out := make([]op, len(qs))
	for i, q := range qs {
		out[i] = op{kind: opQuery, id: q.id, class: classOf(q.id), db: db, sql: q.sql, round: round}
	}
	return out
}

var fig5Queries = []namedQuery{
	{"coalesce", `SELECT emp_no, salary FROM sal`},
	{"filter-project", `SELECT emp_no FROM sal WHERE salary < 45000`},
	{"agg-group", `SELECT salary, count(*) AS c FROM sal GROUP BY salary`},
	{"agg-global", `SELECT count(*) AS c FROM sal`},
	{"diff", `SELECT emp_no, salary FROM sal EXCEPT ALL SELECT emp_no, salary FROM sal WHERE salary < 45000`},
}

// syntheticEmpNo is the first emp_no small-rw's inserted rows use; the
// generated employees stay far below it.
const syntheticEmpNo = 1000000

const (
	smallRWRounds  = 4
	smallRWInserts = 5
)

// smallRWSeed is the seed of small-rw's database r. Database 0 has the
// run's own seed; the others are far from any seed a neighbouring run
// uses.
func smallRWSeed(seed int64, r int) int64 { return seed + int64(r)*1000003 }

// smallRWOps builds small-rw's cycle over its four databases. Round r
// runs the ten Employee queries on database r, then inserts five
// synthetic salary rows into database r+1 and updates one of them, so
// the next round's first query reads a table that was just written; the
// last round writes database 0. Four deletes of the synthetic rows end
// the cycle, database 0's last, so the next cycle starts from the same
// stored multisets. Round r starts the query list at query r: the query
// that directly follows a write differs from round to round, and each of
// those IDs also runs three times per cycle not directly after a write.
//
// The rounds run on four databases because 200 employees are few: with
// one, a cycle's time moved by 8-13 % from seed to seed, which is as much
// as the host's noise; a cycle over four moves by half of that.
func smallRWOps(seed int64) []op {
	r := rand.New(rand.NewSource(seed))
	qs := employeeQueries()
	var ops, deletes []op
	for round := 0; round < smallRWRounds; round++ {
		rot := append(append([]namedQuery{}, qs[round:]...), qs[:round]...)
		qops := queryOps(round, round, rot)
		qops[0].afterWrite = true
		ops = append(ops, qops...)
		written := (round + 1) % smallRWRounds
		var emp, begin, end int64
		for i := 0; i < smallRWInserts; i++ {
			emp = syntheticEmpNo + int64(round*smallRWInserts+i)
			begin = int64(r.Intn(700))
			end = begin + 100 + int64(r.Intn(200))
			salary := int64(38000 + 1000*r.Intn(30))
			ops = append(ops, op{kind: opInsert, id: "insert", class: classWrite, db: written, begin: begin, end: end, vals: []any{emp, salary}})
		}
		ops = append(ops, op{kind: opUpdate, id: "update", class: classWrite, db: written, begin: begin, end: begin + 50,
			vals: []any{int64(90000)}, sql: fmt.Sprintf("emp_no = %d", emp)})
		deletes = append(deletes, op{kind: opDelete, id: "delete", class: classWrite, db: written, begin: 0, end: 1000,
			sql: fmt.Sprintf("emp_no >= %d", syntheticEmpNo)})
	}
	return append(ops, deletes...)
}

// workload is one set of inputs the benchmark runs. Names are fixed:
// later issues cite them.
type workload struct {
	name string
	why  string
	// data keys the golden digests: workloads over the same generated
	// data share them.
	data    string
	workers int // snapk.DB.SetParallelism
	gen     func(sz sizes, seed int64) []stagedDB
	ops     func(seed int64) []op
	micro   microSpec // runs on the last generated database
}

var workloads = []*workload{
	{
		name:    "table3",
		why:     "the paper's Table 3 mix on unsorted tables: hash-join builds and blocking sweeps, so engine operators do nearly all the work",
		data:    "table3",
		workers: 1,
		gen: func(sz sizes, seed int64) []stagedDB {
			return []stagedDB{genEmployees(sz.employees, seed), genTPCBiH(sz.sf, seed)}
		},
		ops: func(int64) []op {
			return append(queryOps(0, 0, employeeQueries()), queryOps(1, 0, tpchQueries())...)
		},
		micro: microSpec{"lineitem", "l_shipmode", []string{"l_returnflag", "l_linestatus"}, "l_shipmode = 'MAIL' OR l_shipmode = 'SHIP'"},
	},
	fig5("fig5-seq", 1, "Fig 5's begin-sorted 500k-row input, far beyond cache: streaming sweeps, the batch pipeline and the Rows cursor on large results"),
	fig5("fig5-par2", 2, "fig5-seq with two workers: the only workload where morsel scans, ordered exchanges and merges run, so it prices exchange transport"),
	{
		name:    "small-rw",
		why:     "four cache-resident databases with writes beside reads: per-query fixed cost is a visible share, and writes drop the table metadata reads rely on",
		data:    "small-rw",
		workers: 1,
		gen: func(sz sizes, seed int64) []stagedDB {
			dbs := make([]stagedDB, smallRWRounds)
			for r := range dbs {
				dbs[r] = genEmployees(sz.smallEmployees, smallRWSeed(seed, r))
			}
			return dbs
		},
		ops:   smallRWOps,
		micro: microSpec{"salaries", "salary", []string{"emp_no", "salary"}, "salary > 70000"},
	},
}

// fig5 is Fig 5's table under the five hot pipelines, with the given
// number of workers.
func fig5(name string, workers int, why string) *workload {
	return &workload{
		name: name, why: why, data: "fig5", workers: workers,
		gen:   func(sz sizes, seed int64) []stagedDB { return []stagedDB{genFig5(sz.salRows, seed)} },
		ops:   func(int64) []op { return queryOps(0, 0, fig5Queries) },
		micro: microSpec{"sal", "salary", []string{"emp_no", "salary"}, "salary < 45000"},
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// instance is a workload set up from a seed: the public databases, for
// a traced run their staged twins, and the cycle's operation list.
type instance struct {
	w      *workload
	staged []stagedDB
	pub    []*snapk.DB
	// salaries holds, per database, the table small-rw writes (nil where
	// a database has none) and baseRows its row count at the start of a
	// cycle.
	salaries []*snapk.Table
	baseRows []int
	ops      []op
	loadRows int
	insert   time.Duration // time inside the Insert loops of the load
}

// setup generates w's data from seed and loads it through the public
// Insert: its wall time is the benchmark's setup_s. With staged set it
// then loads the same rows into the engine databases the staged path
// replays on.
func (w *workload) setup(sz sizes, seed int64, staged bool) (*instance, error) {
	in := &instance{w: w, ops: w.ops(seed)}
	for _, gen := range w.gen(sz, seed) {
		db, tables, rows, insert, err := loadPublic(gen)
		if err != nil {
			return nil, err
		}
		db.SetParallelism(w.workers)
		in.pub = append(in.pub, db)
		in.loadRows += rows
		in.insert += insert
		t, base := tables["salaries"], 0
		if t != nil {
			base = t.Rows()
		}
		in.salaries = append(in.salaries, t)
		in.baseRows = append(in.baseRows, base)
		if staged {
			s, err := reload(gen)
			if err != nil {
				return nil, err
			}
			in.staged = append(in.staged, s)
		}
	}
	return in, nil
}

// opResult is what one executed operation reports.
type opResult struct {
	lat    time.Duration // SQL text to last row scanned, or the write call
	ttfr   time.Duration // SQL text to the first Next that returned, true or not
	digest digest
	err    error
}

// exec runs one operation through the public API, the way a user of
// the middleware would. A non-nil sink receives the encoded rows of a
// query for the unique-encoding check.
func (in *instance) exec(ctx context.Context, o *op, sink *[]encRow) (res opResult) {
	t0 := time.Now()
	defer func() { res.lat = time.Since(t0) }()
	switch o.kind {
	case opInsert:
		res.err = in.salaries[o.db].Insert(o.begin, o.end, o.vals...)
	case opUpdate:
		_, res.err = in.salaries[o.db].Update(o.begin, o.end, "salary", o.vals[0], o.sql)
	case opDelete:
		_, res.err = in.salaries[o.db].Delete(o.begin, o.end, o.sql)
	case opQuery:
		rows, err := in.pub[o.db].QueryRows(ctx, o.sql)
		if err != nil {
			return opResult{err: err}
		}
		defer rows.Close()
		for rows.Next() {
			if res.digest.Rows == 0 {
				res.ttfr = time.Since(t0)
			}
			group := hashValues(rows.Values())
			begin, end := rows.Period()
			res.digest.add(group, begin, end)
			if sink != nil {
				*sink = append(*sink, encRow{group, begin, end})
			}
		}
		if res.digest.Rows == 0 {
			res.ttfr = time.Since(t0)
		}
		res.err = rows.Err()
	}
	return res
}
