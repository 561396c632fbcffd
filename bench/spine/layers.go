package main

// layers.go is the benchmark's single adapter to snapk's internal
// packages: every call into dataset, workload, sqlfe, rewrite, parallel,
// engine, algebra and tuple is in this file, so a later change to one of
// their signatures is a mechanical edit here. The rest of the benchmark
// drives the public snapk API only.

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"
	"unsafe"

	"snapk"
	"snapk/internal/algebra"
	"snapk/internal/dataset"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
	"snapk/internal/rewrite"
	"snapk/internal/sqlfe"
	"snapk/internal/tuple"
	paper "snapk/internal/workload"
)

// stagedDB is an engine database with the names of its tables: the
// generator's output, which the public database is loaded from, or the
// copy of it the staged path replays queries on.
type stagedDB struct {
	db     *engine.DB
	tables []string
}

var (
	employeeTables = []string{"departments", "employees", "titles", "salaries", "dept_emp", "dept_manager"}
	tpcTables      = []string{"region", "nation", "customer", "supplier", "part", "partsupp", "orders", "lineitem"}
)

func genEmployees(n int, seed int64) stagedDB {
	return stagedDB{dataset.Employees(dataset.EmployeesConfig{NumEmployees: n, NumDepartments: 9, Seed: seed}), employeeTables}
}

func genTPCBiH(sf float64, seed int64) stagedDB {
	return stagedDB{dataset.TPCBiH(dataset.TPCBiHConfig{ScaleFactor: sf, Seed: seed}), tpcTables}
}

// genFig5 generates Fig 5's input in (begin, end) order, so that the
// table loaded from it keeps its cached begin-sortedness.
func genFig5(n int, seed int64) stagedDB {
	db := dataset.CoalesceInput(n, seed)
	t, err := db.Table("sal")
	if err != nil {
		panic(err) // CoalesceInput always creates sal
	}
	t.SortByEndpoints()
	return stagedDB{db, []string{"sal"}}
}

type namedQuery struct{ id, sql string }

func paperQueries(qs []paper.Query) []namedQuery {
	out := make([]namedQuery, len(qs))
	for i, q := range qs {
		out[i] = namedQuery{q.ID, q.SQL}
	}
	return out
}

func employeeQueries() []namedQuery { return paperQueries(paper.Employees()) }
func tpchQueries() []namedQuery     { return paperQueries(paper.TPCH()) }

// loadPublic creates a public database over src's time domain and loads
// every table row by row through snapk.Table.Insert, in stored order. It
// returns the table handles, the rows loaded and the time spent inside
// Insert calls' loop.
func loadPublic(src stagedDB) (db *snapk.DB, tables map[string]*snapk.Table, rows int, insert time.Duration, err error) {
	dom := src.db.Domain()
	db = snapk.New(dom.Min, dom.Max)
	tables = make(map[string]*snapk.Table)
	for _, name := range src.tables {
		st, err := src.db.Table(name)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		pt, err := db.CreateTable(name, st.DataSchema().Cols...)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		tables[name] = pt
		n := st.DataArity()
		vals := make([]any, n)
		t0 := time.Now()
		for _, row := range st.Rows {
			for i := 0; i < n; i++ {
				vals[i] = goValue(row[i])
			}
			iv := st.Interval(row)
			if err := pt.Insert(iv.Begin, iv.End, vals...); err != nil {
				return nil, nil, 0, 0, fmt.Errorf("load %s: %w", name, err)
			}
		}
		insert += time.Since(t0)
		rows += len(st.Rows)
	}
	return db, tables, rows, insert, nil
}

// reload copies src table by table and row by row into a fresh engine
// database, the way loadPublic fills the public one, so that the staged
// path scans rows laid out in memory like the public path's: in load
// order, not in the generator's allocation order.
func reload(src stagedDB) (stagedDB, error) {
	db := engine.NewDB(src.db.Domain())
	for _, name := range src.tables {
		st, err := src.db.Table(name)
		if err != nil {
			return stagedDB{}, err
		}
		t := db.CreateTable(name, st.DataSchema())
		n := st.DataArity()
		for _, row := range st.Rows {
			t.Append(row[:n], st.Interval(row), 1)
		}
	}
	return stagedDB{db, src.tables}, nil
}

func goValue(v tuple.Value) any {
	switch v.Kind() {
	case tuple.KindInt:
		return v.AsInt()
	case tuple.KindFloat:
		return v.AsFloat()
	case tuple.KindString:
		return v.AsString()
	case tuple.KindBool:
		return v.AsBool()
	}
	return nil
}

// hashTuple is hashValues over engine values, without boxing them: the
// staged path must produce the digests the public path produces.
func hashTuple(data tuple.Tuple) uint64 {
	h := uint64(hashSeed)
	for _, v := range data {
		switch v.Kind() {
		case tuple.KindInt:
			h = mix(mix(h, tagInt), uint64(v.AsInt()))
		case tuple.KindFloat:
			h = mix(mix(h, tagFloat), math.Float64bits(v.AsFloat()))
		case tuple.KindString:
			h = mix(mix(h, tagString), hashString(v.AsString()))
		default:
			h = hashAny(h, goValue(v))
		}
	}
	return h
}

// publicOptions are the rewrite options snapk.DB.QueryRows passes.
func publicOptions(workers int) rewrite.Options {
	return rewrite.Options{Mode: rewrite.ModeOptimized, Parallelism: workers}
}

// drain scans it to end of stream the way the public cursor does, a
// batch at a time, folding rows into the result. first is called after
// the first batch (or end of stream) arrived.
func drain(it engine.RowIter, res *opResult, first func()) {
	bit := engine.AsBatchIter(it, 0)
	b := engine.NewRowBatch(engine.DefaultBatchSize)
	ok := bit.NextBatch(b)
	first()
	for ; ok; ok = bit.NextBatch(b) {
		for _, row := range b.Rows {
			n := len(row) - 2
			res.digest.add(hashTuple(row[:n]), row[n].AsInt(), row[n+1].AsInt())
		}
	}
	res.err = engine.IterErr(it)
}

// stagedQuery runs one query through the layers one call at a time,
// with a span around each: parse, translate, plan, the parallel.Exec
// call (which builds the operator tree, draining hash-join build sides,
// sort enforcers and blocking sweeps), the first batch, the drain and
// the close.
func stagedQuery(ctx context.Context, tr *tracer, s stagedDB, o *op, workers int) (res opResult) {
	root := tr.begin("query", -1, o.id)
	defer tr.end(root)
	t0 := time.Now()
	defer func() { res.lat = time.Since(t0) }()

	sp := tr.begin("sqlfe.parse", root, o.id)
	stmt, err := sqlfe.Parse(o.sql)
	tr.end(sp)
	if err != nil {
		return opResult{err: err}
	}
	sp = tr.begin("sqlfe.translate", root, o.id)
	q, err := sqlfe.Translate(stmt, s.db)
	tr.end(sp)
	if err != nil {
		return opResult{err: err}
	}
	sp = tr.begin("rewrite.plan", root, o.id)
	plan, dec, err := rewrite.PlanQuery(q, s.db, publicOptions(workers))
	tr.end(sp)
	if err != nil {
		return opResult{err: err}
	}
	if dec.Workers > 0 {
		workers = min(workers, dec.Workers)
	}
	sp = tr.begin("parallel.exec", root, o.id)
	it, err := parallel.Exec(ctx, s.db, plan, parallel.Options{Workers: max(workers, 1), Gov: engine.NewGovernor(engine.Limits{})})
	tr.end(sp)
	if err != nil {
		return opResult{err: err}
	}
	sp = tr.begin("engine.first_batch", root, o.id)
	drain(it, &res, func() {
		tr.end(sp)
		res.ttfr = time.Since(t0)
		sp = tr.begin("engine.drain", root, o.id)
	})
	tr.end(sp)
	sp = tr.begin("close", root, o.id)
	it.Close()
	tr.end(sp)
	return res
}

// planShape counts what the planner produced for one query: physical
// operators, sweep operators, and the sweeps planned in streaming form.
type planShape struct{ ops, sweeps, streaming int }

func explainShape(s stagedDB, o *op, workers int) (planShape, error) {
	q, err := sqlfe.ParseAndTranslate(o.sql, s.db)
	if err != nil {
		return planShape{}, err
	}
	plan, _, err := rewrite.PlanQuery(q, s.db, publicOptions(workers))
	if err != nil {
		return planShape{}, err
	}
	var sh planShape
	var walk func(n *engine.ExplainNode)
	walk = func(n *engine.ExplainNode) {
		sh.ops++
		if n.Mode != "" {
			sh.sweeps++
			if n.Mode != "blocking" {
				sh.streaming++
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(s.db.ExplainPlan(plan))
	return sh, nil
}

// opFold is one cycle's collector statistics folded by operator label.
type opFold struct {
	selfNs          map[string]int64 // by operator class, see labelClass
	exchangeWaitNs  int64
	exchangeBatches int64
	partSkew        float64 // worst max÷mean of any exchange's partition rows
	rowsScanned     int64
	rowsOut         int64
	maxState        int64
}

// labelClass maps a collector label to the engine.*_self_s metric it
// is folded into; exchanges and the result node belong to none.
func labelClass(label string) string {
	switch label {
	case "Scan":
		return "scan"
	case "Filter", "Project", "Window", "Union":
		return "filter_project"
	case "Join":
		return "join"
	case "Agg":
		return "agg"
	case "Diff":
		return "diff"
	case "Coalesce":
		return "coalesce"
	case "Sort":
		return "sort"
	}
	return ""
}

// inclusive is an operator's time including its inputs: its own
// counter plus those of its per-worker fragments, which the parallel
// executor hangs beneath it.
func inclusive(st *engine.OpStats) (ns, rows int64) {
	ns, rows = int64(st.Time()), st.Rows()
	for _, c := range st.Children() {
		if c.Label == "fragment" {
			ns += int64(c.Time())
			rows += c.Rows()
		}
	}
	return ns, rows
}

// fold adds st's subtree to f. An operator's self time is its inclusive
// time minus that of its input operators, floored at zero. With more
// than one worker the fragments of an operator run concurrently, so
// self times add up over workers, and time a fragment spends blocked on
// an exchange stays with the consumer.
func (f *opFold) fold(st *engine.OpStats) {
	ns, rows := inclusive(st)
	var inputs int64
	for _, c := range st.Children() {
		if c.Label == "fragment" {
			if v := c.MaxState(); v > f.maxState {
				f.maxState = v
			}
			continue
		}
		if !strings.HasPrefix(c.Label, "Exchange:") {
			cns, _ := inclusive(c)
			inputs += cns
		}
		f.fold(c)
	}
	if v := st.MaxState(); v > f.maxState {
		f.maxState = v
	}
	if strings.HasPrefix(st.Label, "Exchange:") {
		f.exchangeWaitNs += int64(st.Wait())
		f.exchangeBatches += st.Batches()
		if parts := st.PartRows(); len(parts) > 0 {
			var sum, peak int64
			for _, p := range parts {
				sum += p
				peak = max(peak, p)
			}
			if sum > 0 {
				f.partSkew = max(f.partSkew, float64(peak)*float64(len(parts))/float64(sum))
			}
		}
		return
	}
	if class := labelClass(st.Label); class != "" {
		f.selfNs[class] += max(ns-inputs, 0)
		if class == "scan" {
			f.rowsScanned += rows
		}
	}
}

// collectedQuery runs one query through rewrite.Stream with a collector
// attached and folds the executed operator tree into f.
func collectedQuery(ctx context.Context, s stagedDB, o *op, workers int, f *opFold) (res opResult) {
	t0 := time.Now()
	defer func() { res.lat = time.Since(t0) }()
	q, err := sqlfe.ParseAndTranslate(o.sql, s.db)
	if err != nil {
		return opResult{err: err}
	}
	opt := publicOptions(workers)
	opt.Collect = engine.NewCollector()
	it, err := rewrite.Stream(ctx, s.db, q, opt)
	if err != nil {
		return opResult{err: err}
	}
	drain(it, &res, func() { res.ttfr = time.Since(t0) })
	it.Close()
	f.fold(opt.Collect.Root)
	f.rowsOut += int64(res.digest.Rows)
	return res
}

// micro times the primitives below an operator over a workload's own
// stored rows: tuple.Compare on column cmpCol, Tuple.AppendKey on
// keyCols, and a compiled predicate. Each is called calls times.
type microSpec struct {
	table   string
	cmpCol  string
	keyCols []string
	pred    string
}

type microResult struct{ compareNs, appendKeyNs, evalNs float64 }

const valueBytes = int(unsafe.Sizeof(tuple.Value{}))

var microSink int // keeps the timed calls from being optimized away

func micro(s stagedDB, spec microSpec, calls int) (microResult, error) {
	t, err := s.db.Table(spec.table)
	if err != nil {
		return microResult{}, err
	}
	rows := t.Rows
	if len(rows) < 2 {
		return microResult{}, fmt.Errorf("micro: table %s has fewer than two rows", spec.table)
	}
	schema := t.DataSchema()
	col := schema.MustIndex(spec.cmpCol)
	idx := schema.Indexes(spec.keyCols...)
	q, err := sqlfe.ParseAndTranslate(fmt.Sprintf("SELECT * FROM %s WHERE %s", spec.table, spec.pred), s.db)
	if err != nil {
		return microResult{}, err
	}
	sel, ok := q.(algebra.Select)
	if !ok {
		return microResult{}, fmt.Errorf("micro: %q did not parse to a selection", spec.pred)
	}
	pred, err := algebra.Compile(sel.Pred, schema)
	if err != nil {
		return microResult{}, err
	}
	n := t.DataArity()
	next := func(j int) int {
		if j+1 == len(rows) {
			return 0
		}
		return j + 1
	}
	perCall := func(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / float64(calls) }
	var res microResult

	t0 := time.Now()
	for i, j := 0, 0; i < calls; i++ {
		k := next(j)
		microSink += tuple.Compare(rows[j][col], rows[k][col])
		j = k
	}
	res.compareNs = perCall(t0)

	buf := make([]byte, 0, 64)
	t0 = time.Now()
	for i, j := 0, 0; i < calls; i, j = i+1, next(j) {
		buf = rows[j].AppendKey(buf[:0], idx)
		microSink += len(buf)
	}
	res.appendKeyNs = perCall(t0)

	t0 = time.Now()
	for i, j := 0, 0; i < calls; i, j = i+1, next(j) {
		if algebra.Truthy(pred(rows[j][:n])) {
			microSink++
		}
	}
	res.evalNs = perCall(t0)
	return res, nil
}
