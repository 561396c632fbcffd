package main

import (
	"path/filepath"
	"strings"
	"time"
)

// microCalls is how often each primitive below an operator is timed.
const microCalls = 1 << 20

// runPerLayer is a traced run. After set-up and warm-up it splits the
// run's seconds over four phases of whole cycles:
//
//	A  the public path, tracing off — the reference the others are
//	   discounted against, and the source of the end-to-end metrics only
//	   some workloads have
//	B  the public path with a span around every operation
//	C  the staged path: one span per layer call, on the generator's
//	   row-identical database
//	D  rewrite.Stream with a collector attached, folded by operator
//
// With more than one worker a sequential stretch of the public path is
// added, for parallel.speedup.
func runPerLayer(cfg runConfig) (*workloadReport, error) {
	in, err := cfg.w.setup(cfg.sz, cfg.seed, true)
	if err != nil {
		return nil, err
	}
	r := newRunner(in)
	r.warmUp()
	share := time.Duration(cfg.seconds) * time.Second / 4
	workers := in.w.workers

	// Phase B records a span per operation, phase C eight per query. The
	// span buffer is allocated before phase A, so that all four phases
	// run with the same live heap.
	tr := newTracer(9 * len(in.ops) * (int(1.5*share.Seconds()/r.warm) + 8))
	a := r.phase(share, r.public(nil, nil))
	layer := map[string]float64{}
	if workers > 1 {
		for _, db := range in.pub {
			db.SetParallelism(1)
		}
		seq := r.phase(share/2, r.public(nil, nil))
		for _, db := range in.pub {
			db.SetParallelism(workers)
		}
		layer["parallel.speedup"] = bestWall(seq) / bestWall(a)
	}

	b := r.phase(share, r.public(tr, nil))
	c := r.phase(share, r.replay("staged", func(_ int, o *op) opResult {
		return stagedQuery(r.ctx, tr, in.staged[o.db], o, workers)
	}))
	var folds []opFold // one per cycle
	prev := len(in.ops)
	d := r.phase(share, r.replay("collector", func(i int, o *op) opResult {
		if i < prev { // the operation index wrapped: a new cycle
			folds = append(folds, opFold{selfNs: map[string]int64{}})
		}
		prev = i
		return collectedQuery(r.ctx, in.staged[o.db], o, workers, &folds[len(folds)-1])
	}))

	rep := newWorkloadReport(cfg.w, a)
	e2e := endToEnd(a, nil)
	for _, def := range endToEndDefs {
		if !def.everywhere && def.name != "fail_ratio" {
			layer[def.name] = e2e[def.name].Value
		}
	}

	// Front end and planner: medians per query from the staged spans;
	// plan shape from EXPLAIN, summed over one cycle.
	layer["sqlfe.parse_us"] = median(tr.durations("sqlfe.parse")) / 1e3
	layer["sqlfe.translate_us"] = median(tr.durations("sqlfe.translate")) / 1e3
	layer["rewrite.plan_us"] = median(tr.durations("rewrite.plan")) / 1e3
	var shape planShape
	for i := range in.ops {
		if o := &in.ops[i]; o.kind == opQuery {
			sh, err := explainShape(in.staged[o.db], o, workers)
			if err != nil {
				return nil, err
			}
			shape.ops += sh.ops
			shape.sweeps += sh.sweeps
			shape.streaming += sh.streaming
		}
	}
	layer["rewrite.plan_ops"] = float64(shape.ops)
	if shape.sweeps > 0 {
		layer["rewrite.streaming_sweep_ratio"] = float64(shape.streaming) / float64(shape.sweeps)
	}

	// Executor: per staged cycle, the time inside the parallel.Exec
	// call, up to the first batch, and draining.
	cycles := float64(len(c.cycles))
	perCycle := func(name string) float64 {
		var sum float64
		for _, ns := range tr.durations(name) {
			sum += ns
		}
		return sum / cycles / 1e9
	}
	layer["parallel.build_s"] = perCycle("parallel.exec")
	layer["engine.first_batch_s"] = perCycle("engine.first_batch")
	layer["engine.drain_s"] = perCycle("engine.drain")

	// Operators and exchanges: the collector's counters per cycle.
	foldSeries := func(f func(*opFold) float64) []float64 {
		out := make([]float64, len(folds))
		for i := range folds {
			out[i] = f(&folds[i])
		}
		return out
	}
	for _, class := range []string{"scan", "filter_project", "join", "agg", "diff", "coalesce", "sort"} {
		layer["engine."+class+"_self_s"] = median(foldSeries(func(f *opFold) float64 { return float64(f.selfNs[class]) / 1e9 }))
	}
	layer["parallel.exchange_wait_s"] = median(foldSeries(func(f *opFold) float64 { return float64(f.exchangeWaitNs) / 1e9 }))
	layer["parallel.exchange_batches"] = median(foldSeries(func(f *opFold) float64 { return float64(f.exchangeBatches) }))
	layer["parallel.part_skew"] = median(foldSeries(func(f *opFold) float64 { return f.partSkew }))
	layer["engine.rows_scanned_per_row_out"] = median(foldSeries(func(f *opFold) float64 { return float64(f.rowsScanned) / float64(f.rowsOut) }))
	layer["engine.max_state_rows"] = median(foldSeries(func(f *opFold) float64 { return float64(f.maxState) }))

	// Ratios between the paths, on the summed query latency of each
	// phase's best cycle: the phases run one after the other, and the
	// host's noise moves their medians apart by more than these ratios.
	queries := func(s *samples) float64 {
		return best(s.series(func(c *cycleStats) float64 { return c.querySum }), "lower")
	}
	layer["engine.collector_overhead_rel"] = queries(d)/queries(c) - 1
	layer["snapk.cursor_overhead_rel"] = queries(a)/queries(c) - 1
	layer["bench.trace_overhead_rel"] = bestWall(b)/bestWall(a) - 1

	// Table layer: the load, and the write spans of the traced public path.
	layer["table.insert_ns_per_row"] = float64(in.insert.Nanoseconds()) / float64(in.loadRows)
	for _, kind := range []string{"insert", "update", "delete"} {
		layer["table."+kind+"_us"] = median(tr.durations("table."+kind)) / 1e3
	}
	var ratios []float64 // none on a read-only workload
	elsewhere := b.byID(b.lat, func(o *op) bool { return o.kind == opQuery && !o.afterWrite })
	for id, after := range b.byID(b.lat, func(o *op) bool { return o.afterWrite }) {
		ratios = append(ratios, median(after)/median(elsewhere[id]))
	}
	layer["table.read_after_write_ratio"] = geomean(ratios)

	// Below the operators.
	m, err := micro(in.staged[len(in.staged)-1], cfg.w.micro, microCalls)
	if err != nil {
		return nil, err
	}
	layer["tuple.compare_ns"] = m.compareNs
	layer["tuple.appendkey_ns_per_row"] = m.appendKeyNs
	layer["algebra.eval_ns_per_row"] = m.evalNs
	layer["tuple.value_bytes"] = float64(valueBytes)

	// Runtime: garbage collections of the untraced public cycles.
	layer["runtime.gc_cycles_per_cycle"] = mean(a.series(func(c *cycleStats) float64 { return float64(c.gcs) }))
	layer["runtime.gc_pause_ms_per_cycle"] = mean(a.series(func(c *cycleStats) float64 { return float64(c.gcPause) / 1e6 }))

	rep.PerLayer = map[string]metric{}
	for name, v := range layer {
		rep.PerLayer[name] = metric{Value: v, Unit: defByName(name).unit}
	}
	rep.LayerShare = layerShare(tr)

	cfg.updateGolden = false // only the run that checks the two theorems writes digests
	if err := r.checkGolden(cfg, false); err != nil {
		return nil, err
	}
	rep.Attempted, rep.Failed = r.chk.attempted, r.chk.failed

	return rep, tr.write(filepath.Join(cfg.out, "trace-"+cfg.w.name+".json"))
}

func wallOf(c *cycleStats) float64 { return c.wall }

func bestWall(s *samples) float64 { return best(s.series(wallOf), "lower") }

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// layerShare is each layer's self time as a share of the staged path's
// total: the spans named after a layer call, and "bench" for what the
// query spans spend outside any layer call.
func layerShare(tr *tracer) map[string]float64 {
	self := selfTimes(tr.spans)
	byName := map[string]float64{}
	var total float64
	for i, s := range tr.spans {
		name := s.Name
		switch {
		case strings.HasPrefix(name, "snapk."), strings.HasPrefix(name, "table."):
			continue // the traced public path, not the staged one
		case name == "query":
			name = "bench"
		}
		byName[name] += float64(self[i])
		total += float64(self[i])
	}
	for name := range byName {
		byName[name] /= total
	}
	return byName
}
