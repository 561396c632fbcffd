package main

import (
	"fmt"
	"io"
)

// verdict is -compare's judgement of one (workload, metric) pair.
type verdict string

const (
	better      verdict = "better"
	worse       verdict = "worse"
	withinBound verdict = "within-bound"
	unresolved  verdict = "unresolved" // the spread is wider than the bound
)

// spread is a metric's inter-quartile distance as a share of its median.
func spread(m metric) float64 {
	if m.N < 2 || m.Median == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / m.Median
}

// judge compares a new measurement of a metric with an old one. The
// ratio is new ÷ old. fail_ratio has an absolute bound of zero: any
// failure is worse.
func judge(def metricDef, old, new metric) (ratio float64, v verdict) {
	if def.name == "fail_ratio" {
		if new.Value > 0 {
			return 0, worse
		}
		return 0, withinBound
	}
	if old.Value == 0 {
		return 0, unresolved
	}
	ratio = new.Value / old.Value
	change := ratio - 1 // the share by which the metric got worse
	if def.better == "higher" {
		change = -change
	}
	switch {
	case spread(old) > def.bound || spread(new) > def.bound:
		return ratio, unresolved
	case change > def.bound:
		return ratio, worse
	case change < -def.bound:
		return ratio, better
	}
	return ratio, withinBound
}

// compare prints one row per (workload, end-to-end metric) and lists
// the per-layer metrics, which never gate. It reports whether any
// end-to-end metric got worse by more than its bound.
func compare(w io.Writer, old, new *report) (anyWorse bool) {
	if !old.Header.Comparable || !new.Header.Comparable {
		fmt.Fprintln(w, "warning: a report at a non-default scale is not comparable with a baseline")
	}
	fmt.Fprintf(w, "%-10s %-20s %12s %25s %12s %25s %8s  %s\n", "workload", "metric", "old", "[q1, q3]", "new", "[q1, q3]", "new/old", "verdict")
	for _, nw := range new.Workloads {
		ow := old.workload(nw.Name)
		if ow == nil {
			continue
		}
		for _, def := range endToEndDefs {
			o, okO := ow.EndToEnd[def.name]
			n, okN := nw.EndToEnd[def.name]
			if !okO || !okN {
				continue
			}
			ratio, v := judge(def, o, n)
			anyWorse = anyWorse || v == worse
			fmt.Fprintf(w, "%-10s %-20s %12.6g %25s %12.6g %25s %8.4f  %s (bound %g)\n", nw.Name, def.name,
				o.Value, quartiles(o), n.Value, quartiles(n), ratio, v, def.bound)
		}
		for _, def := range perLayerDefs {
			o, okO := ow.PerLayer[def.name]
			n, okN := nw.PerLayer[def.name]
			if okO && okN {
				fmt.Fprintf(w, "%-10s %-34s %12.6g -> %12.6g %s\n", nw.Name, def.name, o.Value, n.Value, def.unit)
			}
		}
	}
	return anyWorse
}

func quartiles(m metric) string {
	if m.N < 2 || m.Q3 == 0 {
		return "-"
	}
	return fmt.Sprintf("[%.5g, %.5g]", m.Q1, m.Q3)
}
