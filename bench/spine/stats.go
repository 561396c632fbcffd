package main

import (
	"math"
	"slices"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks; 0 for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// dist is a timing reported the way the choosing-metrics guide asks:
// median, quartiles and the sample count.
type dist struct {
	Q1, Median, Q3 float64
	N              int
}

func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75), N: len(s)}
}

func median(xs []float64) float64 { return summarize(xs).Median }

// best is the best of xs: the lowest, or with better == "higher" the
// highest.
func best(xs []float64, better string) float64 {
	if better == "higher" {
		return slices.Max(xs)
	}
	return slices.Min(xs)
}

// geomean is the geometric mean of the positive values in xs; 0 when
// there are none, so a workload without queries of a class reports 0.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// percentileLadder lists the tail percentiles a report may quote.
var percentileLadder = []float64{50, 75, 90, 95, 99, 99.9, 99.99}

// beyond is the number of samples, out of n, that lie beyond the p-th
// percentile; rounded, because 100-99.99 is not exactly 0.01.
func beyond(n int, p float64) float64 {
	return math.Round(float64(n)*(100-p)) / 100
}

// tailPercentile returns the highest percentile of the ladder that has
// at least ten samples beyond it, and its value; (0, 0) when even the
// median has fewer.
func tailPercentile(xs []float64) (p, v float64) {
	for _, c := range percentileLadder {
		if beyond(len(xs), c) >= 10 {
			p = c
		}
	}
	return p, percentile(xs, p)
}

// percentile returns the p-th percentile of xs when at least ten
// samples lie beyond it, else 0: a tail the sample cannot support is
// not reported.
func percentile(xs []float64, p float64) float64 {
	if beyond(len(xs), p) < 10 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, p/100)
}
