package main

import (
	"math"
	"slices"
	"sort"
)

// tailLevels are the percentiles the harness may report as a tail, from
// the highest down. A level is reportable only when the sample has at
// least minBeyond observations above it.
var tailLevels = []float64{0.9999, 0.999, 0.99, 0.9, 0.75, 0.5}

// minBeyond is the number of samples that must lie beyond a percentile
// before the harness reports it.
const minBeyond = 10

// highestPercentile returns the highest level in tailLevels that a
// sample of n observations supports: at least minBeyond of them lie
// above it. It returns 0 when even the median is unsupported.
func highestPercentile(n int) float64 {
	for _, q := range tailLevels {
		if float64(n)*(1-q) >= minBeyond-1e-9 {
			return q
		}
	}
	return 0
}

// quantileSorted returns the q-quantile of sorted (nearest rank). It
// returns NaN for an empty sample.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(q, len(sorted))]
}

// quantile sorts a copy of xs and returns its q-quantile.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

// median is quantile(xs, 0.5), averaging the middle pair of an even
// sample so that two-run medians do not favour either run.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latSummary summarises a latency sample, in microseconds: its median,
// its p99, and the highest percentile it supports (topQ, 0 for none)
// with that percentile's value.
type latSummary struct {
	n             int
	p50, p99, top float64
	topQ          float64
}

// summarizeNs sorts ns (nanoseconds) in place and summarises it; it
// allocates nothing, so the serve phases leave no garbage behind.
func summarizeNs(ns []uint32) latSummary {
	s := latSummary{n: len(ns), p50: math.NaN(), p99: math.NaN(), top: math.NaN()}
	if len(ns) == 0 {
		return s
	}
	slices.Sort(ns)
	at := func(q float64) float64 { return float64(ns[rank(q, len(ns))]) / 1e3 }
	s.p50, s.p99 = at(0.5), at(0.99)
	if s.topQ = highestPercentile(len(ns)); s.topQ > 0 {
		s.top = at(s.topQ)
	}
	return s
}

// rank is the nearest-rank index of the q-quantile in a sorted sample
// of n.
func rank(q float64, n int) int {
	return min(max(int(math.Ceil(q*float64(n)))-1, 0), n-1)
}
