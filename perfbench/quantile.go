package main

import (
	"math"
	"sort"

	"herald/internal/stats"
)

// minBeyond is how many samples must lie above a tail percentile for it
// to be reported.
const minBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, lowest
// first.
var tailLadder = []float64{0.50, 0.90, 0.95, 0.99, 0.999}

// rank is the 1-based nearest-rank position of the p-quantile among n
// sorted samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailQuantile returns the highest ladder percentile that still has at
// least minBeyond of n samples beyond it, and that count. When not even
// the median qualifies, it returns the median.
func tailQuantile(n int) (float64, int) {
	q := tailLadder[0]
	for _, p := range tailLadder {
		if n-rank(p, n) >= minBeyond {
			q = p
		}
	}
	return q, n - rank(q, n)
}

// percentile returns the nearest-rank p-quantile of xs (which it sorts).
// It returns NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(p, len(xs))-1]
}

// mean is stats.Mean with 0 for no samples, so a layer a workload does
// not exercise reports 0 rather than a NaN JSON cannot carry.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Mean(xs)
}
