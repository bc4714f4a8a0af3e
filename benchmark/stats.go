package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile of xs (0 < p <= 1).
// xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

// rank is the 1-based nearest-rank index of the p-quantile among n
// samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples strictly above the p-quantile's rank.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tailCandidates are the percentiles a latency tail may be reported at,
// highest first.
var tailCandidates = []float64{0.999, 0.99, 0.95, 0.90, 0.75}

// supportedTail returns the highest candidate percentile that leaves at
// least ten of n samples beyond it, or 0.5 when none does.
func supportedTail(n int) float64 {
	for _, p := range tailCandidates {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 0.5
}
