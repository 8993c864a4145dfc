package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule: the smallest sample with at least p% of the
// samples at or below it. xs is not modified; an empty xs gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the mean of the two middle samples for an even count, so it
// agrees with Python's statistics.median on the same values.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile is the highest percentile of 99, 95, 90 and 75 that
// leaves at least ten of n samples beyond it; 50 when none does. A
// percentile resting on fewer samples than that is one stall's
// latency, not a property of the system.
func tailPercentile(n int) int {
	for _, p := range []int{99, 95, 90, 75} {
		if n*(100-p) >= 10*100 {
			return p
		}
	}
	return 50
}

// quartileSpread is (Q3 − Q1) / median with the quartiles Python's
// statistics.quantiles(values, n=4) gives (exclusive method), the
// figure the driver holds against each metric's bound. Fewer than two
// values have no spread.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	m := median(xs)
	if n < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return math.Abs((q(3) - q(1)) / m)
}
