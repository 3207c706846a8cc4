package main

import (
	"fmt"
	"math"
	"sort"
)

// beyondMin is how many samples must lie beyond a reported percentile.
const beyondMin = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs.
// It refuses a sample too small to leave beyondMin values beyond the
// rank, since such a tail percentile would rest on a handful of values.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v outside (0, 100)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if rank < 1 || n-rank < beyondMin {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, need %d", p, n, n-rank, beyondMin)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median of xs (the mean of the middle two for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
