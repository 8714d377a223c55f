package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first, second and third quartiles of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// method the benchmark's spread rule is stated in. It needs at least two
// values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		// Cut point i of four over the n+1 gaps, clamped and
		// interpolated exactly as Python does it.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// tailPercentile names the highest percentile of n samples that has at
// least ten samples beyond it, capped at p90, and returns it with its
// nearest-rank value. ok is false when there are too few samples (n < 11).
func tailPercentile(xs []float64) (pct int, value float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	pct = 100 * (n - 10) / n
	if pct > 90 {
		pct = 90
	}
	s := sorted(xs)
	rank := int(math.Ceil(float64(pct) * float64(n) / 100))
	return pct, s[rank-1], true
}
