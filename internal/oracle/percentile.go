package oracle

import "math"

// Percentile computes the p-th percentile of xs under the
// C = 1 ("linear", R type 7) convention: the value at fractional rank
// r = p/100·(n−1) of the ascending order statistics, linearly
// interpolated between the two enclosing ranks. p is clamped to
// [0, 100]; NaN p or empty xs yield NaN.
//
// The rank walk below selects each order statistic by repeated
// minimum extraction instead of sorting, so the reference shares no
// code path with vecmath.Percentile.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 || math.IsNaN(p) {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := p / 100 * float64(len(xs)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	vLo := kthSmallest(xs, lo)
	if frac == 0 {
		return vLo
	}
	vHi := kthSmallest(xs, lo+1)
	return vLo + frac*(vHi-vLo)
}

// kthSmallest returns the k-th (0-based) ascending order statistic by
// selection: scan for the minimum k+1 times, excluding found indices.
func kthSmallest(xs []float64, k int) float64 {
	used := make([]bool, len(xs))
	var val float64
	for round := 0; round <= k; round++ {
		idx := -1
		for i, x := range xs {
			if used[i] {
				continue
			}
			if idx < 0 || x < xs[idx] {
				idx = i
			}
		}
		used[idx] = true
		val = xs[idx]
	}
	return val
}

// PercentRank returns the mean-rank ("Roscoe") percent rank of v in xs:
// the percentage of observations strictly below v plus half of those
// equal to v. NaN for empty xs or NaN v.
func PercentRank(xs []float64, v float64) float64 {
	if len(xs) == 0 || math.IsNaN(v) {
		return math.NaN()
	}
	var score float64
	for _, x := range xs {
		switch {
		case x < v:
			score += 1
		case x == v:
			score += 0.5
		}
	}
	return score / float64(len(xs)) * 100
}
