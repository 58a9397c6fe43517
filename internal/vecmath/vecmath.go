// Package vecmath provides small numeric helpers shared by the
// clustering pipeline: means, medians, standard deviation, minimum and
// maximum, percentiles, percent rank, and even spacing over float64
// slices.
//
// All functions treat their inputs as read-only; functions that need to
// sort operate on an internal copy.
package vecmath

import (
	"math"
	"slices"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the median of xs, or NaN for an empty slice. For an
// even number of elements it returns the mean of the two central ones.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), xs...)
	slices.Sort(cp)
	mid := len(cp) / 2
	if len(cp)%2 == 1 {
		return cp[mid]
	}
	return (cp[mid-1] + cp[mid]) / 2
}

// StdDev returns the population standard deviation of xs, or NaN for an
// empty slice.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	mean := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - mean
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)))
}

// Min returns the smallest element of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	min := math.Inf(1)
	for _, x := range xs {
		if x < min {
			min = x
		}
	}
	return min
}

// Max returns the largest element of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	max := math.Inf(-1)
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	return max
}

// Percentile returns the p-th percentile of xs under the C = 1
// ("linear", R type 7, NumPy default) convention: the value at
// fractional rank p/100·(n−1) of the ascending order statistics, with
// linear interpolation between the two enclosing ranks. p is clamped
// to [0, 100], so p ≤ 0 yields the minimum and p ≥ 100 the maximum; a
// single-element slice returns that element for every p. An empty
// slice or NaN p returns NaN. Samples containing NaN are unsupported
// (the order statistics are undefined).
//
// The ε-selection fallback (fallbackQuantile in internal/core) depends
// on this convention; it is pinned by differential tests against
// internal/oracle.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 || math.IsNaN(p) {
		return math.NaN()
	}
	cp := append([]float64(nil), xs...)
	slices.Sort(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	rank := p / 100 * float64(len(cp)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return cp[lo]
	}
	frac := rank - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// PercentRank returns the percent rank of value v within xs under the
// mean-rank convention (Roscoe 1975): the percentage of observations
// strictly below v plus half the observations equal to v. The result
// is in [0, 100]: a v below every observation scores 0, above every
// observation 100, and the rank is symmetric in the sense that
// PercentRank(xs, v) + "percent above" + equal/2 always sums to 100.
// An empty xs or NaN v returns NaN (previously a NaN v silently
// scored 0, which would disable the cluster-split test instead of
// flagging the bad input).
func PercentRank(xs []float64, v float64) float64 {
	if len(xs) == 0 || math.IsNaN(v) {
		return math.NaN()
	}
	var below, equal int
	for _, x := range xs {
		switch {
		case x < v:
			below++
		case EqualExact(x, v):
			equal++
		}
	}
	return (float64(below) + float64(equal)/2) / float64(len(xs)) * 100
}

// Linspace returns n evenly spaced values from lo to hi inclusive.
// n must be at least 2.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out
}
