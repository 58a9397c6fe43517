package oracle

import "math"

// PairwiseMean returns the arithmetic mean of all pairwise
// dissimilarities within cluster c, by direct double loop. NaN for
// clusters with fewer than two members.
func PairwiseMean(c []int, dist DistFunc) float64 {
	var sum float64
	var count int
	for a := 0; a < len(c); a++ {
		for b := 0; b < len(c); b++ {
			if a == b {
				continue
			}
			sum += dist(c[a], c[b])
			count++
		}
	}
	if count == 0 {
		return math.NaN()
	}
	// Every unordered pair was visited twice; the mean is unaffected.
	return sum / float64(count)
}

// PairwiseMax returns the maximum pairwise dissimilarity within c (the
// cluster extent), or -Inf for clusters with fewer than two members.
func PairwiseMax(c []int, dist DistFunc) float64 {
	max := math.Inf(-1)
	for a := 0; a < len(c); a++ {
		for b := a + 1; b < len(c); b++ {
			if d := dist(c[a], c[b]); d > max {
				max = d
			}
		}
	}
	return max
}

// NearestNeighborMedian returns the median over cluster members of each
// member's distance to its nearest other member — the minmed statistic
// of the Section III-F merge conditions. NaN for fewer than two members.
func NearestNeighborMedian(c []int, dist DistFunc) float64 {
	mins := make([]float64, 0, len(c))
	for _, a := range c {
		best := math.Inf(1)
		for _, b := range c {
			if a != b && dist(a, b) < best {
				best = dist(a, b)
			}
		}
		mins = append(mins, best)
	}
	return Median(mins)
}

// Median returns the median of xs by full selection sort semantics
// (via kthSmallest), averaging the two central order statistics for
// even lengths. NaN for empty input.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return kthSmallest(xs, n/2)
	}
	return (kthSmallest(xs, n/2-1) + kthSmallest(xs, n/2)) / 2
}

// LinkSegments returns the closest pair (a ∈ ci, b ∈ cj) and its
// distance d_link, scanning all |ci|·|cj| pairs. Ties resolve to the
// first pair in iteration order, matching the production scan.
func LinkSegments(ci, cj []int, dist DistFunc) (a, b int, dLink float64) {
	dLink = math.Inf(1)
	for _, x := range ci {
		for _, y := range cj {
			if d := dist(x, y); d < dLink {
				dLink = d
				a, b = x, y
			}
		}
	}
	return a, b, dLink
}

// RhoEps returns the ε-density around a link segment: the median
// distance from link to the cluster members within ε (link itself
// excluded) and the neighborhood size; (0, 0) when the neighborhood is
// empty.
func RhoEps(link int, cluster []int, eps float64, dist DistFunc) (float64, int) {
	var within []float64
	for _, s := range cluster {
		if s == link {
			continue
		}
		if d := dist(link, s); d <= eps {
			within = append(within, d)
		}
	}
	if len(within) == 0 {
		return 0, 0
	}
	return Median(within), len(within)
}

// GatherStats returns the Section III-F statistics of cluster c — the
// mean and maximum pairwise dissimilarity and the median 1-NN distance
// — computed the gather way: every pair (c[a], c[b]), a < b, in member
// order into one slice, its sequential sum divided by the pair count,
// its maximum, and each member's minimum over the same slice. Clusters
// with fewer than two members yield zeros. For a cluster in ascending
// member order the production statistics walk must match it bit for
// bit, because it sums the same pairs in the same order.
func GatherStats(c []int, dist DistFunc) (meanD, dmax, minmed float64) {
	if len(c) < 2 {
		return 0, 0, 0
	}
	var pair []float64
	for a := 0; a < len(c); a++ {
		for b := a + 1; b < len(c); b++ {
			pair = append(pair, dist(c[a], c[b]))
		}
	}
	var sum float64
	dmax = math.Inf(-1)
	for _, d := range pair {
		sum += d
		if d > dmax {
			dmax = d
		}
	}
	mins := make([]float64, len(c))
	for i := range mins {
		mins[i] = math.Inf(1)
	}
	p := 0
	for a := 0; a < len(c); a++ {
		for b := a + 1; b < len(c); b++ {
			if d := pair[p]; d < mins[a] {
				mins[a] = d
			}
			if d := pair[p]; d < mins[b] {
				mins[b] = d
			}
			p++
		}
	}
	return sum / float64(len(pair)), dmax, Median(mins)
}
