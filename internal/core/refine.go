package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"protoclust/internal/dbscan"
	"protoclust/internal/vecmath"
)

// distances is the subset of the dissimilarity matrix the refinement
// needs; satisfied by *dissim.Matrix and by test fakes. A matrix that
// also streams its row suffixes (dbscan.SuffixStreamer, as
// *dissim.Matrix does) serves the cluster statistics in storage order;
// any other is read through Dist.
type distances interface {
	Dist(i, j int) float64
}

// clusterStats caches the per-cluster quantities used by the merge
// conditions of Section III-F.
type clusterStats struct {
	// meanD is the arithmetic mean of all pairwise dissimilarities.
	meanD float64
	// dmax is the maximum pairwise dissimilarity (the cluster extent).
	dmax float64
	// minmed is the median of each member's 1-nearest-neighbor distance
	// within the cluster.
	minmed float64
}

// statsAcc accumulates the intra-cluster pairs of every cluster at
// once: the running sum and maximum per cluster, and each point's
// 1-NN distance within its cluster.
type statsAcc struct {
	sum, dmax, mins []float64
}

func (a *statsAcc) add(c, i, j int, d float64) {
	a.sum[c] += d
	if d > a.dmax[c] {
		a.dmax[c] = d
	}
	if d < a.mins[i] {
		a.mins[i] = d
	}
	if d < a.mins[j] {
		a.mins[j] = d
	}
}

// computeStats returns the statistics of every cluster from one walk
// over the row suffixes, in O(n) memory: lab maps each point to its
// cluster, and each pair (i < j) of one cluster feeds that cluster's
// sum and maximum and the 1-NN distances of both members. Rows are
// walked by ascending i and columns by ascending j, so a cluster listed
// in ascending member order (every pipeline cluster) receives its pairs
// in the order of the double loop over its members, and its mean is
// that loop's sequential sum bit for bit. Clusters must be disjoint;
// clusters with fewer than two members have no pairs and get zero
// stats (a point cluster has no extent). The context is checked once
// per row. Rows past the largest clustered index are not walked, and
// spans past it are skipped unread; the tiled store still acquires
// their tiles, because StreamSuffix has no early stop.
func computeStats(ctx context.Context, clusters [][]int, m distances) ([]clusterStats, error) {
	top := -1
	for _, c := range clusters {
		if len(c) >= 2 {
			for _, p := range c {
				top = max(top, p)
			}
		}
	}
	lab := make([]int, top+1)
	for i := range lab {
		lab[i] = -1
	}
	acc := statsAcc{
		sum:  make([]float64, len(clusters)),
		dmax: make([]float64, len(clusters)),
		mins: make([]float64, len(lab)),
	}
	for ci, c := range clusters {
		acc.dmax[ci] = math.Inf(-1)
		if len(c) < 2 {
			continue
		}
		for _, p := range c {
			if lab[p] >= 0 {
				return nil, fmt.Errorf("core: refinement: segment %d is in two clusters", p)
			}
			lab[p] = ci
			acc.mins[p] = math.Inf(1)
		}
	}

	s, streams := m.(dbscan.SuffixStreamer)
	for i, c := range lab {
		if c < 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: refinement: %w", err)
		}
		if !streams {
			for j := i + 1; j < len(lab); j++ {
				if lab[j] == c {
					acc.add(c, i, j, m.Dist(i, j))
				}
			}
			continue
		}
		s.StreamSuffix(i, func(lo int, vals []float32) {
			if lo >= len(lab) {
				return
			}
			labs := lab[lo:min(lo+len(vals), len(lab))]
			for o, l := range labs {
				if l == c {
					acc.add(c, i, lo+o, float64(vals[o]))
				}
			}
		})
	}

	stats := make([]clusterStats, len(clusters))
	for ci, c := range clusters {
		if len(c) < 2 {
			continue
		}
		mins := make([]float64, len(c))
		for k, p := range c {
			mins[k] = acc.mins[p]
		}
		stats[ci] = clusterStats{
			meanD:  acc.sum[ci] / float64(vecmath.CheckedTriNum(len(c))),
			dmax:   acc.dmax[ci],
			minmed: vecmath.Median(mins),
		}
	}
	return stats, nil
}

// linkSegments finds the closest pair (a ∈ ci, b ∈ cj) and their
// distance — the link segments s_link_{i,j}, s_link_{j,i} and d_link.
func linkSegments(ci, cj []int, m distances) (a, b int, dLink float64) {
	dLink = math.Inf(1)
	for _, x := range ci {
		for _, y := range cj {
			if d := m.Dist(x, y); d < dLink {
				dLink = d
				a, b = x, y
			}
		}
	}
	return a, b, dLink
}

// rhoEps is the density ρ_ε around a link segment: the median of the
// dissimilarities from the link segment to its cluster members within
// ε, plus the neighborhood size. An empty ε-neighborhood yields (0, 0).
func rhoEps(link int, cluster []int, eps float64, m distances) (float64, int) {
	var within []float64
	for _, s := range cluster {
		if s == link {
			continue
		}
		if d := m.Dist(link, s); d <= eps {
			within = append(within, d)
		}
	}
	if len(within) == 0 {
		return 0, 0
	}
	return vecmath.Median(within), len(within)
}

// mergeClusters applies the two merge conditions of Section III-F
// transitively (via union-find) and returns the merged clustering.
// Clusters must be disjoint. Clusters with fewer than two members
// cannot supply the required statistics and are never merged. The
// context is checked once per row of the statistics walk and once per
// outer cluster — linkSegments makes each pair O(|ci|·|cj|) — so a
// cancelled context aborts within one cluster's comparisons.
func mergeClusters(ctx context.Context, clusters [][]int, m distances, p Params) ([][]int, error) {
	n := len(clusters)
	if n < 2 {
		return clusters, nil
	}
	stats, err := computeStats(ctx, clusters, m)
	if err != nil {
		return nil, err
	}

	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: refinement: %w", err)
		}
		if len(clusters[i]) < 2 {
			continue
		}
		for j := i + 1; j < n; j++ {
			if len(clusters[j]) < 2 {
				continue
			}
			a, b, dLink := linkSegments(clusters[i], clusters[j], m)
			si, sj := stats[i], stats[j]

			// Condition 1: very close by, similar ε-density at the link.
			// Deviation from the paper's formulation (DESIGN.md §5): the
			// closeness bound uses the smaller of the two mean
			// intra-cluster dissimilarities (max() lets one wide chain
			// cluster absorb any neighbor), and both link neighborhoods
			// must be non-empty so that two vacuously-zero densities do
			// not count as "similar".
			if dLink < math.Min(si.meanD, sj.meanD) {
				// ε is half the extent of the smaller cluster.
				ext := si.dmax
				if len(clusters[j]) < len(clusters[i]) {
					ext = sj.dmax
				}
				eps := ext / 2
				rhoA, na := rhoEps(a, clusters[i], eps, m)
				rhoB, nb := rhoEps(b, clusters[j], eps, m)
				if na > 0 && nb > 0 && math.Abs(rhoA-rhoB) < p.EpsRhoThreshold {
					union(i, j)
					continue
				}
			}

			// Condition 2: somewhat close by, similar whole-cluster
			// density.
			if si.meanD > 0 && sj.meanD > 0 {
				closeBound := (si.minmed/si.meanD + sj.minmed/sj.meanD) / 2
				if dLink < closeBound && math.Abs(si.minmed-sj.minmed) < p.NeighborDensityThreshold {
					union(i, j)
				}
			}
		}
	}

	merged := make(map[int][]int)
	order := make([]int, 0, n)
	for i, c := range clusters {
		root := find(i)
		if _, ok := merged[root]; !ok {
			order = append(order, root)
		}
		merged[root] = append(merged[root], c...)
	}
	out := make([][]int, 0, len(order))
	for _, root := range order {
		c := merged[root]
		sort.Ints(c)
		out = append(out, c)
	}
	return out, nil
}

// splitClusters applies the under-classification correction of Section
// III-F: clusters with extremely polarized value occurrences — many
// unique values together with a few very frequent ones — are split at
// the pivot F = ln|c'| into a low-occurrence and a high-occurrence
// subcluster, where |c'| is the number of unique segment values in the
// cluster (paper, Section III-F; see DESIGN.md §5). occCount returns
// the number of concrete segments carrying the unique value at a pool
// index.
func splitClusters(clusters [][]int, occCount func(int) int, p Params) [][]int {
	var out [][]int
	for _, c := range clusters {
		counts := make([]float64, len(c))
		total := 0
		for i, idx := range c {
			n := occCount(idx)
			counts[i] = float64(n)
			total += n
		}
		if total < 3 || len(c) < 2 {
			out = append(out, c)
			continue
		}
		f := math.Log(float64(len(c)))
		pr := vecmath.PercentRank(counts, f)
		sigma := vecmath.StdDev(counts)
		if !(pr > p.PercentRankThreshold && sigma > f) {
			out = append(out, c)
			continue
		}
		var low, high []int
		for i, idx := range c {
			if counts[i] <= f {
				low = append(low, idx)
			} else {
				high = append(high, idx)
			}
		}
		if len(low) == 0 || len(high) == 0 {
			out = append(out, c)
			continue
		}
		out = append(out, low, high)
	}
	return out
}
