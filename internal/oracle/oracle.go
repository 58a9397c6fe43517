// Package oracle provides small, obviously-correct reference
// implementations of the numeric algorithms at the heart of the
// clustering pipeline: textbook DBSCAN, naive ECDF evaluation,
// percentile and percent-rank statistics, Kneedle's discrete difference
// curve, O(n²) cluster-refinement statistics, and the least-squares
// cubic B-spline fitted over every basis function at every point.
//
// Nothing in this package is optimized; every function favors the most
// direct transcription of its definition. The production packages
// (internal/dbscan, internal/ecdf, internal/vecmath, internal/kneedle,
// internal/spline, internal/core) are checked against these references by differential
// and metamorphic tests under randomized inputs, so the fast paths can
// keep evolving without silently drifting from the paper's semantics.
//
// The package deliberately imports none of the production packages it
// verifies — an oracle that shares code with the subject under test
// can only confirm the shared bugs.
package oracle

import "sort"

// DistFunc returns the dissimilarity between points i and j. It must be
// symmetric with DistFunc(i, i) == 0.
type DistFunc func(i, j int) float64

// CanonicalPartition sorts every cluster's members and then the
// clusters by their smallest member, so two partitions can be compared
// for set-of-sets equality regardless of discovery order. The input is
// not modified.
func CanonicalPartition(clusters [][]int) [][]int {
	out := make([][]int, 0, len(clusters))
	for _, c := range clusters {
		cp := append([]int(nil), c...)
		sort.Ints(cp)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) == 0 || len(out[j]) == 0 {
			return len(out[i]) < len(out[j])
		}
		return out[i][0] < out[j][0]
	})
	return out
}

// EqualPartitions reports whether two partitions contain exactly the
// same clusters (as sets), ignoring cluster order and member order.
func EqualPartitions(a, b [][]int) bool {
	ca, cb := CanonicalPartition(a), CanonicalPartition(b)
	if len(ca) != len(cb) {
		return false
	}
	for i := range ca {
		if len(ca[i]) != len(cb[i]) {
			return false
		}
		for j := range ca[i] {
			if ca[i][j] != cb[i][j] {
				return false
			}
		}
	}
	return true
}
