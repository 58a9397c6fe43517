package dbscan

import (
	"math"
	"slices"
)

// ClusterBands runs Cluster's passes on m with up to workers goroutines
// over bands of about band pairs each, whatever the matrix size, so
// tests can cut small matrices into many bands.
func ClusterBands(m Matrix, eps float64, minPts, workers, band int) *Result {
	return cluster(&walk{Walk: newWalk(m.Len(), workers, band), stream: m.StreamSuffix}, eps, minPts)
}

// KNNTable builds m's k-NN table of the given number of rows, the
// shape the ε auto-configuration hands ClusterTable: table[k][i] is
// point i's (k+1)-th smallest distance to another point, or +Inf when
// fewer than k+1 others exist (a tiny matrix whose minPts asks for more
// neighbours than it has). Each row keeps its nearest distances sorted
// by insertion.
func KNNTable(m Matrix, rows int) [][]float64 {
	n := m.Len()
	table := make([][]float64, rows)
	for k := range table {
		table[k] = make([]float64, n)
	}
	near := make([]float64, 0, rows+1)
	for i := 0; i < n; i++ {
		near = near[:0]
		for j := 0; j < n; j++ {
			d := m.Dist(i, j)
			if j == i || len(near) == rows && d >= near[rows-1] {
				continue
			}
			at, _ := slices.BinarySearch(near, d)
			near = slices.Insert(near, at, d)[:min(len(near)+1, rows)]
		}
		for k := range table {
			table[k][i] = math.Inf(1)
			if k < len(near) {
				table[k][i] = near[k]
			}
		}
	}
	return table
}
