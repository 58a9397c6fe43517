package dbscan

// ClusterBands runs Cluster's passes on m with up to workers goroutines
// over bands of about band pairs each, whatever the matrix size, so
// tests can cut small matrices into many bands.
func ClusterBands(m Matrix, eps float64, minPts, workers, band int) *Result {
	return cluster(newWalk(m, workers, band), eps, minPts)
}
