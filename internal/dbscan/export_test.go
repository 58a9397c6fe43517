package dbscan

// ClusterBands runs Cluster's passes on a streaming matrix with up to
// workers goroutines over bands of about band pairs each, whatever the
// matrix size, so tests can cut small matrices into many bands. m must
// be a SuffixStreamer.
func ClusterBands(m Matrix, eps float64, minPts, workers, band int) *Result {
	return cluster(newWalk(m.Len(), m.(SuffixStreamer).StreamSuffix, workers, band), eps, minPts)
}
