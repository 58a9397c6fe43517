// Package eval implements the paper's evaluation metrics (Section
// IV-A): combinatorial precision and recall over pairwise assignments
// of unique segments (Manning et al.), the F_β score with β = 1/4, and
// byte coverage.
package eval

import (
	"math"

	"protoclust/internal/core"
	"protoclust/internal/detmap"
	"protoclust/internal/netmsg"
)

// Beta is the paper's F-score weight: β = 1/4 emphasises precision four
// times over recall, because precise clusters are crucial while low
// recall only diminishes coverage.
const Beta = 0.25

// Metrics aggregates the clustering quality statistics.
type Metrics struct {
	// TP, FP, and FN are combinatorial pair counts; FN includes the two
	// noise terms of Section IV-A.
	TP float64
	FP float64
	FN float64
	// Precision is TP/(TP+FP); 0 when no positive pairs exist.
	Precision float64
	// Recall is TP/(TP+FN); 0 when no true pairs exist.
	Recall float64
	// FScore is the F_β score with β = Beta.
	FScore float64
}

func choose2(n int) float64 {
	if n < 2 {
		return 0
	}
	return float64(n) * float64(n-1) / 2
}

// ClusterMetrics computes the combinatorial statistics for a clustering
// given, per cluster, the ground-truth type of each unique member
// segment, plus the types of the unique segments relegated to noise.
func ClusterMetrics(clusters [][]netmsg.FieldType, noise []netmsg.FieldType) Metrics {
	// Count members per (cluster, type) and per type overall.
	perCluster := make([]map[netmsg.FieldType]int, len(clusters))
	typeTotal := make(map[netmsg.FieldType]int)
	for i, c := range clusters {
		perCluster[i] = make(map[netmsg.FieldType]int)
		for _, typ := range c {
			perCluster[i][typ]++
			typeTotal[typ]++
		}
	}
	noiseType := make(map[netmsg.FieldType]int)
	for _, typ := range noise {
		noiseType[typ]++
		typeTotal[typ]++
	}

	var m Metrics
	// TP+FP = Σ_i C(|c_i|, 2); TP = Σ_i Σ_l C(|t_il|, 2).
	var tpfp float64
	for i, c := range clusters {
		tpfp += choose2(len(c))
		for _, typ := range detmap.SortedKeys(perCluster[i]) {
			m.TP += choose2(perCluster[i][typ])
		}
	}
	m.FP = tpfp - m.TP

	// FN = Σ_i Σ_l (|t_l|−|t_il|)·|t_il|/2            (split across clusters)
	//    + Σ_l C(|t_nl|, 2)                            (pairs lost to noise)
	//    + Σ_l (|t_l|−|t_nl|)·|t_nl|/2                 (noise vs. clustered)
	for i := range clusters {
		for _, typ := range detmap.SortedKeys(perCluster[i]) {
			til := perCluster[i][typ]
			m.FN += float64(typeTotal[typ]-til) * float64(til) / 2
		}
	}
	for _, typ := range detmap.SortedKeys(noiseType) {
		tnl := noiseType[typ]
		m.FN += choose2(tnl)
		m.FN += float64(typeTotal[typ]-tnl) * float64(tnl) / 2
	}

	if tpfp > 0 {
		m.Precision = m.TP / tpfp
	}
	if m.TP+m.FN > 0 {
		m.Recall = m.TP / (m.TP + m.FN)
	}
	m.FScore = FBeta(m.Precision, m.Recall, Beta)
	return m
}

// FBeta computes the F_β score, the weighted harmonic mean of precision
// and recall (van Rijsbergen).
func FBeta(precision, recall, beta float64) float64 {
	if precision == 0 && recall == 0 {
		return 0
	}
	b2 := beta * beta
	denom := b2*precision + recall
	if denom == 0 {
		return 0
	}
	return (1 + b2) * precision * recall / denom
}

// EvaluateResult labels every unique segment of a pipeline result with
// its dominant ground-truth type and computes the cluster metrics. It
// requires the underlying messages to carry ground-truth dissections.
func EvaluateResult(res *core.Result) Metrics {
	clusters := make([][]netmsg.FieldType, len(res.Clusters))
	for i, c := range res.Clusters {
		for _, idx := range c.UniqueIndexes {
			typ, _ := res.Pool.Unique[idx].DominantTrueType()
			clusters[i] = append(clusters[i], typ)
		}
	}
	// Noise is stored as occurrences; recover the unique indices as the
	// pool entries belonging to no cluster.
	var noise []netmsg.FieldType
	inCluster := make(map[int]bool)
	for _, c := range res.Clusters {
		for _, idx := range c.UniqueIndexes {
			inCluster[idx] = true
		}
	}
	for idx := range res.Pool.Unique {
		if !inCluster[idx] {
			typ, _ := res.Pool.Unique[idx].DominantTrueType()
			noise = append(noise, typ)
		}
	}
	return ClusterMetrics(clusters, noise)
}

// Coverage returns the ratio of bytes the analysis makes a statement
// about to all message bytes in the analyzed trace (Section IV-A).
func Coverage(res *core.Result, tr *netmsg.Trace) float64 {
	total := tr.TotalBytes()
	if total == 0 {
		return 0
	}
	cov := float64(res.CoveredBytes()) / float64(total)
	return math.Min(cov, 1)
}
