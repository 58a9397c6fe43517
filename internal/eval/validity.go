package eval

import (
	"protoclust/internal/dbscan"
)

// Silhouette computes the mean silhouette coefficient of a labeling over
// a precomputed dissimilarity matrix — the internal validity metric the
// configuration sweep scores with when no ground truth is available.
//
// Conventions follow the common sklearn definition: labels[i] < 0 marks
// noise, which is excluded both as a scored sample and as a neighbor
// population; a sample in a singleton cluster scores 0; fewer than two
// non-noise clusters (nothing to contrast against) scores 0 overall.
// The score is the unweighted mean of per-sample coefficients
// s = (b − a) / max(a, b), where a is the mean intra-cluster distance
// and b the smallest mean distance to any other cluster.
//
// The per-sample accumulation streams each row's spans instead of
// calling Dist n times. Accumulation is strictly sequential in ascending sample order, so the
// result is deterministic for a given (matrix, labels) pair.
func Silhouette(m dbscan.RowStreamer, labels []int) float64 {
	n := m.Len()
	if len(labels) != n {
		return 0
	}

	// Compact the non-negative labels to 0…k−1 preserving ascending
	// label order, and count cluster sizes.
	maxLabel := -1
	for _, l := range labels {
		if l > maxLabel {
			maxLabel = l
		}
	}
	if maxLabel < 0 {
		return 0 // all noise
	}
	compact := make([]int, maxLabel+1)
	for i := range compact {
		compact[i] = -1
	}
	var sizes []int
	for _, l := range labels {
		if l < 0 {
			continue
		}
		if compact[l] < 0 {
			compact[l] = -2 // seen, index assigned below in label order
		}
	}
	for l := range compact {
		if compact[l] == -2 {
			compact[l] = len(sizes)
			sizes = append(sizes, 0)
		}
	}
	for _, l := range labels {
		if l >= 0 {
			sizes[compact[l]]++
		}
	}
	if len(sizes) < 2 {
		return 0
	}

	sums := make([]float64, len(sizes))
	var total float64
	var scored int
	for i := 0; i < n; i++ {
		li := labels[i]
		if li < 0 {
			continue
		}
		ci := compact[li]
		scored++
		if sizes[ci] < 2 {
			// Singleton cluster: s = 0 by convention; still counted.
			continue
		}
		for c := range sums {
			sums[c] = 0
		}
		m.StreamRow(i, func(lo int, vals []float32) {
			for o, d := range vals {
				if l := labels[lo+o]; l >= 0 {
					sums[compact[l]] += float64(d)
				}
			}
		})
		// The i-th sample contributed Dist(i,i) = 0 to its own cluster's
		// sum, so the intra mean divides by size−1 without correction.
		a := sums[ci] / float64(sizes[ci]-1)
		b := 0.0
		first := true
		for c := range sums {
			if c == ci {
				continue
			}
			mean := sums[c] / float64(sizes[c])
			if first || mean < b {
				b = mean
				first = false
			}
		}
		if d := max(a, b); d > 0 {
			total += (b - a) / d
		}
	}
	if scored == 0 {
		return 0
	}
	return total / float64(scored)
}
