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
// One ascending walk over the row suffixes reads each pair once and
// fills a distance sum per (scored point, cluster): rows j < i reach
// point i as column i before i's own suffix follows, so every sum adds
// the same values in the same order as a j = 0…n−1 Dist loop over row
// i (less the diagonal's +0, which changes no sum). The result is
// deterministic for a given (matrix, labels) pair. Extra memory is one
// float64 per scored point and cluster.
func Silhouette(m dbscan.Matrix, labels []int) float64 {
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
	// cl[i] is point i's compact cluster, or −1 for noise.
	cl := make([]int, n)
	for i, l := range labels {
		cl[i] = -1
		if l >= 0 {
			cl[i] = compact[l]
			sizes[cl[i]]++
		}
	}
	k := len(sizes)
	if k < 2 {
		return 0
	}

	// at[i] is the offset of point i's k sums, or −1 when nothing is
	// summed for it: noise, or a singleton cluster (s = 0 by convention).
	at := make([]int, n)
	summed := 0
	for i, c := range cl {
		at[i] = -1
		if c >= 0 && sizes[c] >= 2 {
			at[i] = summed * k
			summed++
		}
	}
	sums := make([]float64, summed*k)
	for i, ci := range cl {
		if ci < 0 {
			continue
		}
		own := at[i]
		m.StreamSuffix(i, func(lo int, vals []float32) {
			cls, ats := cl[lo:lo+len(vals)], at[lo:lo+len(vals)]
			for o, d32 := range vals {
				cj := cls[o]
				if cj < 0 {
					continue
				}
				d := float64(d32)
				if own >= 0 {
					sums[own+cj] += d
				}
				if a := ats[o]; a >= 0 {
					sums[a+ci] += d
				}
			}
		})
	}

	var total float64
	scored := 0
	for i, ci := range cl {
		if ci < 0 {
			continue
		}
		scored++
		if at[i] < 0 {
			continue // singleton cluster: scores 0, still counted
		}
		row := sums[at[i] : at[i]+k]
		a := row[ci] / float64(sizes[ci]-1)
		b := 0.0
		first := true
		for c, sum := range row {
			if c == ci {
				continue
			}
			mean := sum / float64(sizes[c])
			if first || mean < b {
				b = mean
				first = false
			}
		}
		if d := max(a, b); d > 0 {
			total += (b - a) / d
		}
	}
	return total / float64(scored)
}
