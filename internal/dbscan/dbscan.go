// Package dbscan implements Density-Based Spatial Clustering of
// Applications with Noise (Ester, Kriegel, Sander, Xu; KDD 1996) over a
// precomputed dissimilarity matrix.
//
// The paper clusters unique message segments whose pairwise Canberra
// dissimilarities serve as affinities; DBSCAN is chosen because it needs
// no target cluster count, makes no shape assumptions, and treats
// outliers as noise (Section III-E).
//
// Cluster does not expand clusters breadth-first. It finds them as the
// connected components of the core points, in three passes over the
// row suffixes in storage order (SuffixStreamer) and O(n) memory:
//
//  1. ε-degrees, self included, mark the core points.
//  2. Union-find over the core–core ε-pairs joins them into components,
//     numbered by their smallest core index.
//  3. Each non-core point takes the smallest id among the components of
//     its ε-adjacent core points, or stays Noise.
//
// The labels equal those of the textbook expansion seeded in index
// order. That expansion starts each cluster at the smallest-index core
// point not yet labelled, so clusters are numbered by their smallest
// core index, and it fully expands one cluster — exactly one core
// component plus the non-core points within ε of it — before seeding
// the next. A border point keeps the first cluster that reaches it,
// which is the one with the smallest id.
package dbscan

import (
	"errors"
	"fmt"
)

// Noise is the label assigned to points that belong to no cluster.
const Noise = -1

// Matrix provides pairwise dissimilarities between n points. Dist must
// be symmetric with Dist(i,i) == 0.
type Matrix interface {
	// Len returns the number of points.
	Len() int
	// Dist returns the dissimilarity between points i and j.
	Dist(i, j int) float64
}

// Result holds a clustering outcome.
type Result struct {
	// Labels maps each point index to its cluster ID (0-based) or Noise.
	Labels []int
	// NumClusters is the number of clusters found (noise excluded).
	NumClusters int
}

// Errors returned by Cluster.
var (
	ErrEmpty     = errors.New("dbscan: empty matrix")
	ErrBadEps    = errors.New("dbscan: eps must be positive")
	ErrBadMinPts = errors.New("dbscan: minPts must be at least 1")
)

// Cluster runs DBSCAN with radius eps and density threshold minPts
// (minimum neighborhood size, including the point itself, for a point to
// be a core point). The clustering is deterministic and label-identical
// to the expansion seeded in index order (see the package doc).
func Cluster(m Matrix, eps float64, minPts int) (*Result, error) {
	n := m.Len()
	if n == 0 {
		return nil, ErrEmpty
	}
	// Written so that a NaN eps, for which every comparison is false,
	// is rejected instead of labelling every point Noise.
	if !(eps > 0) {
		return nil, fmt.Errorf("%w (got %v)", ErrBadEps, eps)
	}
	if minPts < 1 {
		return nil, fmt.Errorf("%w (got %d)", ErrBadMinPts, minPts)
	}

	// Pass 1: ε-degrees. Every point is its own neighbor (Dist(i, i) =
	// 0 ≤ eps), so minPts = 1 makes every point core without a pass.
	core := make([]bool, n)
	cand := make([]bool, n) // non-core with an ε-neighbor: a border candidate
	borders := false
	if minPts == 1 {
		for i := range core {
			core[i] = true
		}
	} else {
		for i, d := range epsDegrees(m, eps) {
			core[i] = d+1 >= minPts
			cand[i] = !core[i] && d > 0
			borders = borders || cand[i]
		}
	}

	// Pass 2: union-find over core–core ε-pairs. Every root is the
	// smallest index of its component, so numbering roots in index
	// order numbers clusters by their smallest core point. The walk
	// keeps row i's root in ri, so each pair costs one find.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	ri, row := 0, -1
	eachEpsPair(m, eps, core, core, func(i, j int) {
		if i != row {
			ri, row = find(i), i
		}
		switch rj := find(j); {
		case rj < ri:
			parent[ri], ri = rj, rj
		case ri < rj:
			parent[rj] = ri
		}
	})
	labels := make([]int, n)
	clusters := 0
	for p := range labels {
		switch {
		case !core[p]:
			labels[p] = Noise
		case find(p) == p:
			labels[p] = clusters
			clusters++
		default:
			labels[p] = labels[find(p)] // the root precedes p
		}
	}

	// Pass 3: each border candidate joins the smallest cluster among its
	// ε-adjacent core points, whether they precede it (core rows) or
	// follow it (its own row).
	if borders && clusters > 0 {
		join := func(b, c int) {
			if id := labels[c]; labels[b] == Noise || id < labels[b] {
				labels[b] = id
			}
		}
		eachEpsPair(m, eps, core, cand, func(i, j int) { join(j, i) })
		eachEpsPair(m, eps, cand, core, func(i, j int) { join(i, j) })
	}

	return &Result{Labels: labels, NumClusters: clusters}, nil
}

// epsDegrees returns every point's number of ε-neighbors, itself
// excluded. Pass 1 is the one pass without a row or column filter, so
// on a streaming matrix its count runs inline in the span loop instead
// of through a call per ε-pair.
func epsDegrees(m Matrix, eps float64) []int {
	n := m.Len()
	deg := make([]int, n)
	s, streams := m.(SuffixStreamer)
	if !streams {
		eachEpsPair(m, eps, nil, nil, func(i, j int) {
			deg[i]++
			deg[j]++
		})
		return deg
	}
	for i := 0; i < n-1; i++ {
		cnt := 0
		s.StreamSuffix(i, func(lo int, vals []float32) {
			ds := deg[lo : lo+len(vals)]
			for o, d := range vals {
				if float64(d) <= eps {
					ds[o]++
					cnt++
				}
			}
		})
		deg[i] += cnt
	}
	return deg
}

// eachEpsPair calls fn(i, j) for every pair i < j with d(i, j) ≤ eps,
// in storage order, restricted to rows i with rows[i] and columns j
// with cols[j] where those filters are non-nil. A streaming matrix is
// read through StreamSuffix; any other Matrix (test fakes) through
// Dist, whose float64 values it compares unquantized, as the streamed
// values compare float64(d). A branch per value is cheaper here than a
// branch-free gather of the ε-columns: a pool is sorted by value, so a
// row's ε-neighbors sit in runs the branch predictor follows.
func eachEpsPair(m Matrix, eps float64, rows, cols []bool, fn func(i, j int)) {
	n := m.Len()
	s, streams := m.(SuffixStreamer)
	for i := 0; i < n-1; i++ {
		if rows != nil && !rows[i] {
			continue
		}
		if !streams {
			for j := i + 1; j < n; j++ {
				if (cols == nil || cols[j]) && m.Dist(i, j) <= eps {
					fn(i, j)
				}
			}
			continue
		}
		s.StreamSuffix(i, func(lo int, vals []float32) {
			for o, d := range vals {
				if float64(d) <= eps && (cols == nil || cols[lo+o]) {
					fn(i, lo+o)
				}
			}
		})
	}
}

// Clusters groups point indices by cluster label. The returned slice has
// NumClusters entries; noise points are returned separately.
func (r *Result) Clusters() (clusters [][]int, noise []int) {
	clusters = make([][]int, r.NumClusters)
	for i, lab := range r.Labels {
		if lab == Noise {
			noise = append(noise, i)
			continue
		}
		clusters[lab] = append(clusters[lab], i)
	}
	return clusters, noise
}

// LargestClusterShare returns the fraction of non-noise points contained
// in the most populous cluster, and the total count of non-noise points.
// A share of 0 is returned when everything is noise.
//
// Section III-E's guard re-runs ε selection when this share exceeds 0.6.
func (r *Result) LargestClusterShare() (share float64, nonNoise int) {
	if r.NumClusters == 0 {
		return 0, 0
	}
	counts := make([]int, r.NumClusters)
	for _, lab := range r.Labels {
		if lab != Noise {
			counts[lab]++
			nonNoise++
		}
	}
	if nonNoise == 0 {
		return 0, 0
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	return float64(max) / float64(nonNoise), nonNoise
}

// DenseMatrix is a Matrix backed by a flat, symmetric slice. Entries
// are stored as float32: dissimilarities live in [0, 1] and heuristic
// segmentation can produce tens of thousands of unique segments, where
// float64 storage would double the footprint for no analytic benefit.
type DenseMatrix struct {
	n    int
	data []float32 // row-major n×n
}

var _ Matrix = (*DenseMatrix)(nil)

// NewDenseMatrix allocates an n×n zero matrix. It fails with
// ErrMatrixSize instead of panicking when n² elements overflow the
// representable range.
func NewDenseMatrix(n int) (*DenseMatrix, error) {
	if _, err := DenseBytes(n); err != nil {
		return nil, err
	}
	return &DenseMatrix{n: n, data: make([]float32, n*n)}, nil
}

// Len returns the number of points.
func (d *DenseMatrix) Len() int { return d.n }

// The row offsets below are hoisted out of the index expressions: the
// product i*n cannot wrap because MatrixBytes already rejected any n
// with n*n > maxElems at allocation time, and len(data) == n*n bounds
// every index.

// Dist returns the stored dissimilarity between i and j.
func (d *DenseMatrix) Dist(i, j int) float64 {
	row := i * d.n
	return float64(d.data[row+j])
}

// Set stores a symmetric dissimilarity between i and j.
func (d *DenseMatrix) Set(i, j int, v float64) {
	q := Quantize(v)
	ri, rj := i*d.n, j*d.n
	d.data[ri+j] = q
	d.data[rj+i] = q
}

// Row returns row i as a raw float32 slice, aliasing the matrix storage.
// Hot scans (k-NN selection) iterate it directly instead of paying one
// bounds-checked Dist call per entry. Callers must not mutate it.
func (d *DenseMatrix) Row(i int) []float32 {
	lo := i * d.n
	return d.data[lo : lo+d.n]
}
