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
// row suffixes in storage order (Matrix.StreamSuffix) and O(n) memory
// per worker:
//
//  1. ε-degrees, self included, mark the core points. ClusterTable
//     reads them from a k-NN table instead, with no walk.
//  2. Union-find over the core–core ε-pairs joins them into components,
//     numbered by their smallest core index.
//  3. Each non-core point takes the smallest id among the components of
//     its ε-adjacent core points, or stays Noise. One walk serves both
//     directions: core rows offer their id to the candidate columns,
//     and candidate rows take the smallest id among their core columns.
//
// Each pass is one Walk, the banded walk this package shares with the
// ε auto-configuration's k-NN table (dissim.Matrix.KNNTable): the rows
// are cut into bands of about equal pair counts, which up to GOMAXPROCS
// workers, the calling goroutine among them, claim dynamically, DBSCAN
// from the first band and the k-NN table from the last. Every worker
// keeps its own accumulator — ε-degree counts, a union-find forest,
// border proposals, k-NN heaps — and the merge is exact (counts summed,
// forests joined by smaller-root-wins unions, proposals by min, heaps
// by the bounded selection), so the result does not depend on the
// split. Small matrices run inline on the calling goroutine.
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
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"protoclust/internal/vecmath"
)

// Noise is the label assigned to points that belong to no cluster.
const Noise = -1

// Matrix is the read contract of every dissimilarity matrix: n points,
// symmetric Dist with Dist(i,i) == 0, and the storage-order suffix
// stream the full-matrix passes (DBSCAN, refinement statistics, k-NN,
// the silhouette, the smallest positive distance) walk.
type Matrix interface {
	// Len returns the number of points.
	Len() int
	// Dist returns the dissimilarity between points i and j.
	Dist(i, j int) float64
	// StreamSuffix invokes fn with consecutive spans of row i's suffix —
	// columns j > i, in ascending order, as Quantize'd values — jointly
	// covering [i+1, n) exactly once; the last row yields nothing.
	// Walking i = 0…n−1 therefore visits every unordered pair once, in
	// lexicographic (i, j) order, reading a condensed triangle front to
	// back instead of gathering each row's prefix with one cache miss
	// per element. Spans alias storage or a reused buffer: consumers
	// must not mutate them or retain them past fn's return.
	StreamSuffix(i int, fn func(lo int, vals []float32))
}

// Result holds a clustering outcome.
type Result struct {
	// Labels maps each point index to its cluster ID (0-based) or Noise.
	Labels []int
	// NumClusters is the number of clusters found (noise excluded).
	NumClusters int
}

// Errors returned by Cluster and ClusterTable.
var (
	ErrEmpty     = errors.New("dbscan: empty matrix")
	ErrBadEps    = errors.New("dbscan: eps must be positive")
	ErrBadMinPts = errors.New("dbscan: minPts must be at least 1")
	ErrBadTable  = errors.New("dbscan: k-NN table does not fit the matrix")
)

// Cluster runs DBSCAN with radius eps and density threshold minPts
// (minimum neighborhood size, including the point itself, for a point to
// be a core point). The clustering is deterministic and label-identical
// to the expansion seeded in index order (see the package doc), however
// many workers the walk runs on.
func Cluster(m Matrix, eps float64, minPts int) (*Result, error) {
	w, err := newClusterWalk(m, eps, minPts)
	if err != nil {
		return nil, err
	}
	return cluster(w, eps, minPts), nil
}

// ClusterTable is Cluster with pass 1 read from a k-NN table of m
// instead of walked: table[k][i] is point i's distance to its (k+1)-th
// nearest other point, as float64 of the stored float32 value, which is
// what the ε auto-configuration's k-NN table holds. Point i has at
// least minPts−1 ε-neighbours besides itself, and is core, iff
// table[minPts−2][i] ≤ eps, and it is a border candidate iff it is not
// core and table[0][i] ≤ eps: the comparison pass 1 makes on the same
// values, so the labels equal Cluster's. The table needs at least
// minPts−1 rows (one for minPts = 1), each of length m.Len(); any other
// table is rejected with ErrBadTable.
func ClusterTable(m Matrix, table [][]float64, eps float64, minPts int) (*Result, error) {
	w, err := newClusterWalk(m, eps, minPts)
	if err != nil {
		return nil, err
	}
	if len(table) < max(1, minPts-1) {
		return nil, fmt.Errorf("%w: %d rows for minPts %d", ErrBadTable, len(table), minPts)
	}
	for k, row := range table {
		if len(row) != w.n {
			return nil, fmt.Errorf("%w: row %d has %d points, the matrix %d", ErrBadTable, k, len(row), w.n)
		}
	}
	core, cand := make([]bool, w.n), make([]bool, w.n)
	for i := range core {
		core[i] = minPts == 1 || table[minPts-2][i] <= eps
		cand[i] = !core[i] && table[0][i] <= eps
	}
	return clusterFlags(w, eps, core, cand), nil
}

// newClusterWalk checks the arguments of Cluster and ClusterTable and
// returns the banded walk over m their passes run on.
func newClusterWalk(m Matrix, eps float64, minPts int) (*walk, error) {
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
	return &walk{Walk: NewWalk(n), stream: m.StreamSuffix}, nil
}

// cluster runs the three passes of the package doc on one banded walk.
func cluster(w *walk, eps float64, minPts int) *Result {
	// Pass 1: ε-degrees. Every point is its own neighbor (Dist(i, i) =
	// 0 ≤ eps), so minPts = 1 makes every point core without a pass.
	core := make([]bool, w.n)
	cand := make([]bool, w.n) // non-core with an ε-neighbor: a border candidate
	if minPts == 1 {
		for i := range core {
			core[i] = true
		}
	} else {
		for i, d := range w.degrees(eps) {
			core[i] = d+1 >= minPts
			cand[i] = !core[i] && d > 0
		}
	}
	return clusterFlags(w, eps, core, cand)
}

// clusterFlags runs passes 2 and 3 of the package doc from pass 1's
// flags: the core points, and the border candidates, non-core points
// with an ε-neighbour.
func clusterFlags(w *walk, eps float64, core, cand []bool) *Result {
	// Pass 2: union-find over core–core ε-pairs. Every root is the
	// smallest index of its component, so numbering roots in index
	// order numbers clusters by their smallest core point.
	parent := w.components(eps, core)
	labels := make([]int, w.n)
	clusters := 0
	for p := range labels {
		switch {
		case !core[p]:
			labels[p] = Noise
		case find(parent, p) == p:
			labels[p] = clusters
			clusters++
		default:
			labels[p] = labels[find(parent, p)] // the root precedes p
		}
	}

	// Pass 3: each border candidate joins the smallest cluster among its
	// ε-adjacent core points.
	if clusters > 0 && slices.Contains(cand, true) {
		w.borders(eps, core, cand, labels)
	}
	return &Result{Labels: labels, NumClusters: clusters}
}

// bandPairs is the pair count at which a Walk closes a band of rows:
// small enough that a band takes well under a millisecond, so a
// preempted worker cannot hold up the end of a pass, and large enough
// that claiming bands costs nothing next to reading them.
const bandPairs = 1 << 15

// inlinePairs is the triangle size below which a Walk runs on the
// calling goroutine alone: starting workers costs more than they save.
const inlinePairs = 1 << 16

// Walk is the banded walk over the rows of an n-point triangle that
// every full pass of this package and the k-NN table run on. Rows are
// cut into bands of about equal pair counts, which up to Workers
// goroutines, the calling one included, claim dynamically. A pass keeps
// one accumulator per worker and merges them exactly, so its result
// does not depend on which worker read which band.
type Walk struct {
	n       int
	bands   []int // band b holds rows [bands[b], bands[b+1])
	workers int
}

// NewWalk returns the walk over n points for GOMAXPROCS workers, in
// bands of about bandPairs pairs; a triangle of fewer than inlinePairs
// pairs is one band on the calling goroutine.
func NewWalk(n int) *Walk {
	workers := runtime.GOMAXPROCS(0)
	if vecmath.CheckedTriNum(n) < inlinePairs {
		workers = 1
	}
	return newWalk(n, workers, bandPairs)
}

// newWalk cuts n rows into bands of about band pairs each for up to
// workers goroutines; one worker walks all rows as a single band.
func newWalk(n, workers, band int) *Walk {
	w := &Walk{n: n, bands: []int{0}}
	if workers > 1 {
		acc := 0
		for i := 0; i < n-1; i++ {
			if acc += n - 1 - i; acc >= band {
				w.bands = append(w.bands, i+1)
				acc = 0
			}
		}
	}
	if w.bands[len(w.bands)-1] != n {
		w.bands = append(w.bands, n)
	}
	w.workers = max(1, min(workers, len(w.bands)-1))
	return w
}

// Workers returns the number of goroutines Run visits bands on.
func (w *Walk) Workers() int { return w.workers }

// Run calls visit(worker, lo, hi) once for every band of rows [lo, hi),
// claiming bands from the first to the last, where worker in
// [0, Workers()) names the goroutine visiting it (0 is the caller):
// each worker is used by one goroutine only, so visit may keep
// per-worker state indexed by it without locking. Run returns once
// every band has been visited. DBSCAN's passes use this order: with
// the bands claimed last first, fixed-ε analyses ran about 5 % slower
// on two cores, most likely because smaller-root-wins union-find trees
// grow deeper when larger rows join first.
func (w *Walk) Run(visit func(worker, lo, hi int)) { w.run(visit, false) }

// RunDown is Run claiming bands from the last to the first, the order
// the k-NN table fills its heaps in nearest first.
func (w *Walk) RunDown(visit func(worker, lo, hi int)) { w.run(visit, true) }

func (w *Walk) run(visit func(worker, lo, hi int), down bool) {
	nb := len(w.bands) - 1
	var next atomic.Int64
	claim := func(k int) {
		for c := int(next.Add(1) - 1); c < nb; c = int(next.Add(1) - 1) {
			b := c
			if down {
				b = nb - 1 - c
			}
			visit(k, w.bands[b], w.bands[b+1])
		}
	}
	var wg sync.WaitGroup
	for k := 1; k < w.workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim(k)
		}()
	}
	claim(0)
	wg.Wait()
}

// walk is a Walk over a matrix's row suffixes: the three passes of
// Cluster.
type walk struct {
	*Walk
	stream func(i int, fn func(lo int, vals []float32))
}

// degrees returns every point's number of ε-neighbors, itself
// excluded: per-worker counts, summed.
func (w *walk) degrees(eps float64) []int {
	degs := make([][]int, w.workers)
	w.Run(func(k, lo, hi int) {
		if degs[k] == nil {
			degs[k] = make([]int, w.n)
		}
		deg, cnt := degs[k], 0
		count := func(lo int, vals []float32) {
			ds := deg[lo : lo+len(vals)]
			for o, d := range vals {
				if float64(d) <= eps {
					ds[o]++
					cnt++
				}
			}
		}
		for i := lo; i < hi; i++ {
			cnt = 0
			w.stream(i, count)
			deg[i] += cnt
		}
	})
	var sum []int
	for _, deg := range degs {
		switch {
		case deg == nil:
		case sum == nil:
			sum = deg
		default:
			for i, d := range deg {
				sum[i] += d
			}
		}
	}
	return sum
}

// components returns a union-find forest over the core–core ε-pairs
// whose roots are the smallest index of each component. Every worker
// builds its own forest from the pairs of its bands; replaying each
// forest's edges x → parent[x], which join the same points as the
// pairs that built it, into one forest by smaller-root-wins unions
// yields the components of all pairs.
func (w *walk) components(eps float64, core []bool) []int {
	forests := make([][]int, w.workers)
	w.Run(func(k, lo, hi int) {
		if forests[k] == nil {
			forests[k] = identity(w.n)
		}
		// The walk keeps row i's root in ri, so each pair costs one find.
		parent, ri := forests[k], 0
		join := func(lo int, vals []float32) {
			for o, d := range vals {
				if float64(d) <= eps && core[lo+o] {
					switch rj := find(parent, lo+o); {
					case rj < ri:
						parent[ri], ri = rj, rj
					case ri < rj:
						parent[rj] = ri
					}
				}
			}
		}
		for i := lo; i < hi; i++ {
			if core[i] {
				ri = find(parent, i)
				w.stream(i, join)
			}
		}
	})
	var merged []int
	for _, parent := range forests {
		switch {
		case parent == nil:
		case merged == nil:
			merged = parent
		default:
			for x, p := range parent {
				if p == x {
					continue
				}
				switch rx, rp := find(merged, x), find(merged, p); {
				case rx < rp:
					merged[rp] = rx
				case rp < rx:
					merged[rx] = rp
				}
			}
		}
	}
	return merged
}

// identity returns the forest of n singleton sets.
func identity(n int) []int {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	return parent
}

// find returns x's root, halving the path on the way.
func find(parent []int, x int) int {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// borders gives each border candidate the smallest cluster id among its
// ε-adjacent core points, in one walk: a core row offers its id to the
// candidates among its columns, and a candidate row takes the smallest
// id among its core columns. Per-worker proposals are merged by min.
func (w *walk) borders(eps float64, core, cand []bool, labels []int) {
	props := make([][]int, w.workers)
	w.Run(func(k, lo, hi int) {
		if props[k] == nil {
			props[k] = make([]int, w.n)
			for b := range props[k] {
				props[k][b] = Noise
			}
		}
		prop, id := props[k], 0
		offer := func(lo int, vals []float32) {
			for o, d := range vals {
				if b := lo + o; float64(d) <= eps && cand[b] && (prop[b] == Noise || id < prop[b]) {
					prop[b] = id
				}
			}
		}
		take := func(lo int, vals []float32) {
			for o, d := range vals {
				if c := lo + o; float64(d) <= eps && core[c] && (id == Noise || labels[c] < id) {
					id = labels[c]
				}
			}
		}
		for i := lo; i < hi; i++ {
			switch {
			case core[i]:
				id = labels[i]
				w.stream(i, offer)
			case cand[i]:
				id = prop[i]
				w.stream(i, take)
				prop[i] = id
			}
		}
	})
	for _, prop := range props {
		for b, id := range prop {
			if id != Noise && (labels[b] == Noise || id < labels[b]) {
				labels[b] = id
			}
		}
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
