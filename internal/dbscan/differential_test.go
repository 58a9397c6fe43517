package dbscan_test

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"protoclust/internal/canberra"
	"protoclust/internal/dbscan"
	"protoclust/internal/dissim/tilestore"
	"protoclust/internal/oracle"
)

// randomMatrix builds a random symmetric dissimilarity matrix whose
// points fall into a few loose clumps, so DBSCAN has real structure to
// find at typical radii.
func randomMatrix(rng *rand.Rand, n int) *dbscan.DenseMatrix {
	// 1-D positions: clump centers at 0, 1, 2, ... with jitter, plus a
	// few far-out stragglers that should end up noise.
	pos := make([]float64, n)
	for i := range pos {
		switch rng.Intn(5) {
		case 4:
			pos[i] = 10 + rng.Float64()*10 // straggler
		default:
			pos[i] = float64(rng.Intn(3)) + rng.Float64()*0.2
		}
	}
	m, err := dbscan.NewDenseMatrix(n)
	if err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, math.Abs(pos[i]-pos[j]))
		}
	}
	return m
}

// checkAgainstOracles runs production DBSCAN on m and demands the
// labels of both references: the seed-queue expansion and the
// structural union-find formulation, plus the implied cluster count.
func checkAgainstOracles(t *testing.T, what string, m dbscan.Matrix, eps float64, minPts int) {
	t.Helper()
	got, err := dbscan.Cluster(m, eps, minPts)
	if err != nil {
		t.Fatalf("%s: Cluster: %v", what, err)
	}
	n := m.Len()
	for name, want := range map[string][]int{
		"expansion":  oracle.DBSCANExpand(n, m.Dist, eps, minPts),
		"components": oracle.DBSCAN(n, m.Dist, eps, minPts),
	} {
		if !slices.Equal(got.Labels, want) {
			t.Fatalf("%s (n=%d eps=%v minPts=%d): labels %v, %s oracle %v",
				what, n, eps, minPts, got.Labels, name, want)
		}
	}
	clusters := 0
	for _, l := range got.Labels {
		clusters = max(clusters, l+1)
	}
	if got.NumClusters != clusters {
		t.Fatalf("%s: NumClusters = %d, labels imply %d", what, got.NumClusters, clusters)
	}
}

// TestClusterMatchesOracle runs the production component-pass DBSCAN
// and both oracles on randomized inputs and demands label-identical
// output. Equality with the seed-queue expansion is the claim the
// component formulation rests on; equality with the structural oracle
// pins the numbering (components by smallest core index, borders to
// the lowest reachable cluster).
func TestClusterMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(40)
		m := randomMatrix(rng, n)
		eps := 0.05 + rng.Float64()*0.8
		minPts := 1 + rng.Intn(6)
		checkAgainstOracles(t, "random", m, eps, minPts)
	}
}

// tileEdge is the tile edge of the test tiled backend: small enough
// that the shapes below span several tiles, including a short last one.
const tileEdge = 4

// backends stores the symmetric dist (dist(i, i) = 0) on every matrix
// backend: dense, condensed, and tiled under a one-tile budget, so that
// nearly every tile access evicts and reloads from the spill file. The
// tiled store is seeded through Ingest, the way a distributed
// coordinator assembles worker tiles, so it serves arbitrary distances
// rather than Canberra values.
func backends(t *testing.T, n int, dist func(i, j int) float64) map[string]dbscan.Matrix {
	t.Helper()
	dense, err := dbscan.NewDenseMatrix(n)
	if err != nil {
		t.Fatal(err)
	}
	cond, err := dbscan.NewCondensedMatrix(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dense.Set(i, j, dist(i, j))
			cond.Set(i, j, dist(i, j))
		}
	}
	views := make([]canberra.View, n)
	for i := range views {
		views[i] = canberra.View{0} // never computed: every tile is ingested
	}
	tiled, err := tilestore.New(context.Background(), views, tilestore.Config{
		TileSize:    tileEdge,
		BudgetBytes: 1, // clamped up to exactly one tile
		SpillDir:    t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := tiled.Close(); err != nil {
			t.Errorf("tiled Close: %v", err)
		}
	})
	nb := (n + tileEdge - 1) / tileEdge
	for bi := 0; bi < nb; bi++ {
		for bj := bi; bj < nb; bj++ {
			var data []float32
			for i := bi * tileEdge; i < min((bi+1)*tileEdge, n); i++ {
				for j := bj * tileEdge; j < min((bj+1)*tileEdge, n); j++ {
					data = append(data, dbscan.Quantize(dense.Dist(i, j)))
				}
			}
			if err := tiled.Ingest(bi, bj, data); err != nil {
				t.Fatal(err)
			}
		}
	}
	return map[string]dbscan.Matrix{"dense": dense, "condensed": cond, "tiled": tiled}
}

// line returns the distance function of points on a line.
func line(pos ...float64) (int, func(i, j int) float64) {
	return len(pos), func(i, j int) float64 { return math.Abs(pos[i] - pos[j]) }
}

// permuted relabels a distance function by perm (point i of the result
// is point perm[i] of dist), so one shape is checked at several index
// orders: which cluster is numbered first, and which core reaches a
// border first, both depend on it.
func permuted(perm []int, dist func(i, j int) float64) func(i, j int) float64 {
	return func(i, j int) float64 { return dist(perm[i], perm[j]) }
}

// TestClusterShapesOnEveryBackend runs the shapes the component
// formulation must get right on every backend, each at three index
// orders, against both oracles.
func TestClusterShapesOnEveryBackend(t *testing.T) {
	// A point exactly at the quantized radius is a neighbor; the next
	// float32 above it is not.
	epsQ := float64(dbscan.Quantize(0.3))
	above := float64(math.Nextafter32(dbscan.Quantize(0.3), 1))

	type shape struct {
		name   string
		n      int
		dist   func(i, j int) float64
		eps    float64
		minPts int
	}
	var shapes []shape
	add := func(name string, eps float64, minPts int, n int, dist func(i, j int) float64) {
		shapes = append(shapes, shape{name, n, dist, eps, minPts})
	}

	// Point 5 (0.5) is within ε of a core of each cluster but has only
	// two neighbors besides itself: a border both clusters reach.
	n, d := line(0, 0.05, 0.1, 0.15, 0.2, 0.5, 0.8, 0.85, 0.9, 0.95, 1.0)
	add("border-between-two-clusters", 0.31, 4, n, d)

	// A chain at spacing exactly ε (after quantization), and one point
	// one float32 step further out from its end.
	chain := func(i, j int) float64 {
		lo, hi := min(i, j), max(i, j)
		switch {
		case lo == hi:
			return 0
		case hi == 6 && lo == 5:
			return above
		case hi == 6:
			return 1
		}
		return 0.3 * float64(hi-lo)
	}
	add("distance-equals-eps", epsQ, 2, 7, chain)
	add("distance-equals-eps-minpts3", epsQ, 3, 7, chain)

	n, d = line(0, 0.5, 0.55, 3, 7, 7.05, 9)
	add("minpts-1", 0.1, 1, n, d)

	n, d = line(0, 0, 0, 1, 1, 5, 5, 5, 5)
	add("duplicates-minpts2", 0.1, 2, n, d)
	add("duplicates-minpts3", 0.1, 3, n, d)
	add("duplicates-minpts4", 0.1, 4, n, d)

	n, d = line(0, 10, 20, 30, 40, 50)
	add("all-noise", 1, 2, n, d)

	for _, s := range shapes {
		identity := make([]int, s.n)
		for i := range identity {
			identity[i] = i
		}
		reversed := slices.Clone(identity)
		slices.Reverse(reversed)
		// Middle point first, then the rest in order: for the border
		// shape this puts the border at index 0.
		middle := append([]int{s.n / 2}, slices.Delete(slices.Clone(identity), s.n/2, s.n/2+1)...)
		for _, perm := range [][]int{identity, reversed, middle} {
			for name, m := range backends(t, s.n, permuted(perm, s.dist)) {
				checkAgainstOracles(t, s.name+"/"+name, m, s.eps, s.minPts)
			}
		}
	}
}

// FuzzClusterMatchesOracle checks production DBSCAN against both
// oracles on fuzzed point sets. Points are bytes on a line, at
// distance |a−b|/255, and ε is one of those distances quantized, so
// pairs at exactly ε are common. The dense and condensed backends are
// checked; the tiled one shares the suffix contract and is covered by
// TestClusterShapesOnEveryBackend.
func FuzzClusterMatchesOracle(f *testing.F) {
	f.Add([]byte{0, 13, 26, 128, 141, 154, 255}, uint8(13), uint8(2))
	f.Add([]byte{0, 5, 10, 15, 20, 60, 100, 105, 110, 115, 120}, uint8(40), uint8(4))
	f.Add([]byte{7, 7, 7, 30, 30, 200}, uint8(1), uint8(3))
	f.Add([]byte{0, 40, 80, 120, 160, 200, 240}, uint8(10), uint8(0))
	f.Fuzz(func(t *testing.T, pts []byte, e, mp uint8) {
		if len(pts) == 0 {
			return
		}
		pts = pts[:min(len(pts), 48)]
		eps := float64(dbscan.Quantize(float64(e%64+1) / 255))
		minPts := int(mp%8) + 1
		n := len(pts)
		dense, err := dbscan.NewDenseMatrix(n)
		if err != nil {
			t.Fatal(err)
		}
		cond, err := dbscan.NewCondensedMatrix(n)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				d := math.Abs(float64(pts[i])-float64(pts[j])) / 255
				dense.Set(i, j, d)
				cond.Set(i, j, d)
			}
		}
		checkAgainstOracles(t, "dense", dense, eps, minPts)
		checkAgainstOracles(t, "condensed", cond, eps, minPts)
	})
}

// TestClusterDensityInvariants checks DBSCAN's defining properties
// directly on the production output: noise points are never core, every
// cluster contains at least one core point, and no two core points of
// different clusters lie within ε of each other.
func TestClusterDensityInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(30)
		m := randomMatrix(rng, n)
		eps := 0.05 + rng.Float64()*0.8
		minPts := 1 + rng.Intn(5)
		res, err := dbscan.Cluster(m, eps, minPts)
		if err != nil {
			t.Fatal(err)
		}
		degree := func(p int) int {
			c := 0
			for q := 0; q < n; q++ {
				if m.Dist(p, q) <= eps {
					c++
				}
			}
			return c
		}
		hasCore := make(map[int]bool)
		for p := 0; p < n; p++ {
			core := degree(p) >= minPts
			if res.Labels[p] == dbscan.Noise && core {
				t.Fatalf("trial %d: core point %d labeled noise", trial, p)
			}
			if core {
				hasCore[res.Labels[p]] = true
			}
		}
		for c := 0; c < res.NumClusters; c++ {
			if !hasCore[c] {
				t.Fatalf("trial %d: cluster %d has no core point", trial, c)
			}
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				if degree(p) >= minPts && degree(q) >= minPts &&
					m.Dist(p, q) <= eps && res.Labels[p] != res.Labels[q] {
					t.Fatalf("trial %d: ε-close cores %d,%d in different clusters %d,%d",
						trial, p, q, res.Labels[p], res.Labels[q])
				}
			}
		}
	}
}
