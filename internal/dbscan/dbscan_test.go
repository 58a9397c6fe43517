package dbscan

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// points lays 1-D points out as a condensed matrix: the distance
// between points i and j is |xs[i] − xs[j]|, quantized as every backend
// stores it.
func points(xs ...float64) *CondensedMatrix {
	m, err := NewCondensedMatrix(len(xs))
	if err != nil {
		panic(err)
	}
	for i := range xs {
		for j := i + 1; j < len(xs); j++ {
			m.Set(i, j, math.Abs(xs[i]-xs[j]))
		}
	}
	return m
}

func TestClusterErrors(t *testing.T) {
	m := points(1, 2)
	if _, err := Cluster(points(), 1, 1); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty: err = %v", err)
	}
	if _, err := Cluster(m, 0, 1); !errors.Is(err, ErrBadEps) {
		t.Errorf("eps=0: err = %v", err)
	}
	if _, err := Cluster(m, 1, 0); !errors.Is(err, ErrBadMinPts) {
		t.Errorf("minPts=0: err = %v", err)
	}
}

// TestClusterTableErrors checks that ClusterTable rejects what Cluster
// rejects, and a k-NN table that does not fit: fewer than minPts−1
// rows (or none for minPts = 1), or a row whose length is not the
// matrix's, ragged or not.
func TestClusterTableErrors(t *testing.T) {
	m := points(1, 2, 3)
	full := [][]float64{{1, 1, 1}, {2, 1, 2}}
	if _, err := ClusterTable(points(), [][]float64{{}}, 1, 1); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty: err = %v", err)
	}
	if _, err := ClusterTable(m, full, math.NaN(), 2); !errors.Is(err, ErrBadEps) {
		t.Errorf("eps=NaN: err = %v", err)
	}
	if _, err := ClusterTable(m, full, 1, 0); !errors.Is(err, ErrBadMinPts) {
		t.Errorf("minPts=0: err = %v", err)
	}
	for name, c := range map[string]struct {
		table  [][]float64
		minPts int
	}{
		"no rows, minPts 1":  {nil, 1},
		"one row, minPts 3":  {full[:1], 3},
		"two rows, minPts 4": {full, 4},
		"short rows":         {[][]float64{{1, 1}, {2, 1}}, 2},
		"long row":           {[][]float64{{1, 1, 1, 1}}, 2},
		"ragged":             {[][]float64{{1, 1, 1}, {2, 1}}, 2},
	} {
		if _, err := ClusterTable(m, c.table, 1, c.minPts); !errors.Is(err, ErrBadTable) {
			t.Errorf("%s: err = %v, want ErrBadTable", name, err)
		}
	}
	if _, err := ClusterTable(m, full, 1, 3); err != nil {
		t.Errorf("minPts − 1 = len(table): err = %v", err)
	}
}

// TestClusterRejectsNaNEps pins that a NaN radius is an error: every
// comparison with NaN is false, so accepting it would label every point
// Noise without complaint.
func TestClusterRejectsNaNEps(t *testing.T) {
	res, err := Cluster(points(1, 2, 3), math.NaN(), 1)
	if !errors.Is(err, ErrBadEps) {
		t.Fatalf("eps=NaN: err = %v, result %+v; want ErrBadEps", err, res)
	}
}

func TestTwoWellSeparatedClusters(t *testing.T) {
	pts := points(0, 0.1, 0.2, 10, 10.1, 10.2)
	res, err := Cluster(pts, 0.5, 2)
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	if res.NumClusters != 2 {
		t.Fatalf("NumClusters = %d, want 2", res.NumClusters)
	}
	if res.Labels[0] != res.Labels[1] || res.Labels[1] != res.Labels[2] {
		t.Errorf("first group split: %v", res.Labels)
	}
	if res.Labels[3] != res.Labels[4] || res.Labels[4] != res.Labels[5] {
		t.Errorf("second group split: %v", res.Labels)
	}
	if res.Labels[0] == res.Labels[3] {
		t.Errorf("groups merged: %v", res.Labels)
	}
}

func TestNoisePoint(t *testing.T) {
	pts := points(0, 0.1, 0.2, 100)
	res, err := Cluster(pts, 0.5, 2)
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	if res.Labels[3] != Noise {
		t.Errorf("isolated point label = %d, want Noise", res.Labels[3])
	}
	if res.NumClusters != 1 {
		t.Errorf("NumClusters = %d, want 1", res.NumClusters)
	}
}

func TestBorderPointJoinsCluster(t *testing.T) {
	// 0, 0.1, 0.2 form a dense core; 0.6 is within eps of 0.2 only —
	// a border point that must join the cluster, not stay noise.
	pts := points(0, 0.1, 0.2, 0.6)
	res, err := Cluster(pts, 0.45, 3)
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	if res.Labels[3] == Noise {
		t.Errorf("border point classified as noise: %v", res.Labels)
	}
}

func TestAllNoise(t *testing.T) {
	pts := points(0, 10, 20, 30)
	res, err := Cluster(pts, 1, 2)
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	if res.NumClusters != 0 {
		t.Errorf("NumClusters = %d, want 0", res.NumClusters)
	}
	share, nonNoise := res.LargestClusterShare()
	if share != 0 || nonNoise != 0 {
		t.Errorf("share = %v/%d, want 0/0", share, nonNoise)
	}
}

func TestMinPtsOneMakesEverythingCore(t *testing.T) {
	pts := points(0, 100)
	res, err := Cluster(pts, 1, 1)
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	if res.NumClusters != 2 {
		t.Errorf("NumClusters = %d, want 2 singleton clusters", res.NumClusters)
	}
}

func TestChainedDensityConnectivity(t *testing.T) {
	// A chain of points each within eps of the next should form one
	// cluster through density reachability.
	xs := make([]float64, 20)
	for i := range xs {
		xs[i] = float64(i) * 0.4
	}
	pts := points(xs...)
	res, err := Cluster(pts, 0.5, 2)
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	if res.NumClusters != 1 {
		t.Errorf("NumClusters = %d, want 1 (chain)", res.NumClusters)
	}
}

func TestClustersAccessor(t *testing.T) {
	pts := points(0, 0.1, 5, 5.1, 99)
	res, err := Cluster(pts, 0.5, 2)
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	clusters, noise := res.Clusters()
	if len(clusters) != 2 {
		t.Fatalf("len(clusters) = %d, want 2", len(clusters))
	}
	if len(noise) != 1 || noise[0] != 4 {
		t.Errorf("noise = %v, want [4]", noise)
	}
	total := len(noise)
	for _, c := range clusters {
		total += len(c)
	}
	if total != pts.Len() {
		t.Errorf("clusters+noise account for %d points, want %d", total, pts.Len())
	}
}

func TestLargestClusterShare(t *testing.T) {
	pts := points(0, 0.1, 0.2, 0.3, 10, 10.1)
	res, err := Cluster(pts, 0.5, 2)
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	share, nonNoise := res.LargestClusterShare()
	if nonNoise != 6 {
		t.Errorf("nonNoise = %d, want 6", nonNoise)
	}
	if math.Abs(share-4.0/6.0) > 1e-12 {
		t.Errorf("share = %v, want 4/6", share)
	}
}

func TestCondensedMatrix(t *testing.T) {
	m, err := NewCondensedMatrix(3)
	if err != nil {
		t.Fatalf("NewCondensedMatrix: %v", err)
	}
	m.Set(0, 1, 0.5)
	m.Set(2, 1, 0.25)
	m.Set(2, 2, 0.75) // the diagonal is implicitly zero
	if m.Dist(1, 0) != 0.5 {
		t.Errorf("Dist(1,0) = %v, want 0.5 (symmetry)", m.Dist(1, 0))
	}
	if m.Dist(2, 1) != 0.25 {
		t.Errorf("Dist(2,1) = %v, want 0.25", m.Dist(2, 1))
	}
	if m.Dist(2, 2) != 0 {
		t.Errorf("Dist(2,2) = %v, want 0", m.Dist(2, 2))
	}
	if m.Len() != 3 {
		t.Errorf("Len = %d, want 3", m.Len())
	}
}

// TestCondensedPairOutOfRangePanics pins the condensed range check: a
// pair outside 0 ≤ i < j < n panics instead of reading a neighbouring
// row's entry through the per-row offset table.
func TestCondensedPairOutOfRangePanics(t *testing.T) {
	m, err := NewCondensedMatrix(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][2]int{{0, 4}, {-1, 2}, {2, -1}, {3, 5}, {-2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Dist(%d, %d) did not panic", p[0], p[1])
				}
			}()
			m.Dist(p[0], p[1])
		}()
	}
}

// TestSetSpan pins the condensed row-span write: a span lands at
// (i, lo…) and reads back from both sides, and a span that starts on or
// before the diagonal or runs past n panics instead of writing into a
// neighbouring row.
func TestSetSpan(t *testing.T) {
	m, err := NewCondensedMatrix(4)
	if err != nil {
		t.Fatal(err)
	}
	m.SetSpan(1, 2, []float32{0.25, 0.5})
	m.SetSpan(3, 4, nil) // the last row's empty suffix
	for _, c := range [][3]float64{{1, 2, 0.25}, {2, 1, 0.25}, {1, 3, 0.5}, {3, 1, 0.5}, {0, 1, 0}} {
		if got := m.Dist(int(c[0]), int(c[1])); got != c[2] {
			t.Errorf("Dist(%v, %v) = %v, want %v", c[0], c[1], got, c[2])
		}
	}
	for _, bad := range [][3]int{{1, 1, 1}, {2, 1, 1}, {0, 2, 3}, {-1, 0, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetSpan(%d, %d, %d values) did not panic", bad[0], bad[1], bad[2])
				}
			}()
			m.SetSpan(bad[0], bad[1], make([]float32, bad[2]))
		}()
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = rng.Float64() * 10
	}
	pts := points(xs...)
	first, err := Cluster(pts, 0.3, 3)
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	for run := 0; run < 3; run++ {
		again, err := Cluster(pts, 0.3, 3)
		if err != nil {
			t.Fatalf("Cluster: %v", err)
		}
		for i := range first.Labels {
			if first.Labels[i] != again.Labels[i] {
				t.Fatalf("run %d differs at point %d: %d vs %d", run, i, first.Labels[i], again.Labels[i])
			}
		}
	}
}

// Property: every point is either noise or has a label in
// [0, NumClusters); every cluster label is used at least once.
func TestLabelPartitionProperty(t *testing.T) {
	f := func(seed int64, epsRaw float64, minPtsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 5
		}
		pts := points(xs...)
		eps := math.Mod(math.Abs(epsRaw), 2) + 0.01
		minPts := int(minPtsRaw)%5 + 1
		res, err := Cluster(pts, eps, minPts)
		if err != nil {
			return false
		}
		used := make(map[int]bool)
		for _, lab := range res.Labels {
			if lab == Noise {
				continue
			}
			if lab < 0 || lab >= res.NumClusters {
				return false
			}
			used[lab] = true
		}
		return len(used) == res.NumClusters
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: with minPts > 1, every cluster has at least 2 members
// (a core point needs minPts neighbors including itself, and clusters
// start only from core points).
func TestClusterSizeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 3
		}
		pts := points(xs...)
		res, err := Cluster(pts, 0.2, 3)
		if err != nil {
			return false
		}
		clusters, _ := res.Clusters()
		for _, c := range clusters {
			if len(c) < 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
