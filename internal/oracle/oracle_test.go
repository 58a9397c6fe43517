package oracle

import (
	"math"
	"testing"
)

// lineDist places points on a line; distances are absolute differences.
func lineDist(pos []float64) DistFunc {
	return func(i, j int) float64 { return math.Abs(pos[i] - pos[j]) }
}

func TestDBSCANHandWorked(t *testing.T) {
	// Two clumps and an outlier: {0, 0.1, 0.2} and {1.0, 1.1, 1.2}, plus
	// 5.0. eps = 0.15, minPts = 2 → two clusters, one noise point.
	pos := []float64{0, 0.1, 0.2, 1.0, 1.1, 1.2, 5.0}
	labels := DBSCAN(len(pos), lineDist(pos), 0.15, 2)
	want := []int{0, 0, 0, 1, 1, 1, Noise}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("labels = %v, want %v", labels, want)
		}
	}
}

func TestDBSCANBorderJoinsLowestCluster(t *testing.T) {
	// A border point (not core at minPts=3) equidistant from cores of two
	// clusters must take the lower cluster id, matching index-seeded
	// expansion order.
	//
	// Positions: cluster A {0, 0.05, 0.1}, border 0.5, cluster B
	// {0.9, 0.95, 1.0}; eps = 0.4. The border reaches cores 0.1 and 0.9
	// but has only 3 points within eps (itself, 0.1, 0.9) — with
	// minPts = 4 it is not core.
	pos := []float64{0, 0.05, 0.1, 0.5, 0.9, 0.95, 1.0}
	labels := DBSCAN(len(pos), lineDist(pos), 0.4, 4)
	if labels[3] != 0 {
		t.Errorf("border label = %d, want 0 (first-expanding cluster)", labels[3])
	}
	if labels[0] != 0 || labels[6] != 1 {
		t.Errorf("cluster numbering off: %v", labels)
	}
}

func TestPercentileHandWorked(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 15}, {100, 50}, {50, 35},
		{25, 20}, {75, 40},
		{40, (35-20)*0.6 + 20}, // rank 1.6 between 20 and 35
		{-5, 15}, {150, 50},    // clamped
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(xs, math.NaN())) {
		t.Error("NaN p should yield NaN")
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty input should yield NaN")
	}
	if got := Percentile([]float64{7}, 63); got != 7 {
		t.Errorf("single-element percentile = %v, want 7", got)
	}
}

func TestPercentRankHandWorked(t *testing.T) {
	xs := []float64{1, 2, 2, 3}
	// v = 2: one below, two equal → (1 + 1) / 4 = 50 %.
	if got := PercentRank(xs, 2); got != 50 {
		t.Errorf("PercentRank(2) = %v, want 50", got)
	}
	if got := PercentRank(xs, 10); got != 100 {
		t.Errorf("PercentRank(10) = %v, want 100", got)
	}
	if got := PercentRank(xs, 0); got != 0 {
		t.Errorf("PercentRank(0) = %v, want 0", got)
	}
	if !math.IsNaN(PercentRank(xs, math.NaN())) {
		t.Error("NaN v should yield NaN")
	}
	if !math.IsNaN(PercentRank(nil, 1)) {
		t.Error("empty xs should yield NaN")
	}
}

func TestDifferenceCurveAndKnee(t *testing.T) {
	// y = sqrt(x) on [0, 1]: concave increasing, difference curve peaks
	// at x = 1/4 where sqrt(x) − x is maximal.
	n := 101
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i) / float64(n-1)
		ys[i] = math.Sqrt(xs[i])
	}
	knee := Knee(xs, ys)
	if knee < 0 {
		t.Fatal("no knee found on sqrt curve")
	}
	if math.Abs(xs[knee]-0.25) > 0.02 {
		t.Errorf("knee at x = %v, want ≈ 0.25", xs[knee])
	}
	diff := DifferenceCurve(xs, ys)
	maxima := LocalMaxima(diff)
	found := false
	for _, m := range maxima {
		if m == knee {
			found = true
		}
	}
	if !found {
		t.Errorf("global knee %d not among local maxima %v", knee, maxima)
	}
	// A straight line has no positive difference → no knee.
	if k := Knee(xs, xs); k != -1 {
		t.Errorf("straight line produced knee %d", k)
	}
}

func TestRefineStatsHandWorked(t *testing.T) {
	pos := []float64{0, 0.1, 0.3}
	d := lineDist(pos)
	c := []int{0, 1, 2}
	if got := PairwiseMean(c, d); math.Abs(got-(0.1+0.3+0.2)/3) > 1e-12 {
		t.Errorf("mean = %v", got)
	}
	if got := PairwiseMax(c, d); got != 0.3 {
		t.Errorf("max = %v", got)
	}
	// Nearest-neighbor distances: 0.1, 0.1, 0.2 → median 0.1.
	if got := NearestNeighborMedian(c, d); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("minmed = %v", got)
	}
	a, b, dl := LinkSegments([]int{0, 1}, []int{2}, d)
	if a != 1 || b != 2 || math.Abs(dl-0.2) > 1e-12 {
		t.Errorf("link = (%d,%d,%v)", a, b, dl)
	}
	rho, n := RhoEps(0, c, 0.15, d)
	if n != 1 || rho != 0.1 {
		t.Errorf("rhoEps = (%v,%d), want (0.1,1)", rho, n)
	}
}

func TestMedianEvenOdd(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("empty median should be NaN")
	}
}

func TestPartitionHelpers(t *testing.T) {
	a := [][]int{{3, 1}, {2}, {5, 4}}
	b := [][]int{{4, 5}, {1, 3}, {2}}
	if !EqualPartitions(a, b) {
		t.Error("permuted partitions should compare equal")
	}
	c := [][]int{{1, 2}, {3}, {4, 5}}
	if EqualPartitions(a, c) {
		t.Error("different partitions compared equal")
	}
}
