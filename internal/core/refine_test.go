package core

import (
	"context"
	"math"
	"testing"

	"protoclust/internal/dbscan"
)

// points lays 1-D point positions out as a condensed matrix: the
// distance between points i and j is |xs[i] − xs[j]|, quantized as
// every backend stores it.
func points(xs ...float64) *dbscan.CondensedMatrix {
	m, err := dbscan.NewCondensedMatrix(len(xs))
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

// q is a distance as the matrix stores it: |a − b| quantized.
func q(a, b float64) float64 { return float64(dbscan.Quantize(math.Abs(a - b))) }

func TestComputeStats(t *testing.T) {
	// Points 0, 0.1, 0.2 → pairwise {0.1, 0.2, 0.1}, as stored.
	m := points(0, 0.1, 0.2)
	sts, err := computeStats(context.Background(), [][]int{{0, 1, 2}}, m)
	if err != nil {
		t.Fatal(err)
	}
	st := sts[0]
	d01, d02, d12 := q(0, 0.1), q(0, 0.2), q(0.1, 0.2)
	if math.Abs(st.meanD-(d01+d02+d12)/3) > 1e-12 {
		t.Errorf("meanD = %v", st.meanD)
	}
	if math.Abs(st.dmax-d02) > 1e-12 {
		t.Errorf("dmax = %v", st.dmax)
	}
	// 1-NN distances: d01, d01, d12 → median d01.
	if math.Abs(st.minmed-d01) > 1e-12 {
		t.Errorf("minmed = %v", st.minmed)
	}
}

// TestComputeStatsRejectsOverlap pins that overlapping clusters are an
// error: the statistics walk maps each point to one cluster.
func TestComputeStatsRejectsOverlap(t *testing.T) {
	m := points(0, 0.1, 0.2, 0.3)
	if _, err := computeStats(context.Background(), [][]int{{0, 1, 2}, {2, 3}}, m); err == nil {
		t.Fatal("overlapping clusters accepted")
	}
}

func TestLinkSegments(t *testing.T) {
	m := points(0, 1, 5, 6)
	a, b, d := linkSegments([]int{0, 1}, []int{2, 3}, m)
	if a != 1 || b != 2 {
		t.Errorf("link = (%d,%d), want (1,2)", a, b)
	}
	if math.Abs(d-4) > 1e-12 {
		t.Errorf("dLink = %v, want 4", d)
	}
}

func TestRhoEps(t *testing.T) {
	m := points(0, 0.1, 0.2, 0.9)
	// Around point 0 with eps 0.25: neighbors at 0.1 and 0.2 → median
	// their mean, as stored.
	want := (q(0, 0.1) + q(0, 0.2)) / 2
	got, n := rhoEps(0, []int{0, 1, 2, 3}, 0.25, m)
	if math.Abs(got-want) > 1e-12 || n != 2 {
		t.Errorf("rhoEps = (%v,%d), want (%v,2)", got, n, want)
	}
	// Empty neighborhood → (0, 0).
	if got, n := rhoEps(3, []int{0, 3}, 0.1, m); got != 0 || n != 0 {
		t.Errorf("empty neighborhood rho = (%v,%d), want (0,0)", got, n)
	}
}

func TestMergeClustersJoinsNearbySimilarDensity(t *testing.T) {
	// Two dense runs separated by a small gap — classic
	// overclassification: ...0.0 0.1 0.2...  0.35 0.45 0.55...
	m := points(0, 0.1, 0.2, 0.35, 0.45, 0.55)
	clusters := [][]int{{0, 1, 2}, {3, 4, 5}}
	p := DefaultParams()
	out, _ := mergeClusters(context.Background(), clusters, m, p)
	if len(out) != 1 {
		t.Fatalf("merged into %d clusters, want 1", len(out))
	}
	if len(out[0]) != 6 {
		t.Errorf("merged cluster has %d members, want 6", len(out[0]))
	}
}

func TestMergeClustersKeepsDistantApart(t *testing.T) {
	m := points(0, 0.01, 0.02, 5, 5.01, 5.02)
	clusters := [][]int{{0, 1, 2}, {3, 4, 5}}
	out, _ := mergeClusters(context.Background(), clusters, m, DefaultParams())
	if len(out) != 2 {
		t.Fatalf("distant clusters merged: %v", out)
	}
}

func TestMergeClustersKeepsDifferentDensityApart(t *testing.T) {
	// Close clusters but very different densities: a tight clump and a
	// sparse spread nearby. Condition 1 fails on the ε-density gap at
	// the links (0.03 vs 0 ≥ 0.01) and Condition 2 on the minmed gap.
	m := points(0, 0.03, 0.06, 0.3, 0.5, 0.7)
	clusters := [][]int{{0, 1, 2}, {3, 4, 5}}
	out, _ := mergeClusters(context.Background(), clusters, m, DefaultParams())
	if len(out) != 2 {
		t.Fatalf("dissimilar-density clusters merged: %v", out)
	}
}

func TestMergeClustersSkipsSingletons(t *testing.T) {
	m := points(0, 0.1, 0.15)
	clusters := [][]int{{0, 1}, {2}}
	out, _ := mergeClusters(context.Background(), clusters, m, DefaultParams())
	if len(out) != 2 {
		t.Fatalf("singleton was merged: %v", out)
	}
}

func TestMergeClustersTransitive(t *testing.T) {
	// Three adjacent runs A-B-C: if A~B and B~C merge, all three must
	// end up together via union-find.
	m := points(0, 0.1, 0.2, 0.32, 0.42, 0.52, 0.64, 0.74, 0.84)
	clusters := [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}}
	out, _ := mergeClusters(context.Background(), clusters, m, DefaultParams())
	if len(out) != 1 {
		t.Fatalf("transitive merge produced %d clusters, want 1", len(out))
	}
}

func TestMergeSingleClusterNoop(t *testing.T) {
	m := points(0, 1)
	clusters := [][]int{{0, 1}}
	out, _ := mergeClusters(context.Background(), clusters, m, DefaultParams())
	if len(out) != 1 || len(out[0]) != 2 {
		t.Errorf("single-cluster merge output: %v", out)
	}
}

func TestSplitClustersPolarized(t *testing.T) {
	// 40 unique values occurring once each, plus one value occurring 500
	// times: polarized occurrences (an enum constant mixed into a
	// varying-value cluster). PR = 40/41 ≈ 97.6 > 95 and σ ≫ F.
	cluster := make([]int, 41)
	for i := range cluster {
		cluster[i] = i
	}
	occ := func(i int) int {
		if i == 40 {
			return 500
		}
		return 1
	}
	out := splitClusters([][]int{cluster}, occ, DefaultParams())
	if len(out) != 2 {
		t.Fatalf("split produced %d clusters, want 2", len(out))
	}
	var low, high []int
	if len(out[0]) < len(out[1]) {
		low, high = out[1], out[0]
	} else {
		low, high = out[0], out[1]
	}
	if len(low) != 40 || len(high) != 1 {
		t.Errorf("split sizes = %d/%d, want 40/1", len(low), len(high))
	}
}

// TestSplitClustersPivotIsUniqueValueCount pins the paper's pivot
// F = ln|c'| over the cluster's *unique values* (Section III-F),
// distinguishing it from the former, buggy F = ln(Σ occurrences):
// 100 unique values (96 singletons, two with 5 occurrences, two with
// 1000) give ln|c'| ≈ 4.61 and ln(total) ≈ 7.65. The two mid-frequency
// values (5 occurrences) lie between the pivots, so the paper's pivot
// classifies them as high-occurrence (split 96/4) while the occurrence-
// sum pivot folded them into the low side (98/2).
func TestSplitClustersPivotIsUniqueValueCount(t *testing.T) {
	cluster := make([]int, 100)
	for i := range cluster {
		cluster[i] = i
	}
	occ := func(i int) int {
		switch {
		case i < 96:
			return 1
		case i < 98:
			return 5
		default:
			return 1000
		}
	}
	out := splitClusters([][]int{cluster}, occ, DefaultParams())
	if len(out) != 2 {
		t.Fatalf("split produced %d clusters, want 2", len(out))
	}
	low, high := out[0], out[1]
	if len(low) < len(high) {
		low, high = high, low
	}
	if len(low) != 96 || len(high) != 4 {
		t.Errorf("split sizes = %d/%d, want 96/4 (pivot ln|c'|; 98/2 indicates the ln(total) bug)",
			len(low), len(high))
	}
	for _, idx := range high {
		if occ(idx) < 5 {
			t.Errorf("singleton value %d landed in the high-occurrence side", idx)
		}
	}
}

func TestSplitClustersUniformNotSplit(t *testing.T) {
	cluster := []int{0, 1, 2, 3, 4}
	occ := func(int) int { return 3 }
	out := splitClusters([][]int{cluster}, occ, DefaultParams())
	if len(out) != 1 {
		t.Fatalf("uniform cluster was split: %v", out)
	}
}

func TestSplitClustersSmallClusterNotSplit(t *testing.T) {
	out := splitClusters([][]int{{0}}, func(int) int { return 100 }, DefaultParams())
	if len(out) != 1 {
		t.Fatalf("tiny cluster was split: %v", out)
	}
}

func TestSplitPreservesMembers(t *testing.T) {
	cluster := make([]int, 30)
	for i := range cluster {
		cluster[i] = i * 2
	}
	occ := func(i int) int {
		if i == 0 || i == 2 {
			return 500
		}
		return 1
	}
	out := splitClusters([][]int{cluster}, occ, DefaultParams())
	total := 0
	for _, c := range out {
		total += len(c)
	}
	if total != len(cluster) {
		t.Errorf("split lost members: %d of %d", total, len(cluster))
	}
}

func TestMinSamplesAndKMax(t *testing.T) {
	if got := minSamples(1000); got != 7 {
		t.Errorf("minSamples(1000) = %d, want 7 (round ln 1000)", got)
	}
	if got := minSamples(2); got != 2 {
		t.Errorf("minSamples(2) = %d, want clamp to 2", got)
	}
	if got := kMax(1000); got != 7 {
		t.Errorf("kMax(1000) = %d, want 7", got)
	}
	if got := kMax(3); got != 2 {
		t.Errorf("kMax(3) = %d, want 2 (clamped to n-1)", got)
	}
}
