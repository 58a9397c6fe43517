package dbscan

import (
	"errors"
	"math/rand"
	"testing"
)

func TestHDBSCANErrors(t *testing.T) {
	if _, err := HDBSCAN(points(), 2, 2); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty err = %v", err)
	}
	if _, err := HDBSCAN(points(1, 2), 0, 2); !errors.Is(err, ErrBadMinPts) {
		t.Errorf("minPts err = %v", err)
	}
	if _, err := HDBSCAN(points(1, 2), 2, 1); !errors.Is(err, ErrBadMinPts) {
		t.Errorf("minClusterSize err = %v", err)
	}
}

func TestHDBSCANTinyInput(t *testing.T) {
	res, err := HDBSCAN(points(1, 2), 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, lab := range res.Labels {
		if lab != Noise {
			t.Error("sub-minimum population must be all noise")
		}
	}
}

func TestHDBSCANTwoClusters(t *testing.T) {
	// Two tight groups of 6 with an isolated outlier.
	pts := points(
		0, 0.05, 0.1, 0.15, 0.2, 0.25,
		10, 10.05, 10.1, 10.15, 10.2, 10.25,
		50,
	)
	res, err := HDBSCAN(pts, 3, 3)
	if err != nil {
		t.Fatalf("HDBSCAN: %v", err)
	}
	if res.NumClusters != 2 {
		t.Fatalf("clusters = %d, want 2 (labels %v)", res.NumClusters, res.Labels)
	}
	for i := 1; i < 6; i++ {
		if res.Labels[i] != res.Labels[0] {
			t.Errorf("group 1 split: %v", res.Labels)
		}
	}
	for i := 7; i < 12; i++ {
		if res.Labels[i] != res.Labels[6] {
			t.Errorf("group 2 split: %v", res.Labels)
		}
	}
	if res.Labels[0] == res.Labels[6] {
		t.Errorf("groups merged: %v", res.Labels)
	}
	if res.Labels[12] != Noise {
		t.Errorf("outlier label = %d, want noise", res.Labels[12])
	}
}

func TestHDBSCANSingleCluster(t *testing.T) {
	xs := make([]float64, 12)
	for i := range xs {
		xs[i] = float64(i) * 0.01
	}
	pts := points(xs...)
	res, err := HDBSCAN(pts, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 1 {
		t.Fatalf("clusters = %d, want 1 (labels %v)", res.NumClusters, res.Labels)
	}
	for i, lab := range res.Labels {
		if lab != 0 {
			t.Errorf("point %d label = %d, want 0", i, lab)
		}
	}
}

func TestHDBSCANVariableDensity(t *testing.T) {
	// HDBSCAN's selling point: clusters of different densities. A tight
	// clump near 0 and a loose clump near 100 must both be found.
	pts := points(
		0, 0.01, 0.02, 0.03, 0.04,
		100, 101, 102, 103, 104,
	)
	res, err := HDBSCAN(pts, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 2 {
		t.Fatalf("clusters = %d, want 2 (labels %v)", res.NumClusters, res.Labels)
	}
}

func TestHDBSCANDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = rng.Float64() * 5
	}
	pts := points(xs...)
	a, err := HDBSCAN(pts, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := HDBSCAN(pts, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatalf("labels differ at %d", i)
		}
	}
}

func TestHDBSCANLabelRange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = rng.Float64() * 3
	}
	pts := points(xs...)
	res, err := HDBSCAN(pts, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[int]bool)
	for _, lab := range res.Labels {
		if lab == Noise {
			continue
		}
		if lab < 0 || lab >= res.NumClusters {
			t.Fatalf("label %d out of range [0,%d)", lab, res.NumClusters)
		}
		used[lab] = true
	}
	if len(used) != res.NumClusters {
		t.Errorf("labels used %d != NumClusters %d", len(used), res.NumClusters)
	}
}
