package dbscan

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestOPTICSErrors(t *testing.T) {
	if _, err := OPTICS(points(), 1, 2); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty err = %v", err)
	}
	if _, err := OPTICS(points(1), 0, 2); !errors.Is(err, ErrBadEps) {
		t.Errorf("eps err = %v", err)
	}
	if _, err := OPTICS(points(1), 1, 0); !errors.Is(err, ErrBadMinPts) {
		t.Errorf("minPts err = %v", err)
	}
}

func TestOPTICSOrderingCoversAllPoints(t *testing.T) {
	pts := points(0, 0.1, 0.2, 5, 5.1, 5.2, 99)
	order, err := OPTICS(pts, 10, 2)
	if err != nil {
		t.Fatalf("OPTICS: %v", err)
	}
	if len(order) != pts.Len() {
		t.Fatalf("order covers %d of %d points", len(order), pts.Len())
	}
	seen := make(map[int]bool)
	for _, p := range order {
		if seen[p.Index] {
			t.Fatalf("point %d ordered twice", p.Index)
		}
		seen[p.Index] = true
	}
}

func TestOPTICSReachabilityValleys(t *testing.T) {
	// Two tight groups far apart: within-group reachability is small,
	// the jump between groups is large.
	pts := points(0, 0.05, 0.1, 10, 10.05, 10.1)
	order, err := OPTICS(pts, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	bigJumps := 0
	for _, p := range order {
		if !math.IsInf(p.Reachability, 1) && p.Reachability > 1 {
			bigJumps++
		}
	}
	// Exactly one large inter-group jump (the first point has Inf).
	if bigJumps != 1 {
		t.Errorf("large reachability jumps = %d, want 1", bigJumps)
	}
}

func TestExtractDBSCANMatchesDBSCAN(t *testing.T) {
	// The OPTICS→DBSCAN extraction must find the same group structure as
	// direct DBSCAN on well-separated data.
	pts := points(0, 0.1, 0.2, 5, 5.1, 5.2, 99)
	order, err := OPTICS(pts, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := ExtractDBSCAN(order, pts.Len(), 0.5)
	want, err := Cluster(pts, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumClusters != want.NumClusters {
		t.Fatalf("clusters = %d, want %d", got.NumClusters, want.NumClusters)
	}
	// Same partition up to label permutation: points 0-2 together,
	// 3-5 together, 6 noise.
	if got.Labels[0] != got.Labels[1] || got.Labels[1] != got.Labels[2] {
		t.Errorf("group 1 split: %v", got.Labels)
	}
	if got.Labels[3] != got.Labels[4] || got.Labels[4] != got.Labels[5] {
		t.Errorf("group 2 split: %v", got.Labels)
	}
	if got.Labels[0] == got.Labels[3] {
		t.Errorf("groups merged: %v", got.Labels)
	}
	if got.Labels[6] != Noise {
		t.Errorf("outlier label = %d, want noise", got.Labels[6])
	}
}

func TestExtractDBSCANAllNoise(t *testing.T) {
	pts := points(0, 10, 20)
	order, err := OPTICS(pts, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	res := ExtractDBSCAN(order, pts.Len(), 0.5)
	if res.NumClusters != 0 {
		t.Errorf("clusters = %d, want 0", res.NumClusters)
	}
	for i, lab := range res.Labels {
		if lab != Noise {
			t.Errorf("point %d labeled %d, want noise", i, lab)
		}
	}
}

func TestOPTICSAgainstDBSCANRandom(t *testing.T) {
	// Property-style: on random 1-D data, OPTICS extraction at eps and
	// DBSCAN at eps agree on the number of non-noise points within a
	// tolerance. Exact equivalence only holds when eps equals the
	// generating distance; with a larger generating distance the greedy
	// ordering can freeze border points at higher reachabilities, so a
	// fifth of the points may legitimately differ.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		xs := make([]float64, 60)
		for i := range xs {
			xs[i] = rng.Float64() * 10
		}
		pts := points(xs...)
		order, err := OPTICS(pts, 100, 3)
		if err != nil {
			t.Fatal(err)
		}
		opt := ExtractDBSCAN(order, pts.Len(), 0.3)
		db, err := Cluster(pts, 0.3, 3)
		if err != nil {
			t.Fatal(err)
		}
		optNon, dbNon := 0, 0
		for i := range xs {
			if opt.Labels[i] != Noise {
				optNon++
			}
			if db.Labels[i] != Noise {
				dbNon++
			}
		}
		diff := optNon - dbNon
		if diff < 0 {
			diff = -diff
		}
		if diff > pts.Len()/5 {
			t.Errorf("trial %d: OPTICS non-noise %d vs DBSCAN %d differ too much", trial, optNon, dbNon)
		}
	}
}
