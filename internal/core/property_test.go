package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"protoclust/internal/canberra"
	"protoclust/internal/dissim"
	"protoclust/internal/netmsg"
	"protoclust/internal/oracle"
)

// randomPoints draws 1-D positions forming a few clumps, the geometry
// the refinement stage actually sees.
func randomPoints(rng *rand.Rand, n int) fakeDist {
	pos := make(fakeDist, n)
	for i := range pos {
		pos[i] = float64(rng.Intn(4)) + rng.Float64()*0.3
	}
	return pos
}

// randomClusters partitions [0, n) into non-empty groups.
func randomClusters(rng *rand.Rand, n int) [][]int {
	k := 1 + rng.Intn(4)
	clusters := make([][]int, k)
	for i := 0; i < n; i++ {
		c := rng.Intn(k)
		clusters[c] = append(clusters[c], i)
	}
	out := clusters[:0]
	for _, c := range clusters {
		if len(c) > 0 {
			out = append(out, c)
		}
	}
	return out
}

// TestComputeStatsMatchesOracle cross-checks the production cluster
// statistics (mean pairwise, max pairwise, median 1-NN) against the
// oracle's O(n²) double-loop implementations on random clusters.
func TestComputeStatsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 100; trial++ {
		m := randomPoints(rng, 2+rng.Intn(30))
		c := make([]int, len(m))
		for i := range c {
			c[i] = i
		}
		rng.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
		c = c[:2+rng.Intn(len(c)-1)]

		sts, err := computeStats(context.Background(), [][]int{c}, m)
		if err != nil {
			t.Fatal(err)
		}
		st := sts[0]
		dist := func(i, j int) float64 { return m.Dist(i, j) }
		if want := oracle.PairwiseMean(c, dist); math.Abs(st.meanD-want) > 1e-12 {
			t.Fatalf("trial %d: meanD = %v, oracle %v", trial, st.meanD, want)
		}
		if want := oracle.PairwiseMax(c, dist); math.Abs(st.dmax-want) > 1e-12 {
			t.Fatalf("trial %d: dmax = %v, oracle %v", trial, st.dmax, want)
		}
		if want := oracle.NearestNeighborMedian(c, dist); math.Abs(st.minmed-want) > 1e-12 {
			t.Fatalf("trial %d: minmed = %v, oracle %v", trial, st.minmed, want)
		}
	}
}

// TestComputeStatsBitExactAcrossBackends checks the storage-order
// statistics walk against the gather-order transcription in the
// oracle, bit for bit, on random clusterings over every matrix backend
// (tiled under a budget of four tiles, with spill). Members are listed
// in ascending order, as DBSCAN's clusters are, so both sum each
// cluster's pairs in the same order.
func TestComputeStatsBitExactAcrossBackends(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	var segs []netmsg.Segment
	seen := make(map[string]bool)
	for len(seen) < 200 {
		b := make([]byte, 2+rng.Intn(6))
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		if seen[string(b)] {
			continue
		}
		seen[string(b)] = true
		segs = append(segs, netmsg.Segment{Msg: &netmsg.Message{Data: b}, Length: len(b)})
	}
	pool := dissim.NewPool(segs)
	for _, cfg := range []dissim.Config{
		{Penalty: canberra.DefaultPenalty, Backend: dissim.BackendDense},
		{Penalty: canberra.DefaultPenalty, Backend: dissim.BackendCondensed},
		{Penalty: canberra.DefaultPenalty, Backend: dissim.BackendTiled, MemoryBudget: 64 << 10, SpillDir: t.TempDir()},
	} {
		m, err := dissim.ComputeMatrix(pool, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(47))
		for trial := 0; trial < 20; trial++ {
			// k clusters plus noise; some clusters end up with fewer
			// than two members.
			k := 1 + rng.Intn(8)
			clusters := make([][]int, k)
			for p := 0; p < pool.Size(); p++ {
				if c := rng.Intn(k + 1); c < k && rng.Intn(4) > 0 {
					clusters[c] = append(clusters[c], p)
				}
			}
			sts, err := computeStats(context.Background(), clusters, m)
			if err != nil {
				t.Fatal(err)
			}
			for ci, c := range clusters {
				meanD, dmax, minmed := oracle.GatherStats(c, m.Dist)
				got, want := sts[ci], clusterStats{meanD: meanD, dmax: dmax, minmed: minmed}
				if math.Float64bits(got.meanD) != math.Float64bits(want.meanD) ||
					math.Float64bits(got.dmax) != math.Float64bits(want.dmax) ||
					math.Float64bits(got.minmed) != math.Float64bits(want.minmed) {
					t.Fatalf("%s trial %d cluster %d (%d members): stats %+v, gather oracle %+v",
						cfg.Backend, trial, ci, len(c), got, want)
				}
			}
		}
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLinkSegmentsMatchesOracleAndSymmetric checks the closest-pair
// search against the oracle and its argument symmetry: swapping the
// clusters mirrors the endpoints but never changes the link distance.
func TestLinkSegmentsMatchesOracleAndSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		m := randomPoints(rng, 4+rng.Intn(30))
		half := 1 + rng.Intn(len(m)-2)
		var ca, cb []int
		for i := range m {
			if i < half {
				ca = append(ca, i)
			} else {
				cb = append(cb, i)
			}
		}
		a, b, d := linkSegments(ca, cb, m)
		dist := func(i, j int) float64 { return m.Dist(i, j) }
		oa, ob, od := oracle.LinkSegments(ca, cb, dist)
		if math.Abs(d-od) > 1e-12 {
			t.Fatalf("trial %d: link distance %v, oracle %v", trial, d, od)
		}
		if m.Dist(a, b) != d || m.Dist(oa, ob) != od {
			t.Fatalf("trial %d: link endpoints don't realize the link distance", trial)
		}
		b2, a2, d2 := linkSegments(cb, ca, m)
		if math.Abs(d2-d) > 1e-12 {
			t.Fatalf("trial %d: link distance not symmetric: %v vs %v", trial, d, d2)
		}
		if m.Dist(a2, b2) != d2 {
			t.Fatalf("trial %d: swapped link endpoints don't realize the distance", trial)
		}
	}
}

// TestRhoEpsMatchesOracleAndPermutationInvariant checks the ε-local
// density against the oracle and its invariance under reordering of
// the cluster member list.
func TestRhoEpsMatchesOracleAndPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 100; trial++ {
		m := randomPoints(rng, 3+rng.Intn(30))
		cluster := make([]int, len(m))
		for i := range cluster {
			cluster[i] = i
		}
		link := rng.Intn(len(m))
		eps := 0.05 + rng.Float64()*0.6

		rho, cnt := rhoEps(link, cluster, eps, m)
		dist := func(i, j int) float64 { return m.Dist(i, j) }
		orho, ocnt := oracle.RhoEps(link, cluster, eps, dist)
		if cnt != ocnt || math.Abs(rho-orho) > 1e-12 {
			t.Fatalf("trial %d: rhoEps = (%v,%d), oracle (%v,%d)", trial, rho, cnt, orho, ocnt)
		}
		rng.Shuffle(len(cluster), func(i, j int) { cluster[i], cluster[j] = cluster[j], cluster[i] })
		rho2, cnt2 := rhoEps(link, cluster, eps, m)
		if cnt2 != cnt || math.Abs(rho2-rho) > 1e-12 {
			t.Fatalf("trial %d: rhoEps changed under member permutation: (%v,%d) vs (%v,%d)",
				trial, rho, cnt, rho2, cnt2)
		}
	}
}

// TestMergeClustersPermutationInvariant checks that the merged
// partition — as a set of sets — does not depend on the order clusters
// are listed in or the order of members within each cluster.
func TestMergeClustersPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	p := DefaultParams()
	for trial := 0; trial < 60; trial++ {
		m := randomPoints(rng, 6+rng.Intn(30))
		clusters := randomClusters(rng, len(m))

		base, err := mergeClusters(context.Background(), clusters, m, p)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			shuffled := make([][]int, len(clusters))
			for i, c := range clusters {
				cp := append([]int(nil), c...)
				rng.Shuffle(len(cp), func(a, b int) { cp[a], cp[b] = cp[b], cp[a] })
				shuffled[i] = cp
			}
			rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
			got, err := mergeClusters(context.Background(), shuffled, m, p)
			if err != nil {
				t.Fatal(err)
			}
			if !oracle.EqualPartitions(base, got) {
				t.Fatalf("trial %d rep %d: merge depends on input order:\nbase %v\ngot  %v\ninput %v",
					trial, rep, oracle.CanonicalPartition(base), oracle.CanonicalPartition(got), shuffled)
			}
		}
	}
}

// TestMergeClustersPreservesMembers checks that merging never drops or
// duplicates a member, whatever the input partition.
func TestMergeClustersPreservesMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	p := DefaultParams()
	for trial := 0; trial < 60; trial++ {
		m := randomPoints(rng, 5+rng.Intn(25))
		clusters := randomClusters(rng, len(m))
		out, err := mergeClusters(context.Background(), clusters, m, p)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int]int)
		for _, c := range out {
			for _, i := range c {
				seen[i]++
			}
		}
		if len(seen) != len(m) {
			t.Fatalf("trial %d: merge output covers %d of %d members", trial, len(seen), len(m))
		}
		for i, cnt := range seen {
			if cnt != 1 {
				t.Fatalf("trial %d: member %d appears %d times", trial, i, cnt)
			}
		}
	}
}

// TestRefinementDegenerateInputsNoPanic drives the refinement helpers
// with empty and singleton inputs; all must return without panicking.
func TestRefinementDegenerateInputsNoPanic(t *testing.T) {
	m := fakeDist{0, 1, 2}
	p := DefaultParams()
	if out, err := mergeClusters(context.Background(), nil, m, p); err != nil || len(out) != 0 {
		t.Errorf("mergeClusters(nil) = %v, %v", out, err)
	}
	if out, err := mergeClusters(context.Background(), [][]int{{0}}, m, p); err != nil || len(out) != 1 {
		t.Errorf("mergeClusters(singleton) = %v, %v", out, err)
	}
	if out, err := mergeClusters(context.Background(), [][]int{{0}, {1}, {2}}, m, p); err != nil || len(out) != 3 {
		t.Errorf("mergeClusters(three singletons) = %v, %v", out, err)
	}
	if out := splitClusters(nil, func(int) int { return 1 }, p); len(out) != 0 {
		t.Errorf("splitClusters(nil) = %v", out)
	}
	if out := splitClusters([][]int{{}}, func(int) int { return 1 }, p); len(out) != 1 {
		t.Errorf("splitClusters(empty cluster) = %v", out)
	}
	sts, err := computeStats(context.Background(), [][]int{{0}}, m)
	if err != nil || sts[0].dmax != 0 {
		t.Errorf("singleton stats = %+v, %v", sts, err)
	}
}

// TestConfigureStableUnderShuffle feeds Configure the same segment
// population in shuffled orders: the selected ε, k, and min_samples
// must not depend on input order.
func TestConfigureStableUnderShuffle(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	values := bimodalValues(rng, 40)
	_, m := poolFromValues(t, values)
	base, err := Configure(m, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 5; rep++ {
		shuffled := append([][]byte(nil), values...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		_, m2 := poolFromValues(t, shuffled)
		got, err := Configure(m2, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if got.Epsilon != base.Epsilon || got.K != base.K || got.MinSamples != base.MinSamples {
			t.Fatalf("rep %d: configuration depends on segment order: (ε=%v k=%d ms=%d) vs (ε=%v k=%d ms=%d)",
				rep, got.Epsilon, got.K, got.MinSamples, base.Epsilon, base.K, base.MinSamples)
		}
	}
}
