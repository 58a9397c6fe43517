package oracle

// Noise is the DBSCAN label for points that belong to no cluster. It
// mirrors dbscan.Noise without importing the package under test.
const Noise = -1

// DBSCAN is a brute-force reference implementation of DBSCAN (Ester et
// al., KDD 1996) formulated structurally rather than by seed-queue
// expansion. Production internal/dbscan finds the same core-point
// components, but streaming, in O(n) memory; DBSCANExpand below is the
// seed-queue reference both are checked against:
//
//  1. Every ε-neighborhood is materialized by a full O(n²) scan.
//  2. Core points (|N_ε(p)| ≥ minPts, self included) are connected into
//     clusters by union-find over the "within ε of each other" relation.
//  3. Components are numbered by their smallest core point's index —
//     exactly the order in which an index-seeded expansion would have
//     discovered them.
//  4. Each border point (non-core with at least one core within ε)
//     joins the lowest-numbered cluster among its core neighbors, which
//     is the cluster whose expansion would have reached it first.
//
// The result is label-identical to deterministic index-order seeded
// DBSCAN, with Noise for all remaining points.
func DBSCAN(n int, dist DistFunc, eps float64, minPts int) []int {
	neighborhoods := make([][]int, n)
	core := make([]bool, n)
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			if dist(p, q) <= eps {
				neighborhoods[p] = append(neighborhoods[p], q)
			}
		}
		core[p] = len(neighborhoods[p]) >= minPts
	}

	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for p := 0; p < n; p++ {
		if !core[p] {
			continue
		}
		for _, q := range neighborhoods[p] {
			if core[q] {
				parent[find(p)] = find(q)
			}
		}
	}

	// Number components by their minimal core index.
	clusterOf := make(map[int]int)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise
	}
	next := 0
	for p := 0; p < n; p++ {
		if !core[p] {
			continue
		}
		root := find(p)
		id, ok := clusterOf[root]
		if !ok {
			id = next
			next++
			clusterOf[root] = id
		}
		labels[p] = id
	}

	// Border points take the lowest cluster id among core neighbors.
	for p := 0; p < n; p++ {
		if core[p] {
			continue
		}
		best := Noise
		for _, q := range neighborhoods[p] {
			if !core[q] {
				continue
			}
			if id := clusterOf[find(q)]; best == Noise || id < best {
				best = id
			}
		}
		labels[p] = best
	}
	return labels
}

// DBSCANExpand is the textbook DBSCAN expansion: points are visited in
// index order, each unvisited core point seeds a new cluster that is
// expanded breadth-first through its ε-neighborhoods, and a non-core
// point keeps the first cluster that reaches it. Every region query is
// a full scan of dist. It is the formulation whose labels DBSCAN above
// and the production component passes must reproduce.
func DBSCANExpand(n int, dist DistFunc, eps float64, minPts int) []int {
	const unvisited = -2
	labels := make([]int, n)
	for i := range labels {
		labels[i] = unvisited
	}
	neighbors := func(p int) []int {
		var out []int
		for q := 0; q < n; q++ {
			if dist(p, q) <= eps {
				out = append(out, q)
			}
		}
		return out
	}
	cluster := 0
	for p := 0; p < n; p++ {
		if labels[p] != unvisited {
			continue
		}
		seeds := neighbors(p)
		if len(seeds) < minPts {
			labels[p] = Noise
			continue
		}
		labels[p] = cluster
		for head := 0; head < len(seeds); head++ {
			q := seeds[head]
			if labels[q] == Noise {
				labels[q] = cluster
				continue
			}
			if labels[q] != unvisited {
				continue
			}
			labels[q] = cluster
			if qn := neighbors(q); len(qn) >= minPts {
				seeds = append(seeds, qn...)
			}
		}
		cluster++
	}
	return labels
}
