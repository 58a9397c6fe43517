package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"protoclust/internal/dbscan"
	"protoclust/internal/dissim"
	"protoclust/internal/netmsg"
)

// Cluster is one pseudo data type: a group of segments judged to carry
// the same (unknown) field data type.
type Cluster struct {
	// ID is a stable, 0-based cluster identifier.
	ID int
	// UniqueIndexes are the pool indices of the unique segment values in
	// this cluster.
	UniqueIndexes []int
	// Segments holds every concrete segment occurrence in the cluster.
	Segments []netmsg.Segment
}

// Size returns the number of unique segment values in the cluster.
func (c *Cluster) Size() int { return len(c.UniqueIndexes) }

// Result is the outcome of the full pseudo-data-type clustering
// pipeline.
type Result struct {
	// Clusters are the refined pseudo data types.
	Clusters []Cluster
	// Noise holds all segment occurrences DBSCAN classified as noise.
	Noise []netmsg.Segment
	// Excluded holds the one-byte segments never admitted to clustering.
	Excluded []netmsg.Segment
	// Pool is the deduplicated segment population.
	Pool *dissim.Pool
	// Matrix is the pairwise dissimilarity matrix over Pool.
	Matrix *dissim.Matrix
	// Config records the (final) automatic DBSCAN configuration.
	Config AutoConfig
	// Reconfigured reports whether the >60 %-cluster guard re-ran the ε
	// selection (Section III-E).
	Reconfigured bool
	// MergedFrom and SplitInto record how many raw DBSCAN clusters went
	// into refinement and how many came out, for diagnostics.
	MergedFrom int
}

// runClusterer applies the configured density clusterer: DBSCAN by
// default, OPTICS with DBSCAN-equivalent extraction, or HDBSCAN (which
// ignores ε and derives its hierarchy from minPts alone).
func runClusterer(m dbscan.Matrix, eps float64, minPts int, p Params) (*dbscan.Result, error) {
	switch p.Clusterer {
	case "", "dbscan":
		return dbscan.Cluster(m, eps, minPts)
	case "optics":
		order, err := dbscan.OPTICS(m, 1, minPts)
		if err != nil {
			return nil, err
		}
		return dbscan.ExtractDBSCAN(order, m.Len(), eps), nil
	case "hdbscan":
		return dbscan.HDBSCAN(m, minPts, minPts)
	default:
		return nil, fmt.Errorf("core: unknown clusterer %q", p.Clusterer)
	}
}

// ClusterSegments runs the entire pipeline of Section III on a set of
// segments: dedup → dissimilarity matrix → ε auto-configuration →
// DBSCAN → 60 %-guard → refinement.
func ClusterSegments(segs []netmsg.Segment, p Params) (*Result, error) {
	return ClusterSegmentsContext(context.Background(), segs, p)
}

// ClusterSegmentsContext is ClusterSegments with cancellation threaded
// through the hot stages: the matrix build aborts per tile, the ε
// auto-configuration per candidate k, and refinement between cluster
// pairs. A cancelled or expired context surfaces as an error wrapping
// ctx.Err().
func ClusterSegmentsContext(ctx context.Context, segs []netmsg.Segment, p Params) (*Result, error) {
	return ClusterSegmentsBuildContext(ctx, segs, p, nil)
}

// MatrixBuilder computes the dissimilarity matrix for a pool. It exists
// so a caller can substitute the local kernel build with another source
// of the same bits — the distributed coordinator assembles the matrix
// from worker-computed shards. Params stays comparable (it carries no
// function fields); the builder rides alongside it instead.
type MatrixBuilder func(ctx context.Context, pool *dissim.Pool) (*dissim.Matrix, error)

// ClusterSegmentsBuildContext is ClusterSegmentsContext with the matrix
// build injected. A nil build computes locally through
// dissim.ComputeMatrixContext, exactly as ClusterSegmentsContext does;
// everything downstream of the matrix is identical either way.
func ClusterSegmentsBuildContext(ctx context.Context, segs []netmsg.Segment, p Params, build MatrixBuilder) (*Result, error) {
	pool := dissim.NewPool(segs)
	if pool.Size() < 3 {
		return nil, fmt.Errorf("%w (pool has %d)", ErrTooFewSegments, pool.Size())
	}
	if build == nil {
		build = func(ctx context.Context, pool *dissim.Pool) (*dissim.Matrix, error) {
			return dissim.ComputeMatrixContext(ctx, pool, dissim.Config{
				Penalty:      p.Penalty,
				Backend:      p.MatrixBackend,
				MemoryBudget: p.MemoryBudget,
				SpillDir:     p.MatrixSpillDir,
			})
		}
	}
	m, err := build(ctx, pool)
	if err != nil {
		return nil, fmt.Errorf("core: dissimilarity matrix: %w", err)
	}
	return ClusterPoolContext(ctx, pool, m, p)
}

// ClusterPool runs the pipeline on an already-prepared pool and matrix
// (used by benchmarks that sweep parameters over one matrix).
func ClusterPool(pool *dissim.Pool, m *dissim.Matrix, p Params) (*Result, error) {
	return ClusterPoolContext(context.Background(), pool, m, p)
}

// ClusterPoolContext is ClusterPool with cancellation checkpoints
// between and inside the pipeline stages.
func ClusterPoolContext(ctx context.Context, pool *dissim.Pool, m *dissim.Matrix, p Params) (*Result, error) {
	var (
		cfg   *AutoConfig
		table [][]float64 // k-NN table shared by both auto-configuration passes
		err   error
	)
	if p.FixedEpsilon > 0 {
		cfg = &AutoConfig{Epsilon: p.FixedEpsilon, MinSamples: minSamples(pool.Size())}
	} else {
		if table, err = knnTable(m, p); err != nil {
			return nil, err
		}
		if cfg, err = configure(ctx, m, table, p, math.Inf(1)); err != nil {
			return nil, err
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: clusterer: %w", err)
	}
	res, err := runClusterer(m, cfg.Epsilon, cfg.MinSamples, p)
	if err != nil {
		return nil, fmt.Errorf("core: clusterer: %w", err)
	}
	// A lazily computed (tiled) matrix defers a mid-scan cancellation
	// into its sticky error; labels derived from zero-filled tiles must
	// not survive.
	if err := m.Err(); err != nil {
		return nil, fmt.Errorf("core: clusterer: %w", err)
	}

	// Section III-E: a single dominant cluster signals an ε that spans
	// multiple knees; repeat the whole auto-configuration once on the
	// population trimmed below the detected knee (Ê'_k) and recluster
	// with the new, smaller ε.
	reconfigured := false
	if p.FixedEpsilon <= 0 {
		if share, _ := res.LargestClusterShare(); share > p.LargeClusterShare {
			cfg2, err2 := configure(ctx, m, table, p, cfg.Epsilon)
			// A re-run that finds no smaller ε keeps the first one, but a
			// cancelled one must not pass the first-pass labels off as
			// the result.
			if errors.Is(err2, context.Canceled) || errors.Is(err2, context.DeadlineExceeded) {
				return nil, err2
			}
			if err2 == nil && cfg2.Epsilon < cfg.Epsilon {
				if res2, err3 := runClusterer(m, cfg2.Epsilon, cfg2.MinSamples, p); err3 == nil {
					cfg = cfg2
					res = res2
					reconfigured = true
				}
			}
		}
	}

	rawClusters, noiseIdx := res.Clusters()

	clusters := rawClusters
	if !p.DisableRefinement {
		clusters, err = mergeClusters(ctx, clusters, m, p)
		if err != nil {
			return nil, err
		}
		clusters = splitClusters(clusters, func(i int) int { return len(pool.Occurrences[i]) }, p)
	}
	if err := m.Err(); err != nil {
		return nil, fmt.Errorf("core: refinement: %w", err)
	}

	out := &Result{
		Pool:         pool,
		Matrix:       m,
		Config:       *cfg,
		Reconfigured: reconfigured,
		Excluded:     pool.Excluded,
		MergedFrom:   len(rawClusters),
	}
	for id, c := range clusters {
		cl := Cluster{ID: id, UniqueIndexes: c}
		for _, idx := range c {
			cl.Segments = append(cl.Segments, pool.Occurrences[idx]...)
		}
		out.Clusters = append(out.Clusters, cl)
	}
	for _, idx := range noiseIdx {
		out.Noise = append(out.Noise, pool.Occurrences[idx]...)
	}
	return out, nil
}

// CoveredBytes returns the number of message bytes the analysis can make
// a statement about: every byte of every clustered segment occurrence,
// plus excluded one-byte segments whose value recurs in the trace (the
// paper re-incorporates those by frequency analysis, Section III-C).
func (r *Result) CoveredBytes() int {
	var n int
	for _, c := range r.Clusters {
		for _, s := range c.Segments {
			n += s.Length
		}
	}
	counts := make(map[byte]int)
	for _, s := range r.Excluded {
		if s.Length == 1 {
			counts[s.Bytes()[0]]++
		}
	}
	for _, s := range r.Excluded {
		if s.Length == 1 && counts[s.Bytes()[0]] > 1 {
			n++
		}
	}
	return n
}
