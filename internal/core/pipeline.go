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
	// Config records the (final) automatic DBSCAN configuration.
	Config AutoConfig
	// Reconfigured reports whether the >60 %-cluster guard re-ran the ε
	// selection (Section III-E) and adopted the re-run.
	Reconfigured bool
	// GuardNote says why a guard that fired kept the first-pass ε:
	// "no smaller ε", or "re-run failed: " and the re-run's error. It
	// is empty when the guard did not fire or Reconfigured is set.
	// Diagnostics only: no report or service body carries it.
	GuardNote string
	// MergedFrom records how many raw DBSCAN clusters went into
	// refinement, for diagnostics; len(Clusters) is how many came out.
	MergedFrom int
}

// CheckClusterer returns nil when name selects a density clusterer (""
// or "dbscan", "optics", "hdbscan"; see Params.Clusterer) and an error
// naming it otherwise, so a caller can reject a bad name before doing
// any work.
func CheckClusterer(name string) error {
	switch name {
	case "", "dbscan", "optics", "hdbscan":
		return nil
	}
	return fmt.Errorf("core: unknown clusterer %q", name)
}

// runClusterer applies the configured density clusterer: DBSCAN by
// default, OPTICS with DBSCAN-equivalent extraction, or HDBSCAN (which
// ignores ε and derives its hierarchy from minPts alone). DBSCAN reads
// its core points from the k-NN table of the ε auto-configuration when
// there is one (nil on the fixed-ε path), which holds kMax(n) ≥
// minSamples(n) − 1 neighbours of every point.
func runClusterer(m dbscan.Matrix, table [][]float64, eps float64, minPts int, p Params) (*dbscan.Result, error) {
	switch p.Clusterer {
	case "", "dbscan":
		if table != nil {
			return dbscan.ClusterTable(m, table, eps, minPts)
		}
		return dbscan.Cluster(m, eps, minPts)
	case "optics":
		order, err := dbscan.OPTICS(m, 1, minPts)
		if err != nil {
			return nil, err
		}
		return dbscan.ExtractDBSCAN(order, m.Len(), eps), nil
	case "hdbscan":
		return dbscan.HDBSCAN(m, minPts, minPts)
	}
	// Only a name CheckClusterer rejects gets here.
	return nil, CheckClusterer(p.Clusterer)
}

// MatrixBuilder computes the dissimilarity matrix for a pool under the
// configuration core derives from Params. It exists so a caller can
// substitute the local kernel build with another source of the same
// bits — the distributed coordinator assembles the matrix from
// worker-computed shards. A nil MatrixBuilder is
// dissim.ComputeMatrixContext. Params stays comparable (it carries no
// function fields); the builder rides alongside it instead.
type MatrixBuilder func(ctx context.Context, pool *dissim.Pool, cfg dissim.Config) (*dissim.Matrix, error)

// BuildMatrix is the pipeline prefix shared by every caller that
// clusters segments: it deduplicates segs into a pool, requires at
// least three unique values, and builds the pool's dissimilarity
// matrix through build (nil: dissim.ComputeMatrixContext) with the
// penalty, backend, memory budget and spill directory of p. The caller
// owns the returned matrix and must Close it.
func BuildMatrix(ctx context.Context, segs []netmsg.Segment, p Params, build MatrixBuilder) (*dissim.Pool, *dissim.Matrix, error) {
	pool := dissim.NewPool(segs)
	if pool.Size() < 3 {
		return nil, nil, fmt.Errorf("%w (pool has %d)", ErrTooFewSegments, pool.Size())
	}
	if build == nil {
		build = dissim.ComputeMatrixContext
	}
	m, err := build(ctx, pool, dissim.Config{
		Penalty:      p.Penalty,
		Backend:      p.MatrixBackend,
		MemoryBudget: p.MemoryBudget,
		SpillDir:     p.MatrixSpillDir,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: dissimilarity matrix: %w", err)
	}
	return pool, m, nil
}

// ClusterSegmentsContext runs the entire pipeline of Section III on a
// set of segments: dedup → dissimilarity matrix → ε auto-configuration
// → DBSCAN → 60 %-guard → refinement. It is BuildMatrix followed by
// ClusterPoolContext, and it closes the matrix it built on every path;
// a Close error is joined to the result's. Everything downstream of the
// matrix is identical whichever builder produced it. Cancellation is
// threaded through the hot stages: the matrix build aborts per tile,
// the ε auto-configuration per candidate k, and refinement between
// cluster pairs. A cancelled or expired context surfaces as an error
// wrapping ctx.Err().
func ClusterSegmentsContext(ctx context.Context, segs []netmsg.Segment, p Params, build MatrixBuilder) (res *Result, err error) {
	if err := CheckClusterer(p.Clusterer); err != nil {
		return nil, err
	}
	pool, m, err := BuildMatrix(ctx, segs, p, build)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := m.Close(); cerr != nil {
			res, err = nil, errors.Join(err, fmt.Errorf("core: close matrix: %w", cerr))
		}
	}()
	return ClusterPoolContext(ctx, pool, m, p)
}

// ClusterPoolContext runs the pipeline on an already-prepared pool and
// matrix (the configuration sweep clusters one matrix per
// configuration), with cancellation checkpoints between and inside the
// pipeline stages. It never closes m: the caller that built the matrix
// may cluster it again.
func ClusterPoolContext(ctx context.Context, pool *dissim.Pool, m *dissim.Matrix, p Params) (*Result, error) {
	if err := CheckClusterer(p.Clusterer); err != nil {
		return nil, err
	}
	var (
		cfg   *AutoConfig
		table [][]float64 // k-NN table shared by both auto-configuration passes and DBSCAN
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
	res, err := runClusterer(m, table, cfg.Epsilon, cfg.MinSamples, p)
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
	reconfigured, guardNote := false, ""
	if p.FixedEpsilon <= 0 {
		if share, _ := res.LargestClusterShare(); share > p.LargeClusterShare {
			cfg2, res2, note, err := largeClusterGuard(cfg.Epsilon,
				func(cut float64) (*AutoConfig, error) { return configure(ctx, m, table, p, cut) },
				func(c *AutoConfig) (*dbscan.Result, error) { return runClusterer(m, table, c.Epsilon, c.MinSamples, p) })
			if err != nil {
				return nil, err
			}
			if cfg2 != nil {
				cfg, res, reconfigured = cfg2, res2, true
			}
			guardNote = note
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
		Config:       *cfg,
		Reconfigured: reconfigured,
		GuardNote:    guardNote,
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

// largeClusterGuard is the re-run of the 60 % guard, given the first
// pass's ε: reconfigure repeats the auto-configuration on the k-NN
// distances below a cut, recluster clusters with a configuration. It
// returns the re-run's configuration and clustering when they replace
// the first pass, and otherwise a note saying why the first pass
// stands. A cancelled re-run is an error: passing the first-pass
// labels off as the result would hide it.
func largeClusterGuard(eps float64,
	reconfigure func(cut float64) (*AutoConfig, error),
	recluster func(*AutoConfig) (*dbscan.Result, error),
) (*AutoConfig, *dbscan.Result, string, error) {
	cfg, err := reconfigure(eps)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return nil, nil, "", err
	}
	if err != nil {
		return nil, nil, fmt.Sprintf("re-run failed: %v", err), nil
	}
	if !(cfg.Epsilon < eps) {
		return nil, nil, "no smaller ε", nil
	}
	res, err := recluster(cfg)
	if err != nil {
		return nil, nil, fmt.Sprintf("re-run failed: %v", err), nil
	}
	return cfg, res, "", nil
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
