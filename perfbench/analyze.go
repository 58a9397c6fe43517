package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"protoclust"
	"protoclust/internal/core"
	"protoclust/internal/dbscan"
	"protoclust/internal/dissim"
	"protoclust/internal/golden"
	"protoclust/internal/segment"
)

// analyzeRunner drives the single-client workloads (auto-eps,
// pinned-eps): one closed-loop client calling the library in-process.
type analyzeRunner struct {
	check  *checker
	jobs   []analysisJob
	traces []*protoclust.Trace
	// golden holds the testdata/golden record of each golden job.
	golden map[int]*golden.Record
}

// setupAnalyze generates every trace of the list, loads the golden
// records and runs one untimed warm-up analysis.
func setupAnalyze(ctx context.Context, env *env, jobs []analysisJob) (runner, error) {
	check, err := env.loadChecker()
	if err != nil {
		return nil, err
	}
	r := &analyzeRunner{check: check, jobs: jobs, golden: make(map[int]*golden.Record)}
	for i, j := range jobs {
		tr, err := protoclust.GenerateTrace(j.proto, j.n, j.seed)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", j.key(), err)
		}
		r.traces = append(r.traces, tr)
		if j.golden {
			rec, err := golden.Load(golden.Path(env.goldenDir, golden.Spec{Protocol: j.proto, Messages: j.n, Seed: j.seed}))
			if err != nil {
				return nil, fmt.Errorf("golden record of %s: %w", j.key(), err)
			}
			r.golden[i] = rec
		}
	}
	warm, err := protoclust.GenerateTrace(warmUp.proto, warmUp.n, env.group.base)
	if err != nil {
		return nil, err
	}
	if _, err := protoclust.AnalyzeContext(ctx, warm, protoclust.DefaultOptions()); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return r, nil
}

func (r *analyzeRunner) round(ctx context.Context, t *tracer) (roundResult, error) {
	rr := roundResult{layers: layers{}}
	for i, j := range r.jobs {
		rr.attempted++
		var (
			d   time.Duration
			a   *protoclust.Analysis
			err error
		)
		if t == nil {
			start := time.Now()
			a, err = protoclust.AnalyzeContext(ctx, r.traces[i], j.options())
			d = time.Since(start)
		} else {
			d, a, err = r.traced(ctx, t, rr.layers, i)
		}
		rr.analysis += d
		if err == nil {
			err = r.verify(i, a)
		}
		if err != nil {
			rr.fail(err)
			continue
		}
		rr.jobs = append(rr.jobs, d)
	}
	return rr, ctx.Err()
}

// verify checks one analysis against expected.json and, for golden
// specs, against testdata/golden.
func (r *analyzeRunner) verify(i int, a *protoclust.Analysis) error {
	res := a.Result()
	m := a.Evaluate()
	if err := r.check.check(r.jobs[i].key(), record{
		Epsilon:  a.Epsilon(),
		K:        res.Config.K,
		Clusters: len(res.Clusters),
		Noise:    len(res.Noise),
		FScore:   m.FScore,
	}); err != nil {
		return err
	}
	want, ok := r.golden[i]
	if !ok {
		return nil
	}
	got := &golden.Record{
		Spec:           want.Spec,
		Epsilon:        a.Epsilon(),
		K:              res.Config.K,
		MinSamples:     a.MinSamples(),
		FromKnee:       res.Config.FromKnee,
		UniqueSegments: a.UniqueSegments(),
		Clusters:       len(res.Clusters),
		NoiseSegments:  len(res.Noise),
		Precision:      m.Precision,
		Recall:         m.Recall,
		FScore:         m.FScore,
		Coverage:       m.Coverage,
	}
	if v := golden.Compare(want, got, golden.DefaultTolerance()); len(v) > 0 {
		return fmt.Errorf("%s: golden mismatch: %v", r.jobs[i].key(), v)
	}
	return nil
}

// traced runs job i as the public call sequence AnalyzeContext makes
// (Deduplicate → segment.Run → dissim.NewPool →
// dissim.ComputeMatrixContext → core.ClusterPoolContext), with a span
// around each call, then probes the layers inside ClusterPoolContext.
// The returned duration covers the call sequence only, not the probes.
func (r *analyzeRunner) traced(ctx context.Context, t *tracer, acc layers, i int) (time.Duration, *protoclust.Analysis, error) {
	j := r.jobs[i]
	key := j.key()
	o := j.options()
	p := o.Params
	start := time.Now()
	root := t.begin("analyze", key, -1, false)

	sp := t.begin("deduplicate", key, root, false)
	tr := r.traces[i].Deduplicate()
	acc["deduplicate.ms"] += t.end(sp)

	seg, err := protoclust.NewSegmenter(o.Segmenter)
	if err != nil {
		return 0, nil, err
	}
	sp = t.begin("segment", key, root, false)
	segs, err := segment.Run(ctx, seg, tr)
	acc["segment.ms"] += t.end(sp)
	if errors.Is(err, segment.ErrBudgetExceeded) {
		acc["segment.budget_failures"]++
	}
	if err != nil {
		return 0, nil, fmt.Errorf("%s: segmentation: %w", key, err)
	}
	acc["segment.segments"] += float64(len(segs))

	sp = t.begin("dissim.pool", key, root, false)
	pool := dissim.NewPool(segs)
	acc["dissim.pool.ms"] += t.end(sp)
	acc["dissim.pool.unique"] += float64(pool.Size())

	sp = t.begin("dissim.matrix", key, root, false)
	m, err := dissim.ComputeMatrixContext(ctx, pool, dissim.Config{
		Penalty:      p.Penalty,
		Backend:      p.MatrixBackend,
		MemoryBudget: p.MemoryBudget,
		SpillDir:     p.MatrixSpillDir,
	})
	matrixMS := t.end(sp)
	if err != nil {
		return 0, nil, fmt.Errorf("%s: matrix: %w", key, err)
	}
	defer m.Close()
	n := float64(pool.Size())
	acc["dissim.matrix.ms"] += matrixMS
	acc["dissim.matrix.pairs"] += n * (n - 1) / 2
	acc["dissim.matrix.resident_mb"] = math.Max(acc["dissim.matrix.resident_mb"], float64(m.ResidentBytes())/(1<<20))

	sp = t.begin("core.cluster", key, root, false)
	res, err := core.ClusterPoolContext(ctx, pool, m, p)
	acc["core.cluster.ms"] += t.end(sp)
	t.end(root)
	d := time.Since(start)
	if err != nil {
		return 0, nil, fmt.Errorf("%s: clustering: %w", key, err)
	}
	if res.Reconfigured {
		acc["core.guard.reruns"]++
	}
	acc["core.refine.clusters_in"] += float64(res.MergedFrom)
	acc["core.refine.clusters_out"] += float64(len(res.Clusters))

	if err := probeCluster(ctx, t, acc, root, key, pool, m, res, p); err != nil {
		return 0, nil, fmt.Errorf("%s: probe: %w", key, err)
	}
	return d, protoclust.NewAnalysis(tr, segs, res), nil
}

// probeCluster times the sub-layers of core.ClusterPoolContext through
// their public entry points on the same matrix: the k-NN table, the ε
// auto-configuration (only where the path ran it), one DBSCAN pass at
// the path's final ε, and clustering at that fixed ε without and with
// refinement, whose difference is the refinement time.
func probeCluster(ctx context.Context, t *tracer, acc layers, root int, key string,
	pool *dissim.Pool, m *dissim.Matrix, res *core.Result, p core.Params) error {
	kHi := kMax(pool.Size())
	sp := t.begin("dissim.knn", key, root, true)
	table, err := m.KNNTable(kHi)
	knnMS := t.end(sp)
	if err != nil {
		return err
	}
	acc["dissim.knn.ms"] += knnMS

	if p.FixedEpsilon <= 0 {
		sp = t.begin("core.autoconf", key, root, true)
		_, err := core.ConfigureContext(ctx, m, p)
		autoMS := t.end(sp)
		if err != nil {
			return err
		}
		acc["core.autoconf.ms"] += autoMS
		acc["core.autoconf.self_ms"] += autoMS - knnMS
		curves, points := curveCounts(table)
		acc["core.autoconf.curves"] += float64(curves)
		acc["core.autoconf.curve_points"] += float64(points)
	}

	sp = t.begin("dbscan", key, root, true)
	_, err = dbscan.Cluster(m, res.Config.Epsilon, res.Config.MinSamples)
	acc["dbscan.ms"] += t.end(sp)
	if err != nil {
		return err
	}

	fixed := p
	fixed.FixedEpsilon = res.Config.Epsilon
	fixed.DisableRefinement = true
	sp = t.begin("core.cluster.fixed_eps.no_refine", key, root, true)
	_, err = core.ClusterPoolContext(ctx, pool, m, fixed)
	bare := t.end(sp)
	if err != nil {
		return err
	}
	fixed.DisableRefinement = false
	sp = t.begin("core.cluster.fixed_eps", key, root, true)
	_, err = core.ClusterPoolContext(ctx, pool, m, fixed)
	full := t.end(sp)
	if err != nil {
		return err
	}
	acc["core.refine.ms"] += full - bare
	return nil
}

// kMax mirrors the auto-configuration's candidate range 2…round(ln n),
// clamped to [2, n−1].
func kMax(n int) int {
	k := int(math.Round(math.Log(float64(n))))
	return max(2, min(k, n-1))
}

// curveCounts returns how many k-NN ECDF curves the auto-configuration
// smooths on the full population (one per candidate k with at least
// three distances) and how many distinct points they hold in total —
// the abscissae handed to the B-spline fit.
func curveCounts(table [][]float64) (curves, points int) {
	for k := 2; k <= len(table); k++ {
		xs := slices.Clone(table[k-1])
		if len(xs) < 3 {
			continue
		}
		slices.Sort(xs)
		curves++
		points += len(slices.Compact(xs))
	}
	return curves, points
}
