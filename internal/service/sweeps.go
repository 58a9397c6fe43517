package service

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"protoclust"
	"protoclust/internal/sweep"
)

// maxSweepConfigs bounds one sweep's grid size: beyond it a submission
// is rejected outright rather than occupying a worker for hours.
const maxSweepConfigs = 1024

// SweepRequest is the sweep section of a JobSpec: the grid axes plus
// the ensemble switch. The embedded trace source and base options of
// the JobSpec apply to every configuration; the grid overrides the axis
// fields per configuration.
type SweepRequest struct {
	// Segmenters, Clusterers, Ks, and EpsSources span the grid; empty
	// axes default to the paper's configuration for that axis. Eps
	// sources use the sweep spec syntax: "knee", "quantile:Q", "fixed:E".
	Segmenters []string `json:"segmenters,omitempty"`
	Clusterers []string `json:"clusterers,omitempty"`
	Ks         []int    `json:"ks,omitempty"`
	EpsSources []string `json:"eps_sources,omitempty"`
	// Ensemble enables co-association ensemble voting per segmenter.
	Ensemble bool `json:"ensemble,omitempty"`
	// Weighted makes ensemble members vote with their sweep score
	// (F-score under truth, silhouette otherwise) instead of equally.
	Weighted bool `json:"weighted,omitempty"`
}

// grid parses and validates the request into a sweep grid.
func (r *SweepRequest) grid() (sweep.Grid, error) {
	g := sweep.Grid{Segmenters: r.Segmenters, Clusterers: r.Clusterers, Ks: r.Ks}
	for _, name := range r.Segmenters {
		if _, err := protoclust.NewSegmenter(name); err != nil {
			return g, err
		}
	}
	for _, cl := range r.Clusterers {
		switch cl {
		case "dbscan", "optics", "hdbscan":
		default:
			return g, fmt.Errorf("service: unknown clusterer %q", cl)
		}
	}
	for _, k := range r.Ks {
		if k < 0 || k == 1 {
			return g, fmt.Errorf("service: sweep k must be 0 (auto) or ≥ 2, got %d", k)
		}
	}
	for _, spec := range r.EpsSources {
		es, err := sweep.ParseEps(spec)
		if err != nil {
			return g, err
		}
		g.EpsSources = append(g.EpsSources, es)
	}
	if n := len(g.Configs()); n > maxSweepConfigs {
		return g, fmt.Errorf("service: sweep grid has %d configurations, limit is %d", n, maxSweepConfigs)
	}
	return g, nil
}

// SweepCacheKey derives the content address of a sweep: the analysis
// cache key material (canonical base options + deduplicated payloads)
// extended with the canonical grid encoding. Axis order is significant —
// configuration indexes, and with them ensemble member lists, depend on
// it.
func SweepCacheKey(tr *protoclust.Trace, o protoclust.Options, req *SweepRequest) string {
	return cacheKey(tr, o, req.canonical())
}

// canonical encodes the grid axes as the sweep's cache-key suffix. %q
// renders string slices with quoting, keeping the encoding injective
// for any segmenter or ε-source spelling. The version prefix ("sweep2"
// since the weighted-vote field joined) discards older cache entries
// whose encoding lacked a field.
func (r *SweepRequest) canonical() string {
	return fmt.Sprintf("sweep2\x00segs=%q\x00cls=%q\x00ks=%v\x00eps=%q\x00ens=%t\x00wens=%t\x00",
		r.Segmenters, r.Clusterers, r.Ks, r.EpsSources, r.Ensemble, r.Weighted)
}

// sweepProgress is one running sweep's completion state, updated by the
// sweep's progress callback and scraped by /metrics.
type sweepProgress struct {
	done  atomic.Int64
	total atomic.Int64
}

// sweepProgressSnapshot renders the running sweeps for the metrics
// exposition, sorted by job ID.
func (s *Service) sweepProgressSnapshot() []SweepProgress {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	ids := make([]string, 0, len(s.sweeps))
	for id := range s.sweeps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]SweepProgress, 0, len(ids))
	for _, id := range ids {
		p := s.sweeps[id]
		out = append(out, SweepProgress{Job: id, Done: int(p.done.Load()), Total: int(p.total.Load())})
	}
	return out
}

// runSweep is the sweep compute: it fans the grid out over the trace.
// The sweep's internal parallelism is bounded by the worker-pool size,
// so a sweep job saturates the pool the same way that many individual
// jobs would, without starving the queue of its slot accounting.
func (s *Service) runSweep(ctx context.Context, j *job, tr *protoclust.Trace, opts protoclust.Options) (any, []protoclust.StageTiming, error) {
	grid, err := j.spec.Sweep.grid()
	if err != nil {
		return nil, nil, err
	}
	progress := &sweepProgress{}
	progress.total.Store(int64(len(grid.Configs())))
	s.sweepMu.Lock()
	s.sweeps[j.id] = progress
	s.sweepMu.Unlock()
	rep, err := sweep.Run(ctx, tr, sweep.Options{
		Grid:             grid,
		Base:             opts,
		Ensemble:         j.spec.Sweep.Ensemble,
		EnsembleWeighted: j.spec.Sweep.Weighted,
		Parallelism:      s.cfg.Workers,
		SampleValues:     j.spec.Samples,
		Progress: func(done, total int) {
			progress.done.Store(int64(done))
			progress.total.Store(int64(total))
			s.metrics.SweepConfigs.Add(1)
		},
		MatrixBuilt: func(string) { s.metrics.SweepMatrixBuilds.Add(1) },
	})
	s.sweepMu.Lock()
	delete(s.sweeps, j.id)
	s.sweepMu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	return rep, nil, nil
}

// SweepResult returns the sweep report of a done sweep job;
// ErrNotFinished while queued or running, the job's failure otherwise,
// and an explanatory error for non-sweep jobs.
func (s *Service) SweepResult(id string) (*sweep.Report, error) {
	return typedResult[sweep.Report](s.result(id, kindSweep))
}
