package service

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"protoclust"
	"protoclust/internal/format"
	"protoclust/internal/sweep"
)

// kindID indexes the service's kind table.
type kindID int

// The job kinds: the paper's plain analysis, a configuration sweep, and
// a field-type recognition.
const (
	kindAnalysis kindID = iota
	kindSweep
	kindFormat
	numKinds
)

// kind is the one place a job's kind is worked out: a sweep section
// makes a sweep job, a format section a format job (Validate rejects
// both), and neither a plain analysis. The persisted spec carries the
// sections, so a job replayed from the job store keeps its kind.
func (sp *JobSpec) kind() kindID {
	switch {
	case sp.Sweep != nil:
		return kindSweep
	case sp.Format != nil:
		return kindFormat
	}
	return kindAnalysis
}

// jobKind is one row of the kind table: everything the shared run loop,
// result getter and routes need to know about one kind of job.
type jobKind struct {
	// name is the kind's noun in errors. Sweep and format jobs are also
	// timed as one stage of that name.
	name string
	// route is the URL prefix /v1/{route} of the kind's submit, status
	// and result endpoints, and the spill subdirectory of sweep and
	// format results (analysis reports spill to the cache root).
	route string
	// suffix returns the kind's canonical cache-key suffix.
	suffix func(*JobSpec) string
	// cache holds the kind's results, typed by the kind.
	cache resultCache
	// compute runs the job on a cache miss, returning the result and the
	// stage timings to record. A kind that reports no timings is
	// recorded as one stage named after it, timed from job start.
	compute func(ctx context.Context, j *job, tr *protoclust.Trace, opts protoclust.Options) (any, []protoclust.StageTiming, error)
}

// newKinds builds the service's kind table. The spill layout (analysis
// at the cache root, sweeps/ and formats/ below it) and the key
// suffixes are those of earlier releases, so a warm cache directory
// keeps serving.
func (s *Service) newKinds() [numKinds]jobKind {
	n, dir := s.cfg.CacheEntries, s.cfg.CacheDir
	sub := func(route string) string {
		if dir == "" {
			return ""
		}
		return filepath.Join(dir, route)
	}
	return [numKinds]jobKind{
		kindAnalysis: {
			name: "plain analysis", route: "jobs",
			suffix:  func(*JobSpec) string { return "" },
			cache:   NewCache(n, dir),
			compute: s.analyze,
		},
		kindSweep: {
			name: "sweep", route: "sweeps",
			suffix:  func(sp *JobSpec) string { return sp.Sweep.canonical() },
			cache:   newJSONCache[sweep.Report](n, sub("sweeps")),
			compute: s.runSweep,
		},
		kindFormat: {
			name: "format", route: "formats",
			suffix:  func(sp *JobSpec) string { return sp.Format.canonical() },
			cache:   newJSONCache[format.Schema](n, sub("formats")),
			compute: s.recognizeFormat,
		},
	}
}

// run executes one job of any kind: build the trace, key it, consult
// the kind's cache, compute on a miss, and record the terminal state.
func (s *Service) run(ctx context.Context, j *job) {
	start := time.Now()
	k := &s.kinds[j.spec.kind()]
	tr, opts, err := s.prepare(j.spec)
	var (
		result any
		hit    bool
		key    string
	)
	if err == nil {
		// Content address: options + kind suffix + deduplicated payload
		// bytes, so a resubmitted trace (or one with extra duplicates) hits.
		keyed := tr
		if !opts.NoDeduplicate {
			keyed = tr.Deduplicate()
		}
		key = cacheKey(keyed, opts, k.suffix(&j.spec))
		if result, hit = k.cache.getAny(key); hit {
			s.metrics.CacheHits.Add(1)
		} else {
			s.metrics.CacheMisses.Add(1)
			var timings []protoclust.StageTiming
			if result, timings, err = k.compute(ctx, j, tr, opts); err == nil {
				k.cache.putAny(key, result)
				if len(timings) == 0 {
					timings = []protoclust.StageTiming{{Stage: k.name, Duration: time.Since(start)}}
				}
				for _, t := range timings {
					s.metrics.ObserveStage(t.Stage, t.Duration)
				}
				j.mu.Lock()
				j.timings = append(j.timings, timings...)
				j.mu.Unlock()
			}
		}
	}
	j.mu.Lock()
	j.result = result
	j.mu.Unlock()
	s.finalize(ctx, j, start, err, hit, key)
}

// analyze is the plain-analysis compute: the paper's pipeline, with the
// matrix build sharded over the worker fleet in distributed mode.
func (s *Service) analyze(ctx context.Context, j *job, tr *protoclust.Trace, opts protoclust.Options) (any, []protoclust.StageTiming, error) {
	analysis, err := protoclust.AnalyzeWithMatrixBuilder(ctx, tr, opts, s.matrixBuilder(j, opts))
	if err != nil {
		return nil, nil, err
	}
	samples := j.spec.Samples
	if samples <= 0 {
		samples = 4
	}
	return analysis.Report(samples), analysis.Timings(), nil
}

// result returns the result of a done job of kind want; ErrNotFinished
// while the job is queued or running, the job's failure otherwise, and
// an error naming the right route for a job of another kind.
func (s *Service) result(id string, want kindID) (any, error) {
	j, ok := s.lookup(id)
	if !ok {
		return nil, ErrUnknownJob
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch got := j.spec.kind(); {
	case got != want:
		return nil, fmt.Errorf("service: job %s is not a %s job; use /v1/%s/%s/result",
			j.id, s.kinds[want].name, s.kinds[got].route, j.id)
	case !j.state.Terminal():
		return nil, ErrNotFinished
	case j.state == StateDone:
		return j.result, nil
	default:
		return nil, fmt.Errorf("service: job %s %s: %s", j.id, j.state, j.errMsg)
	}
}

// typedResult narrows a result to its kind's type.
func typedResult[T any](v any, err error) (*T, error) {
	r, _ := v.(*T)
	return r, err
}
