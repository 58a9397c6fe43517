// Package sweep implements the configuration-sweep harness: it fans a
// (segmenter × clusterer × k × ε-source) grid over a trace, computes
// the expensive shared prefixes (segmentation, dedup pool, Canberra
// dissimilarity matrix) once per distinct segmenter, scores every
// configuration against ground truth when available or internal
// validity when not, and reports the Pareto set. On top of the
// per-configuration labels it optionally runs co-association ensemble
// voting (see coassoc.go).
//
// Determinism contract: for a fixed (trace, options) input the report
// is byte-identical across runs and across GOMAXPROCS settings —
// workers write results into per-configuration slots and every
// accumulation (ensemble votes, Pareto front, counters) happens
// sequentially in grid order after the fan-out barrier. The package is
// covered by protoclustvet's determinism analyzer.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"protoclust"
	"protoclust/internal/core"
	"protoclust/internal/dbscan"
	"protoclust/internal/dissim"
	"protoclust/internal/eval"
	"protoclust/internal/netmsg"
	"protoclust/internal/segment"
)

// Epsilon-source modes of a sweep axis.
const (
	// EpsKnee selects ε by the paper's Algorithm 1 (knee detection).
	EpsKnee = "knee"
	// EpsQuantile selects ε as a quantile of the k-NN distances.
	EpsQuantile = "quantile"
	// EpsFixed pins ε to a constant (ablation A2).
	EpsFixed = "fixed"
)

// EpsSource is one value of the ε-source sweep axis.
type EpsSource struct {
	// Mode is EpsKnee, EpsQuantile, or EpsFixed.
	Mode string `json:"mode"`
	// Quantile is the k-NN distance quantile for EpsQuantile, in (0, 1).
	Quantile float64 `json:"quantile,omitempty"`
	// Epsilon is the pinned radius for EpsFixed.
	Epsilon float64 `json:"epsilon,omitempty"`
}

// String renders the source for labels and tables.
func (e EpsSource) String() string {
	switch e.Mode {
	case EpsQuantile:
		return fmt.Sprintf("quantile(%g)", e.Quantile)
	case EpsFixed:
		return fmt.Sprintf("fixed(%g)", e.Epsilon)
	default:
		return EpsKnee
	}
}

// ParseEps parses an ε-source spec: "knee", "quantile:0.6", or
// "fixed:0.25".
func ParseEps(spec string) (EpsSource, error) {
	if spec == EpsKnee {
		return EpsSource{Mode: EpsKnee}, nil
	}
	var mode, raw string
	switch {
	case strings.HasPrefix(spec, "quantile:"):
		mode, raw = EpsQuantile, strings.TrimPrefix(spec, "quantile:")
	case strings.HasPrefix(spec, "fixed:"):
		mode, raw = EpsFixed, strings.TrimPrefix(spec, "fixed:")
	default:
		return EpsSource{}, fmt.Errorf(`sweep: bad eps source %q (want "knee", "quantile:Q", or "fixed:E")`, spec)
	}
	val, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return EpsSource{}, fmt.Errorf("sweep: bad eps source %q: %w", spec, err)
	}
	if mode == EpsQuantile {
		if val <= 0 || val >= 1 {
			return EpsSource{}, fmt.Errorf("sweep: quantile %g outside (0, 1)", val)
		}
		return EpsSource{Mode: EpsQuantile, Quantile: val}, nil
	}
	if val <= 0 {
		return EpsSource{}, fmt.Errorf("sweep: fixed ε %g must be positive", val)
	}
	return EpsSource{Mode: EpsFixed, Epsilon: val}, nil
}

// Grid spans the sweep axes; the cartesian product (segmenter-major,
// then clusterer, then k, then ε-source) is the configuration list.
// Empty axes default to the paper's configuration for that axis.
type Grid struct {
	// Segmenters lists protoclust segmenter names (default: nemesys).
	Segmenters []string `json:"segmenters,omitempty"`
	// Clusterers lists core clusterer names (default: dbscan).
	Clusterers []string `json:"clusterers,omitempty"`
	// Ks lists k-NN ranks to pin; 0 means Algorithm 1's automatic
	// 2…round(ln n) search (default: [0]).
	Ks []int `json:"ks,omitempty"`
	// EpsSources lists ε sources (default: knee).
	EpsSources []EpsSource `json:"eps_sources,omitempty"`
}

// Config is one grid point.
type Config struct {
	// Index is the configuration's position in grid order; results,
	// Pareto references, and ensemble member lists all use it.
	Index     int       `json:"index"`
	Segmenter string    `json:"segmenter"`
	Clusterer string    `json:"clusterer"`
	K         int       `json:"k"` // 0 = automatic search
	Eps       EpsSource `json:"eps"`
}

// Label renders a compact human-readable identifier.
func (c Config) Label() string {
	k := "auto"
	if c.K > 0 {
		k = fmt.Sprintf("%d", c.K)
	}
	return fmt.Sprintf("%s/%s/k=%s/%s", c.Segmenter, c.Clusterer, k, c.Eps)
}

// params projects the configuration onto the pipeline parameter set.
func (c Config) params(base core.Params) core.Params {
	p := base
	p.Clusterer = c.Clusterer
	p.FixedK = c.K
	p.FixedEpsilon = 0
	p.EpsQuantile = 0
	switch c.Eps.Mode {
	case EpsQuantile:
		p.EpsQuantile = c.Eps.Quantile
	case EpsFixed:
		p.FixedEpsilon = c.Eps.Epsilon
	}
	return p
}

// Configs expands the grid into its configuration list, filling empty
// axes with defaults. The order is deterministic: segmenter-major so
// configurations sharing a matrix are contiguous.
func (g Grid) Configs() []Config {
	segmenters := g.Segmenters
	if len(segmenters) == 0 {
		segmenters = []string{protoclust.SegmenterNEMESYS}
	}
	clusterers := g.Clusterers
	if len(clusterers) == 0 {
		clusterers = []string{"dbscan"}
	}
	ks := g.Ks
	if len(ks) == 0 {
		ks = []int{0}
	}
	sources := g.EpsSources
	if len(sources) == 0 {
		sources = []EpsSource{{Mode: EpsKnee}}
	}
	var out []Config
	for _, seg := range segmenters {
		for _, cl := range clusterers {
			for _, k := range ks {
				for _, es := range sources {
					out = append(out, Config{
						Index: len(out), Segmenter: seg, Clusterer: cl, K: k, Eps: es,
					})
				}
			}
		}
	}
	return out
}

// Options configures a sweep run.
type Options struct {
	// Grid spans the axes.
	Grid Grid
	// Base carries the shared pipeline options; the sweep overrides the
	// axis fields (Segmenter, Clusterer, FixedK, EpsQuantile,
	// FixedEpsilon) per configuration and leaves everything else (penalty,
	// refinement thresholds, memory budget, ...) untouched.
	Base protoclust.Options
	// Ensemble enables co-association ensemble voting per segmenter
	// group.
	Ensemble bool
	// EnsembleWeighted weights each member's ensemble votes by its
	// sweep score (F-score under ground truth, silhouette otherwise)
	// instead of equally. Equal voting remains the default; the flag
	// only matters with Ensemble set.
	EnsembleWeighted bool
	// Parallelism bounds concurrent configuration runs; ≤ 0 means
	// GOMAXPROCS. Matrix builds are never concurrent with configuration
	// runs of the same group, and the report is identical at any setting.
	Parallelism int
	// SampleValues is the per-cluster hex sample count in embedded
	// reports (default 3).
	SampleValues int
	// Progress, when non-nil, observes completed configuration counts
	// (done out of total) as the sweep advances; used by the service to
	// expose per-sweep progress metrics. Called sequentially.
	Progress func(done, total int)
	// MatrixBuilt, when non-nil, observes each shared matrix build
	// (segmenter name); used by the service's cache-reuse metrics.
	MatrixBuilt func(segmenter string)
}

// Config statuses.
const (
	StatusOK      = "ok"
	StatusSkipped = "skipped"
	StatusFailed  = "failed"
)

// Scores are the per-configuration quality metrics. Truth-based fields
// are present only when the trace carries ground-truth dissections.
type Scores struct {
	// Clusters and NoiseSegments summarize the clustering shape.
	Clusters      int `json:"clusters"`
	NoiseSegments int `json:"noise_segments"`
	// Epsilon and K are the effective DBSCAN radius and selected k.
	Epsilon float64 `json:"epsilon"`
	K       int     `json:"k"`
	// Silhouette is the internal validity score over the shared matrix.
	Silhouette float64 `json:"silhouette"`
	// ClusteredShare is the fraction of unique segments not in noise.
	ClusteredShare float64 `json:"clustered_share"`
	// Truth-based metrics (Section IV-A plus ARI/V-measure).
	Precision    float64 `json:"precision,omitempty"`
	Recall       float64 `json:"recall,omitempty"`
	FScore       float64 `json:"f_score,omitempty"`
	AdjustedRand float64 `json:"adjusted_rand,omitempty"`
	VMeasure     float64 `json:"v_measure,omitempty"`
	Coverage     float64 `json:"coverage,omitempty"`
}

// ConfigResult is one grid point's outcome.
type ConfigResult struct {
	Config Config `json:"config"`
	// Status is StatusOK, StatusSkipped, or StatusFailed.
	Status string `json:"status"`
	// Reason explains a skip or failure ("skipped: <cause>" semantics of
	// the report: the configuration was structurally inapplicable — e.g.
	// the pool is too small for the pinned k — rather than broken).
	Reason string `json:"reason,omitempty"`
	// Scores are present when Status is ok.
	Scores *Scores `json:"scores,omitempty"`
	// Pareto marks membership in the non-dominated set.
	Pareto bool `json:"pareto"`
	// Report is the full analysis report, byte-identical to a direct
	// protoclust.AnalyzeContext run with this configuration.
	Report *protoclust.Report `json:"report,omitempty"`

	// labels is the pool labeling (dbscan.Noise for noise), kept for
	// ensemble voting; not serialized.
	labels []int
}

// Report is the machine-readable sweep outcome.
type Report struct {
	// Trace identifies the analyzed trace.
	Trace string `json:"trace"`
	// Truth reports whether scoring used ground-truth dissections
	// (ARI/V-measure/F-score) or internal validity only.
	Truth bool `json:"truth"`
	// Total, Completed, Skipped, and Failed count configurations.
	Total     int `json:"total"`
	Completed int `json:"completed"`
	Skipped   int `json:"skipped"`
	Failed    int `json:"failed"`
	// MatrixBuilds counts distinct (segmenter, pool) dissimilarity
	// matrices computed — the cache-reuse witness: it stays at the number
	// of distinct segmenters no matter how many configurations ran.
	MatrixBuilds int `json:"matrix_builds"`
	// Objectives names the Pareto objective vector, in order.
	Objectives []string `json:"objectives"`
	// Configs lists every grid point in grid order.
	Configs []ConfigResult `json:"configs"`
	// Pareto lists the indexes of non-dominated configurations,
	// ascending.
	Pareto []int `json:"pareto"`
	// Ensembles holds the per-segmenter co-association results when
	// ensemble voting was requested.
	Ensembles []EnsembleResult `json:"ensembles,omitempty"`
}

// skippable classifies errors that mark a configuration as structurally
// inapplicable to this trace — degenerate grids must surface as
// per-config "skipped: reason" entries, not abort the sweep.
func skippable(err error) bool {
	return errors.Is(err, core.ErrTooFewSegments) ||
		errors.Is(err, core.ErrKOutOfRange) ||
		errors.Is(err, core.ErrBadQuantile) ||
		errors.Is(err, core.ErrAllIdentical) ||
		errors.Is(err, segment.ErrBudgetExceeded) ||
		errors.Is(err, dissim.ErrPoolTooLarge)
}

// group is the shared prefix of all configurations of one segmenter:
// the segmentation, dedup pool, and dissimilarity matrix, or the error
// that voids them all.
type group struct {
	segs []netmsg.Segment
	pool *dissim.Pool
	m    *dissim.Matrix
	err  error
}

// Run executes the sweep. The context aborts every fan-out branch: a
// cancelled context fails the whole run (it is the only error class
// that does — per-configuration errors become skipped/failed entries).
// An unknown clusterer name fails the run before any segmentation or
// matrix build.
func Run(ctx context.Context, tr *protoclust.Trace, o Options) (rep *Report, err error) {
	if tr == nil || len(tr.Messages) == 0 {
		return nil, errors.New("sweep: empty trace")
	}
	for _, cl := range o.Grid.Clusterers {
		if err := core.CheckClusterer(cl); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
	}
	configs := o.Grid.Configs()
	base := o.Base
	if base.Params == (core.Params{}) {
		base.Params = core.DefaultParams()
	}
	samples := o.SampleValues
	if samples <= 0 {
		samples = 3
	}
	workers := o.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(configs) {
		workers = len(configs)
	}

	if !base.NoDeduplicate {
		tr = tr.Deduplicate()
	}
	truth := hasTruth(tr)

	rep = &Report{
		Trace:      tr.Protocol,
		Truth:      truth,
		Total:      len(configs),
		Objectives: objectiveNames(truth),
		Configs:    make([]ConfigResult, len(configs)),
	}

	// Shared-prefix stage: segment once and build the matrix once per
	// distinct segmenter, in first-appearance order. Skippable errors
	// void the group's configurations; context errors abort the sweep.
	groups := make(map[string]*group)
	var segOrder []string
	for _, c := range configs {
		if _, ok := groups[c.Segmenter]; !ok {
			groups[c.Segmenter] = nil
			segOrder = append(segOrder, c.Segmenter)
		}
	}
	// Run owns every group matrix: each is closed on every return path,
	// after the ensembles have read it.
	defer func() {
		for _, name := range segOrder {
			if g := groups[name]; g != nil && g.m != nil {
				if cerr := g.m.Close(); cerr != nil {
					rep, err = nil, errors.Join(err, fmt.Errorf("sweep: segmenter %s: close matrix: %w", name, cerr))
				}
			}
		}
	}()
	for _, name := range segOrder {
		g, err := buildGroup(ctx, tr, name, base.Params)
		if err != nil {
			if ctx.Err() != nil {
				return nil, fmt.Errorf("sweep: %w", context.Cause(ctx))
			}
			if !skippable(err) {
				return nil, fmt.Errorf("sweep: segmenter %s: %w", name, err)
			}
			g = &group{err: err}
		} else {
			rep.MatrixBuilds++
			if o.MatrixBuilt != nil {
				o.MatrixBuilt(name)
			}
		}
		groups[name] = g
	}

	// Fan-out stage: bounded workers pull configuration indexes and
	// write into their result slot; no cross-slot state is touched until
	// the barrier below, so the report is independent of scheduling.
	idxCh := make(chan int)
	var wg sync.WaitGroup
	var progressMu sync.Mutex
	done := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				rep.Configs[i] = runConfig(ctx, tr, groups[configs[i].Segmenter], configs[i], base.Params, truth, samples)
				if o.Progress != nil {
					progressMu.Lock()
					done++
					o.Progress(done, len(configs))
					progressMu.Unlock()
				}
			}
		}()
	}
	for i := range configs {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	if ctx.Err() != nil {
		return nil, fmt.Errorf("sweep: %w", context.Cause(ctx))
	}

	// Sequential accumulation in grid order.
	for i := range rep.Configs {
		switch rep.Configs[i].Status {
		case StatusOK:
			rep.Completed++
		case StatusSkipped:
			rep.Skipped++
		default:
			rep.Failed++
		}
	}
	markPareto(rep, truth)

	if o.Ensemble {
		for _, name := range segOrder {
			g := groups[name]
			if g.err != nil {
				continue
			}
			ens, err := ensembleGroup(ctx, name, g, rep.Configs, truth, o.EnsembleWeighted)
			if err != nil {
				if ctx.Err() != nil {
					return nil, fmt.Errorf("sweep: %w", context.Cause(ctx))
				}
				return nil, fmt.Errorf("sweep: ensemble %s: %w", name, err)
			}
			if ens != nil {
				rep.Ensembles = append(rep.Ensembles, *ens)
			}
		}
	}
	return rep, nil
}

// buildGroup computes one segmenter's shared prefix. Run owns the
// group's matrix and closes it.
func buildGroup(ctx context.Context, tr *protoclust.Trace, segmenter string, p core.Params) (*group, error) {
	seg, err := protoclust.NewSegmenter(segmenter)
	if err != nil {
		return nil, err
	}
	segs, err := segment.Run(ctx, seg, tr)
	if err != nil {
		return nil, err
	}
	pool, m, err := core.BuildMatrix(ctx, segs, p, nil)
	if err != nil {
		return nil, err
	}
	return &group{segs: segs, pool: pool, m: m}, nil
}

// runConfig executes one grid point against its group's shared matrix.
func runConfig(ctx context.Context, tr *protoclust.Trace, g *group, c Config, base core.Params, truth bool, samples int) ConfigResult {
	out := ConfigResult{Config: c}
	if g.err != nil {
		out.Status = StatusSkipped
		out.Reason = g.err.Error()
		return out
	}
	res, err := core.ClusterPoolContext(ctx, g.pool, g.m, c.params(base))
	if err != nil {
		if ctx.Err() != nil {
			out.Status = StatusFailed
			out.Reason = err.Error()
			return out
		}
		if skippable(err) {
			out.Status = StatusSkipped
		} else {
			out.Status = StatusFailed
		}
		out.Reason = err.Error()
		return out
	}
	out.Status = StatusOK
	out.labels = poolLabels(res)
	out.Scores = score(res, g.m, out.labels, tr, truth)
	out.Report = protoclust.NewAnalysis(tr, g.segs, res).Report(samples)
	return out
}

// poolLabels projects a pipeline result onto per-pool-index labels
// (dbscan.Noise for unclustered entries).
func poolLabels(res *core.Result) []int {
	labels := make([]int, res.Pool.Size())
	for i := range labels {
		labels[i] = dbscan.Noise
	}
	for _, c := range res.Clusters {
		for _, idx := range c.UniqueIndexes {
			labels[idx] = c.ID
		}
	}
	return labels
}

// score computes the quality metrics of one result.
func score(res *core.Result, m *dissim.Matrix, labels []int, tr *protoclust.Trace, truth bool) *Scores {
	s := &Scores{
		Clusters:   len(res.Clusters),
		Epsilon:    res.Config.Epsilon,
		K:          res.Config.K,
		Silhouette: eval.Silhouette(m, labels),
	}
	clustered := 0
	for _, l := range labels {
		if l != dbscan.Noise {
			clustered++
		}
	}
	if len(labels) > 0 {
		s.ClusteredShare = float64(clustered) / float64(len(labels))
	}
	s.NoiseSegments = len(res.Noise)
	if truth {
		cm := eval.EvaluateResult(res)
		s.Precision, s.Recall, s.FScore = cm.Precision, cm.Recall, cm.FScore
		ext := eval.ExternalResult(res)
		s.AdjustedRand, s.VMeasure = ext.AdjustedRand, ext.VMeasure
		s.Coverage = eval.Coverage(res, tr)
	}
	return s
}

// objectiveNames lists the Pareto objective vector (all maximized).
func objectiveNames(truth bool) []string {
	if truth {
		return []string{"f_score", "adjusted_rand", "coverage"}
	}
	return []string{"silhouette", "clustered_share"}
}

// objectives projects scores onto the objective vector.
func objectives(s *Scores, truth bool) []float64 {
	if truth {
		return []float64{s.FScore, s.AdjustedRand, s.Coverage}
	}
	return []float64{s.Silhouette, s.ClusteredShare}
}

// markPareto computes the non-dominated set over completed
// configurations (maximizing every objective) and annotates the report.
// Ties on every objective are mutually non-dominating, so equal-scoring
// configurations all land on the front.
func markPareto(rep *Report, truth bool) {
	for i := range rep.Configs {
		ci := &rep.Configs[i]
		if ci.Status != StatusOK {
			continue
		}
		oi := objectives(ci.Scores, truth)
		dominated := false
		for j := range rep.Configs {
			cj := &rep.Configs[j]
			if i == j || cj.Status != StatusOK {
				continue
			}
			if dominates(objectives(cj.Scores, truth), oi) {
				dominated = true
				break
			}
		}
		if !dominated {
			ci.Pareto = true
			rep.Pareto = append(rep.Pareto, i)
		}
	}
}

// dominates reports whether a ≥ b on every objective and a > b on at
// least one (Pareto dominance, maximization).
func dominates(a, b []float64) bool {
	better := false
	for i := range a {
		if a[i] < b[i] {
			return false
		}
		if a[i] > b[i] {
			better = true
		}
	}
	return better
}

// hasTruth reports whether every message of the trace carries a
// ground-truth dissection — the condition for truth-based scoring.
func hasTruth(tr *protoclust.Trace) bool {
	for _, m := range tr.Messages {
		if m.Fields == nil {
			return false
		}
	}
	return len(tr.Messages) > 0
}
