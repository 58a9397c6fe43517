// Package golden implements the golden-trace regression harness: it
// runs the full analysis pipeline on a fixed set of seeded synthetic
// traces and compares the headline numbers — ε, k', cluster count,
// precision, recall, F¼, byte coverage — against records checked into
// testdata/golden/. Any metric leaving its declared tolerance band
// fails the check, catching silent quality regressions that unit tests
// of individual stages cannot see.
//
// The records are regenerated with `goldencheck -update` (wired as
// `make golden-update`); the diff then documents exactly how a change
// moved the pipeline.
package golden

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"protoclust/internal/eval"
)

// Spec identifies one golden trace: a registered protocol generator, a
// message count, and the generator seed.
type Spec struct {
	Protocol string `json:"protocol"`
	Messages int    `json:"messages"`
	Seed     int64  `json:"seed"`
}

// String renders the spec as "proto-N", matching the paper's trace
// naming.
func (s Spec) String() string { return fmt.Sprintf("%s-%d", s.Protocol, s.Messages) }

// Record is the golden snapshot of one pipeline run.
type Record struct {
	Spec
	// Configuration selected by Algorithm 1 (after the 60 % guard).
	Epsilon    float64 `json:"epsilon"`
	K          int     `json:"k"`
	MinSamples int     `json:"min_samples"`
	FromKnee   bool    `json:"from_knee"`
	// Population and clustering shape.
	UniqueSegments int `json:"unique_segments"`
	Clusters       int `json:"clusters"`
	NoiseSegments  int `json:"noise_segments"`
	// Quality metrics (Section IV-A).
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	FScore    float64 `json:"f_score"`
	Coverage  float64 `json:"coverage"`
}

// Tolerance declares how far a freshly computed record may drift from
// its golden counterpart before the check fails. Integral structure
// (k, min_samples, unique segments, knee-vs-fallback) must match
// exactly; it is deterministic given the seeded generator.
type Tolerance struct {
	// Epsilon is the allowed absolute drift of ε.
	Epsilon float64
	// Metric is the allowed absolute drift of precision, recall, F¼,
	// and coverage.
	Metric float64
	// Clusters is the allowed absolute drift of the cluster count.
	Clusters int
	// Noise is the allowed absolute drift of the noise-segment count.
	Noise int
}

// DefaultTolerance bounds drift tightly: the pipeline is deterministic,
// so the bands only need to absorb minor floating-point reordering
// (e.g. a refactored summation), not behavioral change.
func DefaultTolerance() Tolerance {
	return Tolerance{Epsilon: 0.005, Metric: 0.01, Clusters: 1, Noise: 5}
}

// DefaultTraces is the golden trace set: every registered protocol at
// its small paper size (100 messages; AU at its fixed 123), plus the
// two 1000-message traces whose ε selection historically proved most
// sensitive to auto-configuration changes.
func DefaultTraces() []Spec {
	specs := []Spec{
		{"dhcp", 100, 1}, {"dns", 100, 1}, {"nbns", 100, 1}, {"ntp", 100, 1},
		{"smb", 100, 1}, {"awdl", 100, 1}, {"modbus", 100, 1}, {"au", 123, 1},
		{"dns", 1000, 1}, {"ntp", 1000, 1},
	}
	return specs
}

// Run executes the full pipeline — generate, deduplicate, ground-truth
// segment, dissimilarity matrix, auto-configured DBSCAN, refinement,
// evaluation — for one spec and returns its record. backend selects the
// dissimilarity-matrix backend ("auto", "condensed", "tiled"; "" =
// automatic). Every backend stores identically quantized values, so the
// records must come out identical — `make golden-check` exercises the
// default and the tiled path against the same golden files.
func Run(ctx context.Context, s Spec, backend string) (*Record, error) {
	res, dd, err := clusterTrace(ctx, s.Protocol, s.Messages, s.Seed, backend)
	if err != nil {
		return nil, err
	}
	met := eval.EvaluateResult(res)
	rec := &Record{
		Spec:           s,
		Epsilon:        res.Config.Epsilon,
		K:              res.Config.K,
		MinSamples:     res.Config.MinSamples,
		FromKnee:       res.Config.FromKnee,
		UniqueSegments: res.Pool.Size(),
		Clusters:       len(res.Clusters),
		NoiseSegments:  len(res.Noise),
		Precision:      met.Precision,
		Recall:         met.Recall,
		FScore:         met.FScore,
		Coverage:       eval.Coverage(res, dd),
	}
	return rec, nil
}

// Compare returns a list of human-readable violations of got against
// want under the tolerance bands; empty means the records agree.
func Compare(want, got *Record, tol Tolerance) []string {
	var v []string
	fail := func(format string, args ...interface{}) {
		v = append(v, fmt.Sprintf(format, args...))
	}
	if got.Spec != want.Spec {
		fail("spec mismatch: golden %v, got %v", want.Spec, got.Spec)
		return v
	}
	if math.Abs(got.Epsilon-want.Epsilon) > tol.Epsilon {
		fail("epsilon %.5f drifted from golden %.5f (band ±%.3g)", got.Epsilon, want.Epsilon, tol.Epsilon)
	}
	if got.K != want.K {
		fail("k = %d, golden %d", got.K, want.K)
	}
	if got.MinSamples != want.MinSamples {
		fail("min_samples = %d, golden %d", got.MinSamples, want.MinSamples)
	}
	if got.FromKnee != want.FromKnee {
		fail("from_knee = %v, golden %v", got.FromKnee, want.FromKnee)
	}
	if got.UniqueSegments != want.UniqueSegments {
		fail("unique segments = %d, golden %d", got.UniqueSegments, want.UniqueSegments)
	}
	if d := got.Clusters - want.Clusters; d > tol.Clusters || d < -tol.Clusters {
		fail("clusters = %d, golden %d (band ±%d)", got.Clusters, want.Clusters, tol.Clusters)
	}
	if d := got.NoiseSegments - want.NoiseSegments; d > tol.Noise || d < -tol.Noise {
		fail("noise segments = %d, golden %d (band ±%d)", got.NoiseSegments, want.NoiseSegments, tol.Noise)
	}
	metric := func(name string, g, w float64) {
		if math.Abs(g-w) > tol.Metric {
			fail("%s %.4f drifted from golden %.4f (band ±%.3g)", name, g, w, tol.Metric)
		}
	}
	metric("precision", got.Precision, want.Precision)
	metric("recall", got.Recall, want.Recall)
	metric("f_score", got.FScore, want.FScore)
	metric("coverage", got.Coverage, want.Coverage)
	return v
}

// Path returns the golden file path for a spec inside dir.
func Path(dir string, s Spec) string {
	return filepath.Join(dir, s.String()+".json")
}

// Load reads one golden record from path.
func Load(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("golden: parse %s: %w", path, err)
	}
	return &rec, nil
}

// Save writes one golden record to path, creating the directory as
// needed. The JSON is indented and newline-terminated so diffs stay
// reviewable.
func Save(path string, rec *Record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
