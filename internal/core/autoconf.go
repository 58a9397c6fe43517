package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"protoclust/internal/dissim"
	"protoclust/internal/ecdf"
	"protoclust/internal/kneedle"
	"protoclust/internal/spline"
	"protoclust/internal/vecmath"
)

// AutoConfig is the outcome of the ε auto-configuration (Algorithm 1),
// including the diagnostic curve behind Figure 2.
type AutoConfig struct {
	// Epsilon is the selected DBSCAN ε.
	Epsilon float64
	// MinSamples is DBSCAN's min_samples (round(ln n)).
	MinSamples int
	// K is the selected nearest-neighbor rank k' whose ECDF had the
	// sharpest knee.
	K int
	// FromKnee reports whether ε came from a detected knee (true) or
	// from the quantile fallback (false).
	FromKnee bool
	// Curve is the ECDF of the selected Ê_k: the distinct sorted k-NN
	// dissimilarities (X), the ECDF value at each (Y; vertical runs from
	// repeated distances are collapsed to their final step), and the
	// B-spline smoothed values (Smoothed).
	Curve CurveData
}

// CurveData carries the (x, y) series of an ECDF and its smoothing, for
// reports and Figure 2.
type CurveData struct {
	X        []float64
	Y        []float64
	Smoothed []float64
	// KneeIndex is the index of the selected knee in X, or -1.
	KneeIndex int
}

// ErrTooFewSegments is returned when fewer than three unique segments
// are available — no meaningful density estimate exists.
var ErrTooFewSegments = errors.New("core: need at least three unique segments")

// ErrKOutOfRange is returned when Params.FixedK lies outside the
// [2, round(ln n)] candidate range Algorithm 1 searches; the sweep
// harness reports such configurations as skipped rather than failing
// the whole grid.
var ErrKOutOfRange = errors.New("core: fixed k outside the [2, ln n] candidate range")

// ErrBadQuantile is returned when Params.EpsQuantile is not in [0, 1).
var ErrBadQuantile = errors.New("core: eps quantile must be in [0, 1)")

// ErrAllIdentical is returned when every candidate distance is zero and
// no positive pairwise dissimilarity exists anywhere in the matrix —
// there is nothing to cluster.
var ErrAllIdentical = errors.New("core: all segments identical; nothing to cluster")

// fallbackQuantile is the k-NN distance quantile used when no knee is
// detected.
const fallbackQuantile = 0.6

// kneeProminenceShare discards knees whose Kneedle difference value is
// below this share of the curve's most prominent knee — faint bends in
// the sparse ECDF tail would otherwise masquerade as the rightmost knee.
const kneeProminenceShare = 0.33

// Configure runs the ε auto-configuration of Algorithm 1 on the full
// dissimilarity population.
func Configure(m *dissim.Matrix, p Params) (*AutoConfig, error) {
	return ConfigureContext(context.Background(), m, p)
}

// ConfigureContext is Configure with a cancellation checkpoint per
// candidate k — each iteration sorts, smooths, and knee-detects one
// ECDF, so a cancelled context aborts within one curve's work.
func ConfigureContext(ctx context.Context, m *dissim.Matrix, p Params) (*AutoConfig, error) {
	table, err := knnTable(m, p)
	if err != nil {
		return nil, err
	}
	return configure(ctx, m, table, p, math.Inf(1))
}

// knnTable checks p against m for Algorithm 1 and returns the k-NN
// table every configure pass over m reads: table[k-1][i] is segment i's
// distance to its k-th nearest neighbor, for k up to kMax(n).
func knnTable(m *dissim.Matrix, p Params) ([][]float64, error) {
	n := m.Len()
	if n < 3 {
		return nil, fmt.Errorf("%w (have %d)", ErrTooFewSegments, n)
	}
	if p.EpsQuantile < 0 || p.EpsQuantile >= 1 {
		return nil, fmt.Errorf("%w (got %g)", ErrBadQuantile, p.EpsQuantile)
	}
	kHi := kMax(n)
	if p.FixedK != 0 && (p.FixedK < 2 || p.FixedK > kHi) {
		return nil, fmt.Errorf("%w: k=%d, candidates are [2, %d] for n=%d", ErrKOutOfRange, p.FixedK, kHi, n)
	}
	table, err := m.KNNTable(kHi)
	if err != nil {
		return nil, fmt.Errorf("core: k-NN distances: %w", err)
	}
	return table, nil
}

// configure implements Algorithm 1 on the k-NN table of m (see
// knnTable), considering only k-NN distances strictly below cut
// (math.Inf(1) for the full population; the 60 %-guard re-runs with
// cut = d_κ, realising Ê'_k of Section III-E).
func configure(ctx context.Context, m *dissim.Matrix, table [][]float64, p Params, cut float64) (*AutoConfig, error) {
	n := m.Len()
	kLo, kHi := 2, len(table)
	if p.FixedK != 0 {
		kLo, kHi = p.FixedK, p.FixedK
	}

	// For each k build the ECDF of k-NN distances (below cut), smooth
	// it, and detect its knees. The per-k sharpness δB̂_k is the
	// prominence of its sharpest knee; faint tail wiggles are discarded
	// by the prominence filter before the rightmost knee is selected.
	type kCurve struct {
		k        int
		raw      []float64      // sorted k-NN dissimilarities, duplicates kept
		xs       []float64      // distinct sorted distances (ECDF abscissae)
		ys       []float64      // ECDF values at xs (final step per distinct x)
		smoothed []float64      // B-spline smoothed ECDF
		knees    []kneedle.Knee // prominent knees, ascending x
		sharp    float64        // sharpness: max knee prominence
		gap      float64        // fallback sharpness: largest step gap
	}
	var curves []kCurve
	for k := kLo; k <= kHi; k++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: auto-configuration: %w", err)
		}
		knn := table[k-1]
		xs := make([]float64, 0, len(knn))
		for _, d := range knn {
			if d < cut {
				xs = append(xs, d)
			}
		}
		if len(xs) < 3 {
			continue
		}
		slices.Sort(xs)
		e, err := ecdf.New(xs)
		if err != nil {
			return nil, fmt.Errorf("core: ecdf: %w", err)
		}
		c := kCurve{k: k, raw: xs}
		c.gap, _ = e.MaxStepGap()
		// Repeated k-NN distances are vertical runs of the step function:
		// handed to the spline and knee detector as-is they make the
		// "curve" multi-valued in x. Collapse each run to one point per
		// distinct distance. The reported curve carries the true
		// right-continuous ECDF Ê(x) = (last index of x + 1)/n; the
		// smoothing fit targets each run's mean step height with the run
		// multiplicity as its weight, which reproduces the least-squares
		// objective over all n samples of the step graph exactly (every
		// duplicate shares one basis row, so summing its residuals equals
		// weighting the run mean).
		var fitYs, weights []float64
		c.xs, c.ys, fitYs, weights = collapseSteps(xs)
		c.smoothed = spline.SmoothWeighted(c.xs, fitYs, weights, p.SplineSmoothness)
		// Knee detection runs on the full sample grid: each distinct
		// distance is repeated with its multiplicity (all copies sharing
		// the single-valued smoothed ordinate), so ties keep their
		// probability mass in the difference curve and Kneedle's
		// confirmation-threshold spacing stays 1/(n−1) over the raw
		// population. Knee abscissae are actual distances either way; the
		// index is mapped back to the collapsed curve below.
		rawSmoothed := make([]float64, 0, len(xs))
		for j, w := range weights {
			for r := 0; r < int(w); r++ {
				rawSmoothed = append(rawSmoothed, c.smoothed[j])
			}
		}
		knees, err := kneedle.Find(xs, rawSmoothed, kneedle.ConcaveIncreasing, p.KneedleSensitivity)
		if err != nil && !errors.Is(err, kneedle.ErrDomain) && !errors.Is(err, kneedle.ErrTooShort) {
			return nil, fmt.Errorf("core: kneedle: %w", err)
		}
		c.knees = kneedle.FilterProminent(knees, kneeProminenceShare)
		for _, kn := range c.knees {
			if kn.Prominence > c.sharp {
				c.sharp = kn.Prominence
			}
		}
		curves = append(curves, c)
	}
	if len(curves) == 0 {
		return nil, fmt.Errorf("%w after trimming", ErrTooFewSegments)
	}

	// k' = argmax_k δB̂_k: the k whose ECDF has the sharpest knee. When
	// no curve has a knee, fall back to the largest raw distance gap.
	// Ties are strict-greater comparisons, so two curves with exactly
	// equal sharpness (or gap) deterministically resolve to the smaller
	// k — curves are visited in ascending k order.
	best := curves[0]
	for _, c := range curves[1:] {
		if c.sharp > best.sharp || (vecmath.IsZero(best.sharp) && vecmath.IsZero(c.sharp) && c.gap > best.gap) {
			best = c
		}
	}

	ac := &AutoConfig{
		MinSamples: minSamples(n),
		K:          best.k,
		Curve: CurveData{
			X:         best.xs,
			Y:         best.ys,
			Smoothed:  best.smoothed,
			KneeIndex: -1,
		},
	}

	// Quantile ε source (sweep harness): skip knee selection entirely
	// and take the configured quantile of the selected curve's raw k-NN
	// distances — the same population the knee-less fallback below uses
	// with its fixed fallbackQuantile.
	if p.EpsQuantile > 0 {
		return ac, quantileEpsilon(ac, best.raw, m, p.EpsQuantile)
	}

	// The rightmost prominent knee's distance becomes ε. Knees that tie
	// exactly on prominence both survive the prominence filter above, so
	// the tie-break is positional and documented: the knee with the
	// larger distance (rightmost) wins. The knee index refers to the
	// sample grid the detector ran on; locate the same distance on the
	// collapsed curve for reporting.
	if k, ok := kneedle.Rightmost(best.knees); ok && k.X > 0 {
		ac.Epsilon = k.X
		ac.FromKnee = true
		if i, found := slices.BinarySearch(best.xs, k.X); found {
			ac.Curve.KneeIndex = i
		}
		return ac, nil
	}

	// Fallback: no knee detected (e.g. nearly uniform distances). Use a
	// fixed quantile of the k-NN distances so clustering can proceed.
	return ac, quantileEpsilon(ac, best.raw, m, fallbackQuantile)
}

// quantileEpsilon sets ac.Epsilon to the q-quantile of the raw k-NN
// distances. The quantile is taken over the raw population — duplicates
// carry probability mass even though the curve collapses them. A zero
// quantile value falls back to the smallest positive pairwise
// dissimilarity anywhere in the matrix, or fails with ErrAllIdentical.
func quantileEpsilon(ac *AutoConfig, raw []float64, m *dissim.Matrix, q float64) error {
	ac.Epsilon = vecmath.Percentile(raw, q*100)
	if ac.Epsilon <= 0 {
		// All candidate distances are zero — pick the smallest positive
		// pairwise dissimilarity, or give up. MinPositive streams the
		// matrix instead of materializing the n(n−1)/2 upper triangle.
		pos := m.MinPositive()
		if math.IsInf(pos, 1) {
			return ErrAllIdentical
		}
		ac.Epsilon = pos
	}
	return nil
}

// collapseSteps reduces a sorted sample slice to one point per distinct
// x: the last step of each vertical run (the right-continuous ECDF
// value Ê(x), reported as the curve), the mean step height of the run
// (the collapsed least-squares target), and the run multiplicity (its
// fit weight). The input must be sorted ascending.
func collapseSteps(sorted []float64) (xs, ys, fitYs, ws []float64) {
	n := len(sorted)
	xs = make([]float64, 0, n)
	ys = make([]float64, 0, n)
	fitYs = make([]float64, 0, n)
	ws = make([]float64, 0, n)
	runStart := 0
	for i, x := range sorted {
		if i+1 < n && vecmath.EqualExact(sorted[i+1], x) {
			continue
		}
		xs = append(xs, x)
		ys = append(ys, float64(i+1)/float64(n))
		// Mean of the run's step heights (runStart+1)/n … (i+1)/n.
		fitYs = append(fitYs, (float64(runStart+1)+float64(i+1))/2/float64(n))
		ws = append(ws, float64(i+1-runStart))
		runStart = i + 1
	}
	return xs, ys, fitYs, ws
}
