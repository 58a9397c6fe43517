// Package core implements the paper's primary contribution: clustering
// of message segments into pseudo data types (Section III). It wires
// together the Canberra dissimilarity matrix, the fully automated
// DBSCAN parameter selection (Algorithm 1), DBSCAN itself, the
// large-cluster ε correction, and cluster refinement (merge and split).
package core

import (
	"math"

	"protoclust/internal/canberra"
)

// Params holds every tunable of the pipeline. The zero value is not
// valid; use DefaultParams, which reproduces the paper's configuration.
type Params struct {
	// Penalty is the Canberra dissimilarity length-mismatch penalty
	// factor (DESIGN.md §5, ablation A3).
	Penalty float64
	// KneedleSensitivity is Kneedle's S parameter (Algorithm 1 input).
	KneedleSensitivity float64
	// SplineSmoothness controls the B-spline smoothing of the ECDF
	// (Algorithm 1 input s), as the fraction of control points per
	// sample.
	SplineSmoothness float64
	// EpsRhoThreshold bounds the ε-density difference around link
	// segments in merge Condition 1. The paper uses 0.01 for its
	// real-world captures; the default here is re-calibrated to 0.002
	// for the synthetic traces (DESIGN.md §5).
	EpsRhoThreshold float64
	// NeighborDensityThreshold bounds the minmed difference in merge
	// Condition 2 (paper: 0.002).
	NeighborDensityThreshold float64
	// LargeClusterShare triggers the ε re-configuration when a single
	// cluster exceeds this fraction of non-noise segments (paper: 0.6).
	LargeClusterShare float64
	// PercentRankThreshold gates the cluster split test (paper: 95).
	PercentRankThreshold float64
	// DisableRefinement turns off merge and split (ablation A1).
	DisableRefinement bool
	// FixedEpsilon, when positive, bypasses the ε auto-configuration
	// (ablation A2).
	FixedEpsilon float64
	// FixedK, when ≥ 2, pins the k-NN rank k' the ε auto-configuration
	// evaluates instead of searching 2…round(ln n) for the sharpest
	// knee. Values outside [2, kMax(n)] fail with ErrKOutOfRange. Used
	// by the configuration-sweep harness to expose the k axis.
	FixedK int
	// EpsQuantile, when in (0, 1), derives ε as that quantile of the
	// selected k's nearest-neighbor distances instead of from a detected
	// knee — the sweep harness's "quantile" ε source, which generalizes
	// the knee-less fallback (fallbackQuantile). Values outside [0, 1)
	// fail with ErrBadQuantile; 0 keeps the knee-based Algorithm 1.
	EpsQuantile float64
	// Clusterer selects the density clusterer: "" or "dbscan"
	// (default), "optics" (OPTICS with DBSCAN-equivalent extraction),
	// or "hdbscan" (ablation A4). The paper chose DBSCAN over OPTICS
	// and HDBSCAN because all three over-classify similarly while
	// DBSCAN offers more refinement hooks (Section III-F).
	Clusterer string
	// MemoryBudget bounds the resident bytes of the dissimilarity
	// matrix (dissim.Config.MemoryBudget); 0 means the dissim default
	// (2 GiB). Pools whose condensed layout exceeds the budget are
	// served by the tiled out-of-core backend. Cache-neutral: every
	// backend produces bit-identical labels.
	MemoryBudget int64
	// MatrixBackend forces a matrix storage backend ("auto",
	// "condensed", "tiled"); "" means auto. Cache-neutral.
	MatrixBackend string
	// MatrixSpillDir enables the tiled backend's disk spill under the
	// given directory. Cache-neutral.
	MatrixSpillDir string
}

// DefaultParams returns the paper's configuration.
func DefaultParams() Params {
	return Params{
		Penalty:                  canberra.DefaultPenalty,
		KneedleSensitivity:       1.0,
		SplineSmoothness:         0.1,
		EpsRhoThreshold:          0.002,
		NeighborDensityThreshold: 0.002,
		LargeClusterShare:        0.6,
		PercentRankThreshold:     95,
	}
}

// minSamples returns DBSCAN's min_samples for n unique segments: the
// paper sets it to ln n, which "simply prevents scattering large traces
// into too many small clusters" (Section III-D). Clamped to ≥ 2.
func minSamples(n int) int {
	ms := int(math.Round(math.Log(float64(n))))
	if ms < 2 {
		ms = 2
	}
	return ms
}

// kMax returns the largest k considered by the ε auto-configuration:
// round(ln n), clamped to [2, n-1].
func kMax(n int) int {
	k := int(math.Round(math.Log(float64(n))))
	if k < 2 {
		k = 2
	}
	if k > n-1 {
		k = n - 1
	}
	return k
}
