// Package spline implements least-squares smoothing with cubic
// B-splines.
//
// Algorithm 1 of the paper smooths the ECDF of k-NN dissimilarities with
// a B-spline before knee detection, to remove local statistical
// fluctuations. This package fits a clamped uniform cubic B-spline to
// scattered (x, y) samples by linear least squares. A cubic B-spline has
// at most four basis functions that are non-zero at any x: the ones
// whose support covers the knot span holding x. Fitting and evaluation
// locate that span by binary search over the knots and run the
// Cox–de Boor recursion for those four functions only, so a fit over m
// points costs O(m) basis evaluations whatever the control-point count.
// Skipping the other functions only skips exact ±0 terms, which leaves
// every result bit-identical to summing over all of them.
package spline

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"protoclust/internal/vecmath"
)

const degree = 3 // cubic

// Errors returned by Fit.
var (
	ErrTooFewPoints = errors.New("spline: need at least two data points")
	ErrBadControl   = errors.New("spline: need at least degree+1 control points")
	ErrSingular     = errors.New("spline: normal equations are singular")
)

// Spline is a fitted clamped uniform cubic B-spline.
type Spline struct {
	knots []float64 // clamped knot vector, length nCtrl+degree+1
	ctrl  []float64 // control-point ordinates
	lo    float64   // domain lower bound
	hi    float64   // domain upper bound
}

// Fit fits a cubic B-spline with nCtrl control points to the samples
// (xs[i], ys[i]) by least squares. xs must be non-decreasing and span a
// positive interval. Smaller nCtrl yields stronger smoothing.
func Fit(xs, ys []float64, nCtrl int) (*Spline, error) {
	return FitWeighted(xs, ys, nil, nCtrl)
}

// FitWeighted is Fit with a per-sample weight: each sample contributes
// ws[i] times to the least-squares objective, exactly as if it appeared
// ws[i] times in the input. This lets callers collapse tied abscissae
// (e.g. vertical runs of an ECDF) into one point per distinct x without
// changing where the fit puts its mass. A nil ws means unit weights;
// non-positive weights drop the sample from the objective.
func FitWeighted(xs, ys, ws []float64, nCtrl int) (*Spline, error) {
	if len(xs) < 2 || len(xs) != len(ys) {
		return nil, ErrTooFewPoints
	}
	if ws != nil && len(ws) != len(xs) {
		return nil, ErrTooFewPoints
	}
	if nCtrl < degree+1 {
		return nil, ErrBadControl
	}
	if nCtrl > len(xs) {
		nCtrl = len(xs)
		if nCtrl < degree+1 {
			return nil, ErrBadControl
		}
	}
	lo, hi := xs[0], xs[len(xs)-1]
	if !(hi > lo) {
		return nil, fmt.Errorf("spline: degenerate domain [%v,%v]: %w", lo, hi, ErrTooFewPoints)
	}

	sp := &Spline{knots: clampedKnots(lo, hi, nCtrl), lo: lo, hi: hi}

	// Assemble the normal equations AᵀA c = Aᵀy where A[i][j] is the
	// j-th basis function evaluated at xs[i]. Row i of A is zero outside
	// the window span returns, so only that window is accumulated.
	ata := make([][]float64, nCtrl)
	for i := range ata {
		ata[i] = make([]float64, nCtrl)
	}
	aty := make([]float64, nCtrl)
	basis := make([]float64, nCtrl)
	for i, x := range xs {
		w := 1.0
		if ws != nil {
			w = ws[i]
			if w <= 0 {
				continue
			}
		}
		first, last := sp.span(x)
		for j := first; j <= last; j++ {
			basis[j] = bsplineBasis(j, degree, sp.knots, x, lo, hi)
		}
		for r := first; r <= last; r++ {
			if vecmath.IsZero(basis[r]) {
				continue
			}
			aty[r] += w * basis[r] * ys[i]
			for c := first; c <= last; c++ {
				ata[r][c] += w * basis[r] * basis[c]
			}
		}
	}
	// Tiny Tikhonov regularisation keeps the system well-posed when
	// data points leave some basis functions unsupported.
	for r := 0; r < nCtrl; r++ {
		ata[r][r] += 1e-9
	}
	ctrl, err := solve(ata, aty)
	if err != nil {
		return nil, err
	}
	sp.ctrl = ctrl
	return sp, nil
}

// span returns the indexes first..last of the basis functions that can
// be non-zero at x: the four functions [k−degree, k] over the knot span
// k holding x, since the degree-0 function that is 1 at x is N_k and
// N_{j,3} is built from N_j … N_{j+3} only. k is the last knot at or
// below x; at x == hi, where the right end is closed, it is the last
// non-empty span instead, which differs when rounding puts interior
// knots on hi. Outside the domain every function is zero, so any window
// sums the same. A NaN x gets every function: those with a non-empty
// support evaluate to NaN.
func (s *Spline) span(x float64) (first, last int) {
	nCtrl := len(s.knots) - degree - 1
	if math.IsNaN(x) {
		return 0, nCtrl - 1
	}
	var k int
	if vecmath.EqualExact(x, s.hi) {
		firstHi, _ := slices.BinarySearch(s.knots, s.hi)
		k = firstHi - 1
	} else {
		k = sort.Search(len(s.knots), func(i int) bool { return s.knots[i] > x }) - 1
	}
	k = min(max(k, degree), nCtrl-1)
	return k - degree, k
}

// Eval evaluates the spline at x. Arguments outside the fitted domain
// are clamped to the boundary.
func (s *Spline) Eval(x float64) float64 {
	if x < s.lo {
		x = s.lo
	}
	if x > s.hi {
		x = s.hi
	}
	var y float64
	first, last := s.span(x)
	for j := first; j <= last; j++ {
		if b := bsplineBasis(j, degree, s.knots, x, s.lo, s.hi); !vecmath.IsZero(b) {
			y += s.ctrl[j] * b
		}
	}
	return y
}

// Domain returns the fitted x interval.
func (s *Spline) Domain() (lo, hi float64) { return s.lo, s.hi }

// Smooth fits a spline to (xs, ys) and returns the smoothed ordinates at
// the same xs. The smoothness parameter in (0, 1] controls the number of
// control points relative to the number of samples: smaller values mean
// stronger smoothing. When fitting fails (degenerate inputs), the
// original ys are returned unchanged so callers can proceed.
func Smooth(xs, ys []float64, smoothness float64) []float64 {
	return SmoothWeighted(xs, ys, nil, smoothness)
}

// SmoothWeighted is Smooth with per-sample weights (see FitWeighted).
// The control-point count scales with the total weight — the effective
// sample count — rather than the number of distinct points, so a
// population collapsed from n tied samples to m distinct values is
// smoothed as strongly as the uncollapsed one. A nil ws means unit
// weights.
func SmoothWeighted(xs, ys, ws []float64, smoothness float64) []float64 {
	if smoothness <= 0 || smoothness > 1 {
		smoothness = 0.1
	}
	effective := float64(len(xs))
	if ws != nil {
		effective = 0
		for _, w := range ws {
			if w > 0 {
				effective += w
			}
		}
	}
	nCtrl := int(math.Ceil(smoothness * effective))
	if nCtrl < degree+1 {
		nCtrl = degree + 1
	}
	sp, err := FitWeighted(xs, ys, ws, nCtrl)
	if err != nil {
		return append([]float64(nil), ys...)
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = sp.Eval(x)
	}
	return out
}

// clampedKnots builds a clamped uniform knot vector for nCtrl control
// points over [lo, hi].
func clampedKnots(lo, hi float64, nCtrl int) []float64 {
	n := nCtrl + degree + 1
	knots := make([]float64, n)
	inner := nCtrl - degree // number of spans
	for i := 0; i < n; i++ {
		switch {
		case i <= degree:
			knots[i] = lo
		case i >= n-degree-1:
			knots[i] = hi
		default:
			knots[i] = lo + (hi-lo)*float64(i-degree)/float64(inner)
		}
	}
	return knots
}

// bsplineBasis computes the Cox–de Boor basis function N_{j,p}(x).
// The right boundary is handled so that the last basis function is 1 at
// x == hi (closed on the right).
func bsplineBasis(j, p int, knots []float64, x, lo, hi float64) float64 {
	if p == 0 {
		if knots[j] <= x && x < knots[j+1] {
			return 1
		}
		// Close the right end of the domain.
		if vecmath.EqualExact(x, hi) && knots[j] < knots[j+1] && vecmath.EqualExact(knots[j+1], hi) {
			return 1
		}
		return 0
	}
	var left, right float64
	if d := knots[j+p] - knots[j]; d > 0 {
		left = (x - knots[j]) / d * bsplineBasis(j, p-1, knots, x, lo, hi)
	}
	if d := knots[j+p+1] - knots[j+1]; d > 0 {
		right = (knots[j+p+1] - x) / d * bsplineBasis(j+1, p-1, knots, x, lo, hi)
	}
	return left + right
}

// solve performs Gaussian elimination with partial pivoting on a (dense,
// square) system, mutating its arguments.
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-300 {
			return nil, ErrSingular
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if vecmath.IsZero(f) {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= a[r][c] * x[c]
		}
		x[r] = sum / a[r][r]
	}
	return x, nil
}
