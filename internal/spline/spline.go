// Package spline implements least-squares smoothing with cubic
// B-splines.
//
// Algorithm 1 of the paper smooths the ECDF of k-NN dissimilarities with
// a B-spline before knee detection, to remove local statistical
// fluctuations. This package fits a clamped uniform cubic B-spline to
// scattered (x, y) samples by linear least squares. A cubic B-spline has
// at most four basis functions that are non-zero at any x: the ones
// whose support covers the knot span holding x. Fitting and evaluation
// locate that span by binary search over the knots and compute those
// four functions only, as one de Boor triangle: the seven degree-0
// functions under the span, then six, five and four of each higher
// degree, each built from its two neighbours below with the Cox–de Boor
// recurrence. A fit over m points thus costs O(m) work whatever the
// control-point count. Skipping the other functions only skips exact ±0
// terms, which leaves every result bit-identical to summing over all of
// them. For the same reason the normal equations are banded, and they
// are assembled and solved in band storage: O(nCtrl) memory and work
// where a dense system takes O(nCtrl²), with the same bits (see
// solveBanded).
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

// Errors returned by FitWeighted.
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

// FitWeighted fits a cubic B-spline with nCtrl control points to the
// samples (xs[i], ys[i]) by least squares. xs must be non-decreasing
// and span a positive interval. Smaller nCtrl yields stronger
// smoothing. Each sample contributes ws[i] times to the least-squares
// objective, exactly as if it appeared ws[i] times in the input. This
// lets callers collapse tied abscissae (e.g. vertical runs of an ECDF)
// into one point per distinct x without changing where the fit puts its
// mass. A nil ws means unit weights; non-positive weights drop the
// sample from the objective.
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
	ctrl, err := sp.fitBanded(xs, ys, ws)
	if errors.Is(err, errNotBanded) {
		ctrl, err = sp.fitDense(xs, ys, ws)
	}
	if err != nil {
		return nil, err
	}
	sp.ctrl = ctrl
	return sp, nil
}

// errNotBanded reports a fit whose banded solve would not reproduce the
// dense one bit for bit (see fitBanded).
var errNotBanded = errors.New("spline: system needs the dense solve")

// bandWidth is the number of columns fitBanded keeps per row of AᵀA:
// degree below the diagonal, the diagonal, and 2·degree above it, the
// width row interchanges can fill to.
const bandWidth = 3*degree + 1

// band returns the index of column c of row r in a banded matrix that
// keeps columns [r−degree, r+2·degree] of every row.
func band(r, c int) int { return r*bandWidth + c - r + degree }

// accumulate assembles the normal equations AᵀA c = Aᵀy, where A[i][j]
// is the j-th basis function evaluated at xs[i], weighted by ws[i], plus
// a tiny Tikhonov term on the diagonal. rowAt(r, c) returns row r of
// AᵀA from column c on. Row i of A is zero outside the window basis
// returns, so only that window is accumulated.
func (s *Spline) accumulate(xs, ys, ws []float64, rowAt func(r, c int) []float64, aty []float64) {
	var tri [2*degree + 1]float64
	for i, x := range xs {
		w := 1.0
		if ws != nil {
			w = ws[i]
			if w <= 0 {
				continue
			}
		}
		first, basis := s.basis(x, &tri)
		for r, br := range basis {
			if vecmath.IsZero(br) {
				continue
			}
			aty[first+r] += w * br * ys[i]
			row := rowAt(first+r, first)[:len(basis)]
			for c, bc := range basis {
				row[c] += w * br * bc
			}
		}
	}
	// Tiny Tikhonov regularisation keeps the system well-posed when
	// data points leave some basis functions unsupported.
	for r := range aty {
		rowAt(r, r)[0] += 1e-9
	}
}

// fitBanded solves the normal equations in band storage: a finite
// abscissa has degree+1 live basis functions, so AᵀA has degree
// non-zero diagonals on either side of its own, and Gaussian
// elimination with partial pivoting fills at most degree more above
// it. A NaN abscissa, whose window spans every function, returns
// errNotBanded for the dense solve to run.
func (s *Spline) fitBanded(xs, ys, ws []float64) ([]float64, error) {
	if slices.ContainsFunc(xs, math.IsNaN) {
		return nil, errNotBanded
	}
	n := len(s.knots) - degree - 1
	a := make([]float64, vecmath.CheckedMulAdd(n, bandWidth, 0))
	b := make([]float64, n)
	s.accumulate(xs, ys, ws, func(r, c int) []float64 { return a[band(r, c):] }, b)
	return solveBanded(a, b)
}

// solveBanded is solve on a system in band storage (see band),
// mutating its arguments. No row may have a non-zero entry more than
// degree columns left of the diagonal, nor more than degree right of it
// where elimination still has to reach the row. Its eliminations, interchanges and
// substitutions are solve's restricted to the band, in the same order.
// Outside the band solve only subtracts products with an exact +0
// factor from exact +0 entries and from sums that are never −0, which
// changes no bit unless the other factor is infinite or NaN. Such a
// value always reaches the solution: a non-finite multiplier or pivot
// leaves a row non-finite on its diagonal and next to it, and a
// non-finite solution value is where the substitution would use one.
// So a non-finite solution value returns errNotBanded, and every other
// result is solve's bit for bit.
func solveBanded(a, b []float64) ([]float64, error) {
	n := len(b)
	for col := 0; col < n; col++ {
		last := min(col+degree, n-1)    // last row with column col in the band
		right := min(col+2*degree, n-1) // last non-zero column of the pivot row
		pivot := col
		for r := col + 1; r <= last; r++ {
			if math.Abs(a[band(r, col)]) > math.Abs(a[band(pivot, col)]) {
				pivot = r
			}
		}
		if math.Abs(a[band(pivot, col)]) < 1e-300 {
			return nil, ErrSingular
		}
		// Columns left of col are dead; right of right both rows hold +0.
		for c := col; c <= right && pivot != col; c++ {
			a[band(col, c)], a[band(pivot, c)] = a[band(pivot, c)], a[band(col, c)]
		}
		b[col], b[pivot] = b[pivot], b[col]
		inv := 1 / a[band(col, col)]
		for r := col + 1; r <= last; r++ {
			f := a[band(r, col)] * inv
			if vecmath.IsZero(f) {
				continue
			}
			for c := col; c <= right; c++ {
				a[band(r, c)] -= f * a[band(col, c)]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c <= min(r+2*degree, n-1); c++ {
			sum -= a[band(r, c)] * x[c]
		}
		if x[r] = sum / a[band(r, r)]; math.IsInf(x[r], 0) || math.IsNaN(x[r]) {
			return nil, errNotBanded
		}
	}
	return x, nil
}

// fitDense solves the normal equations as a dense nCtrl × nCtrl system,
// whose rows share one backing array.
func (s *Spline) fitDense(xs, ys, ws []float64) ([]float64, error) {
	n := len(s.knots) - degree - 1
	cells := make([]float64, vecmath.CheckedMulAdd(n, n, 0))
	ata := make([][]float64, n)
	for i := range ata {
		ata[i] = cells[i*n : (i+1)*n : (i+1)*n]
	}
	aty := make([]float64, n)
	s.accumulate(xs, ys, ws, func(r, c int) []float64 { return ata[r][c:] }, aty)
	return solve(ata, aty)
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
	var tri [2*degree + 1]float64
	first, basis := s.basis(x, &tri)
	var y float64
	for j, b := range basis {
		if !vecmath.IsZero(b) {
			y += b * s.ctrl[first+j]
		}
	}
	return y
}

// basis returns the first index and the values of the basis functions
// span gives for x, computed as one de Boor triangle: the degree-0
// functions N_first … N_{last+degree}, then, degree by degree and in
// place, N_{j,p} from N_{j,p−1} and N_{j+1,p−1}, until the first
// last−first+1 entries hold N_{first,3} … N_{last,3}. Each value takes
// the operations of the Cox–de Boor recursion in the same order — the
// (x−k_j)/d·N and (k_{j+p+1}−x)/d·N terms, the d > 0 guards and the
// right end closed at hi — so it is that recursion's value bit for bit.
// The four functions of a span are computed in tri; the all-function
// window of a NaN x, in a fresh slice.
func (s *Spline) basis(x float64, tri *[2*degree + 1]float64) (int, []float64) {
	first, last := s.span(x)
	t := tri[:]
	if n := last - first + 1 + degree; n > len(t) {
		t = make([]float64, n)
	}
	k := s.knots
	for i := range t {
		j := first + i
		t[i] = 0
		if k[j] <= x && x < k[j+1] ||
			// Close the right end of the domain.
			vecmath.EqualExact(x, s.hi) && k[j] < k[j+1] && vecmath.EqualExact(k[j+1], s.hi) {
			t[i] = 1
		}
	}
	for p := 1; p <= degree; p++ {
		for i := range len(t) - p {
			j := first + i
			var left, right float64
			if d := k[j+p] - k[j]; d > 0 {
				left = (x - k[j]) / d * t[i]
			}
			if d := k[j+p+1] - k[j+1]; d > 0 {
				right = (k[j+p+1] - x) / d * t[i+1]
			}
			t[i] = left + right
		}
	}
	return first, t[:last-first+1]
}

// SmoothWeighted fits a spline to (xs, ys) with per-sample weights
// (see FitWeighted) and returns the smoothed ordinates at the same xs.
// The smoothness parameter in (0, 1] controls the number of control
// points relative to the total weight — the effective sample count —
// rather than the number of distinct points, so a population collapsed
// from n tied samples to m distinct values is smoothed as strongly as
// the uncollapsed one; smaller values mean stronger smoothing. A nil ws
// means unit weights. When fitting fails (degenerate inputs), the
// original ys are returned unchanged so callers can proceed.
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
