package oracle

import (
	"errors"
	"math"
)

// ErrSpline is returned by SplineFit for every input the production
// spline rejects: fewer than two points, mismatched lengths, fewer than
// four control points, an empty domain, or singular normal equations.
var ErrSpline = errors.New("oracle: spline fit failed")

// splineDegree is the cubic degree of every fitted spline.
const splineDegree = 3

// Spline is a least-squares clamped uniform cubic B-spline, fitted and
// evaluated by the full-loop definition.
type Spline struct {
	knots, ctrl []float64
	lo, hi      float64
}

// SplineFit fits a clamped uniform cubic B-spline with nCtrl control
// points to (xs[i], ys[i]) with sample weights ws (nil means 1 each;
// non-positive weights drop the sample). It evaluates every basis
// function at every sample by the Cox–de Boor recursion and accumulates
// the dense normal equations AᵀW A c = AᵀW y over all of them, then
// solves them by Gaussian elimination with partial pivoting.
func SplineFit(xs, ys, ws []float64, nCtrl int) (*Spline, error) {
	if len(xs) < 2 || len(xs) != len(ys) || (ws != nil && len(ws) != len(xs)) {
		return nil, ErrSpline
	}
	if nCtrl > len(xs) {
		nCtrl = len(xs)
	}
	if nCtrl < splineDegree+1 {
		return nil, ErrSpline
	}
	lo, hi := xs[0], xs[len(xs)-1]
	if !(hi > lo) {
		return nil, ErrSpline
	}

	// Clamped uniform knots: degree+1 copies of each end, nCtrl−degree
	// equal spans between.
	nKnots := nCtrl + splineDegree + 1
	knots := make([]float64, nKnots)
	for i := range knots {
		switch {
		case i <= splineDegree:
			knots[i] = lo
		case i >= nKnots-splineDegree-1:
			knots[i] = hi
		default:
			knots[i] = lo + (hi-lo)*float64(i-splineDegree)/float64(nCtrl-splineDegree)
		}
	}

	ata := make([][]float64, nCtrl)
	for i := range ata {
		ata[i] = make([]float64, nCtrl)
	}
	aty := make([]float64, nCtrl)
	row := make([]float64, nCtrl)
	for i, x := range xs {
		w := 1.0
		if ws != nil {
			w = ws[i]
			if w <= 0 {
				continue
			}
		}
		for j := range row {
			row[j] = coxDeBoor(j, splineDegree, knots, x, hi)
		}
		for r := range row {
			if row[r] == 0 {
				continue
			}
			aty[r] += w * row[r] * ys[i]
			for c := range row {
				ata[r][c] += w * row[r] * row[c]
			}
		}
	}
	for r := range ata {
		ata[r][r] += 1e-9
	}
	ctrl, ok := gaussSolve(ata, aty)
	if !ok {
		return nil, ErrSpline
	}
	return &Spline{knots: knots, ctrl: ctrl, lo: lo, hi: hi}, nil
}

// Eval returns Σ_j ctrl[j]·N_{j,3}(x) over every basis function with a
// non-zero value, x clamped to the fitted domain.
func (s *Spline) Eval(x float64) float64 {
	if x < s.lo {
		x = s.lo
	}
	if x > s.hi {
		x = s.hi
	}
	var y float64
	for j := range s.ctrl {
		if b := coxDeBoor(j, splineDegree, s.knots, x, s.hi); b != 0 {
			y += s.ctrl[j] * b
		}
	}
	return y
}

// SplineSmooth fits with ⌈smoothness·W⌉ control points (at least four),
// W being the total positive weight (len(xs) for nil ws), and returns the
// fit evaluated at xs — or a copy of ys when the fit fails. smoothness
// outside (0, 1] means 0.1.
func SplineSmooth(xs, ys, ws []float64, smoothness float64) []float64 {
	if smoothness <= 0 || smoothness > 1 {
		smoothness = 0.1
	}
	total := float64(len(xs))
	if ws != nil {
		total = 0
		for _, w := range ws {
			if w > 0 {
				total += w
			}
		}
	}
	nCtrl := int(math.Ceil(smoothness * total))
	if nCtrl < splineDegree+1 {
		nCtrl = splineDegree + 1
	}
	s, err := SplineFit(xs, ys, ws, nCtrl)
	if err != nil {
		return append([]float64(nil), ys...)
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = s.Eval(x)
	}
	return out
}

// coxDeBoor is the textbook recursion for N_{j,p}(x), with the right end
// of the domain closed so the last non-empty span includes x == hi.
func coxDeBoor(j, p int, knots []float64, x, hi float64) float64 {
	if p == 0 {
		if knots[j] <= x && x < knots[j+1] {
			return 1
		}
		if x == hi && knots[j] < knots[j+1] && knots[j+1] == hi {
			return 1
		}
		return 0
	}
	var left, right float64
	if d := knots[j+p] - knots[j]; d > 0 {
		left = (x - knots[j]) / d * coxDeBoor(j, p-1, knots, x, hi)
	}
	if d := knots[j+p+1] - knots[j+1]; d > 0 {
		right = (knots[j+p+1] - x) / d * coxDeBoor(j+1, p-1, knots, x, hi)
	}
	return left + right
}

// gaussSolve solves the square system a·x = b by Gaussian elimination
// with partial pivoting, mutating a and b. It reports false for a pivot
// below 1e-300 in magnitude.
func gaussSolve(a [][]float64, b []float64) ([]float64, bool) {
	n := len(a)
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-300 {
			return nil, false
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
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
	return x, true
}
