package spline

import (
	"fmt"
	"math"
	"testing"

	"protoclust/internal/vecmath"
)

// bsplineBasis computes the Cox–de Boor basis function N_{j,p}(x) by
// the textbook recursion, the reference the de Boor triangle of
// (*Spline).basis must reproduce bit for bit. The right boundary is
// handled so that the last basis function is 1 at x == hi (closed on
// the right).
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

// TestBasisMatchesRecursion requires the triangle's window to hold the
// recursion's value bit for bit for every function in it, and every
// function outside it, at a finite x, to be an exact ±0 (a NaN x gets
// the all-function window). The knot vectors include repeated interior knots, both
// written out and from rounding in a domain a few ulps wide, and the
// probes every knot, its two float64 neighbours, lo, hi, values outside
// the domain, the infinities and NaN.
func TestBasisMatchesRecursion(t *testing.T) {
	ulp := math.Nextafter(1, 2) - 1
	splines := map[string]*Spline{
		"uniform":          {knots: clampedKnots(0, 1, 10), lo: 0, hi: 1},
		"four controls":    {knots: clampedKnots(-3, 5, 4), lo: -3, hi: 5},
		"ulp-wide domain":  {knots: clampedKnots(1, 1+3*ulp, 40), lo: 1, hi: 1 + 3*ulp},
		"large offset":     {knots: clampedKnots(1e9, 1e9+1, 7), lo: 1e9, hi: 1e9 + 1},
		"double interior":  {knots: []float64{0, 0, 0, 0, 0.25, 0.5, 0.5, 0.75, 1, 1, 1, 1}, lo: 0, hi: 1},
		"triple interior":  {knots: []float64{0, 0, 0, 0, 0.3, 0.3, 0.3, 0.6, 1, 1, 1, 1}, lo: 0, hi: 1},
		"interior on hi":   {knots: []float64{0, 0, 0, 0, 0.5, 1, 1, 1, 1, 1}, lo: 0, hi: 1},
		"interior on lo":   {knots: []float64{2, 2, 2, 2, 2, 3, 4, 4, 4, 4}, lo: 2, hi: 4},
		"quadruple middle": {knots: []float64{0, 0, 0, 0, 0.5, 0.5, 0.5, 0.5, 1, 1, 1, 1}, lo: 0, hi: 1},
		"domain overflows": {knots: clampedKnots(-1e308, 1e308, 4), lo: -1e308, hi: 1e308},
	}
	for name, s := range splines {
		nCtrl := len(s.knots) - degree - 1
		probes := []float64{s.lo, s.hi, s.lo - 1, s.hi + 1, math.Inf(-1), math.Inf(1), math.NaN()}
		for _, k := range s.knots {
			probes = append(probes, k, math.Nextafter(k, math.Inf(-1)), math.Nextafter(k, math.Inf(1)))
		}
		for _, x := range probes {
			var tri [2*degree + 1]float64
			first, window := s.basis(x, &tri)
			what := fmt.Sprintf("%s: x=%v", name, x)
			if math.IsNaN(x) {
				if first != 0 || len(window) != nCtrl {
					t.Fatalf("%s: window [%d, %d), want every function [0, %d)", what, first, first+len(window), nCtrl)
				}
			} else if len(window) != degree+1 {
				t.Fatalf("%s: window of %d functions, want %d", what, len(window), degree+1)
			}
			for j := 0; j < nCtrl; j++ {
				want := bsplineBasis(j, degree, s.knots, x, s.lo, s.hi)
				if j < first || j >= first+len(window) {
					// At an infinite x the functions outside the window
					// are ∞·0 = NaN; Eval clamps x into the domain first.
					if !math.IsInf(x, 0) && !vecmath.IsZero(want) {
						t.Fatalf("%s: N_%d = %v lies outside the window [%d, %d)", what, j, want, first, first+len(window))
					}
					continue
				}
				if got := window[j-first]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: N_%d = %v (%#x), recursion %v (%#x)", what, j, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

func TestBasisPartitionOfUnity(t *testing.T) {
	// B-spline basis functions must sum to 1 everywhere in the domain.
	s := &Spline{knots: clampedKnots(0, 1, 10), lo: 0, hi: 1}
	for _, x := range vecmath.Linspace(0, 1, 101) {
		var tri [2*degree + 1]float64
		_, window := s.basis(x, &tri)
		var sum float64
		for _, b := range window {
			sum += b
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("basis sum at x=%v is %v, want 1", x, sum)
		}
	}
}
