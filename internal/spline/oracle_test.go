package spline

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"protoclust/internal/oracle"
	"protoclust/internal/vecmath"
)

// requireFitMatchesOracle fits (xs, ys, ws) with nCtrl control points in
// both FitWeighted and the full-loop oracle and requires the same
// success, then bit-identical evaluations at every sample, at every
// knot and its two neighbours, outside the domain on both sides, at the
// infinities and at NaN; where the oracle returns a NaN, any NaN
// matches.
func requireFitMatchesOracle(t *testing.T, name string, xs, ys, ws []float64, nCtrl int) {
	t.Helper()
	got, gotErr := FitWeighted(xs, ys, ws, nCtrl)
	want, wantErr := oracle.SplineFit(xs, ys, ws, nCtrl)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: FitWeighted err = %v, oracle err = %v", name, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	probes := append([]float64(nil), xs...)
	for _, k := range got.knots {
		probes = append(probes, k, math.Nextafter(k, math.Inf(-1)), math.Nextafter(k, math.Inf(1)))
	}
	probes = append(probes, got.lo-1, got.hi+1, math.Inf(-1), math.Inf(1), math.NaN())
	// A NaN compares as NaN-ness only: which operand's payload a NaN
	// product keeps depends on the register the compiler picks, not on
	// the arithmetic.
	for _, x := range probes {
		g, w := got.Eval(x), want.Eval(x)
		if math.IsNaN(w) && math.IsNaN(g) {
			continue
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: Eval(%v) = %v (%#x), oracle %v (%#x)", name, x, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// requireSmoothMatchesOracle requires SmoothWeighted to return the
// oracle's ordinates bit for bit.
func requireSmoothMatchesOracle(t *testing.T, name string, xs, ys, ws []float64, smoothness float64) {
	t.Helper()
	got := SmoothWeighted(xs, ys, ws, smoothness)
	want := oracle.SplineSmooth(xs, ys, ws, smoothness)
	if len(got) != len(want) {
		t.Fatalf("%s: SmoothWeighted returned %d values, oracle %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: SmoothWeighted[%d] = %v, oracle %v", name, i, got[i], want[i])
		}
	}
}

// ecdfRuns collapses a sorted sample into one point per distinct value
// the way Algorithm 1 hands its k-NN ECDF to the spline: the run's mean
// step height as the target, the run length as the weight.
func ecdfRuns(sorted []float64) (xs, ys, ws []float64) {
	n := float64(len(sorted))
	start := 0
	for i := range sorted {
		if i+1 < len(sorted) && vecmath.EqualExact(sorted[i+1], sorted[i]) {
			continue
		}
		xs = append(xs, sorted[i])
		ys = append(ys, (float64(start+1)+float64(i+1))/2/n)
		ws = append(ws, float64(i+1-start))
		start = i + 1
	}
	return xs, ys, ws
}

func TestFitMatchesOracleRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(90)
		xs := make([]float64, n)
		ys := make([]float64, n)
		// A few distinct levels force tied abscissae; a continuous draw
		// gives none.
		levels := 1 + rng.Intn(2*n)
		for i := range xs {
			xs[i] = float64(rng.Intn(levels)) * 0.37
			if trial%3 == 0 {
				xs[i] = rng.Float64()
			}
			ys[i] = rng.NormFloat64()
		}
		slices.Sort(xs)
		var ws []float64
		switch trial % 4 {
		case 1:
			ws = make([]float64, n)
			for i := range ws {
				ws[i] = float64(1 + rng.Intn(5))
			}
		case 2: // zero and negative weights drop samples
			ws = make([]float64, n)
			for i := range ws {
				ws[i] = float64(rng.Intn(7) - 2)
			}
		case 3:
			ws = make([]float64, n)
			for i := range ws {
				ws[i] = rng.ExpFloat64()
			}
		}
		for _, nCtrl := range []int{4, n, 4 + rng.Intn(n+1)} {
			requireFitMatchesOracle(t, fmt.Sprintf("trial %d nCtrl %d", trial, nCtrl), xs, ys, ws, nCtrl)
		}
		requireSmoothMatchesOracle(t, fmt.Sprintf("trial %d", trial), xs, ys, ws, 0.05+rng.Float64())
	}
}

func TestFitMatchesOracleECDF(t *testing.T) {
	// The tie-collapsed k-NN ECDF: a heavy-tailed, tie-rich sample whose
	// vertical runs become weighted points.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		sample := make([]float64, 50+rng.Intn(400))
		for i := range sample {
			sample[i] = math.Round(rng.ExpFloat64()*40) / 100
		}
		slices.Sort(sample)
		xs, ys, ws := ecdfRuns(sample)
		name := fmt.Sprintf("ecdf %d (%d points, %d distinct)", trial, len(sample), len(xs))
		requireSmoothMatchesOracle(t, name, xs, ys, ws, 0.1)
		requireFitMatchesOracle(t, name, xs, ys, ws, len(xs))
		requireFitMatchesOracle(t, name, xs, ys, ws, 4)
	}
}

func TestFitMatchesOracleEdgeCases(t *testing.T) {
	one := math.Nextafter(1, 2) - 1 // one ulp at 1
	cases := []struct {
		name   string
		xs, ws []float64
		nCtrl  int
	}{
		{"four points four controls", []float64{0, 1, 2, 3}, nil, 4},
		{"all tied but the ends", []float64{0, 1, 1, 1, 1, 1, 1, 2}, []float64{3, 1, 1, 1, 1, 1, 1, 2}, 6},
		{"tied at hi", []float64{0, 0.5, 1, 1, 1, 1}, nil, 5},
		{"tied at lo", []float64{0, 0, 0, 0, 0.5, 1}, nil, 5},
		{"only ends weighted", []float64{0, 1, 2, 3, 4, 5}, []float64{1, 0, -1, 0, -3, 1}, 5},
		// A domain a few ulps wide: interior knots round onto hi (and
		// onto each other), so the last non-empty span is not the last
		// interior one.
		{"ulp-wide domain", []float64{1, 1, 1 + one, 1 + 2*one, 1 + 2*one}, nil, 5},
		{"ulp-wide domain many controls", []float64{1, 1 + one, 1 + one, 1 + 2*one, 1 + 2*one, 1 + 3*one, 1 + 3*one, 1 + 3*one, 1 + 3*one, 1 + 3*one}, nil, 10},
		{"ulp-wide domain, interior knots on hi", ulpSteps(40, 3), nil, 40},
		{"large offset", []float64{1e9, 1e9 + 0.25, 1e9 + 0.5, 1e9 + 0.5, 1e9 + 1}, nil, 4},
		// Non-finite knots, abscissae and weights make the fit NaN
		// whichever terms it sums.
		{"domain overflows", []float64{-1e308, -1, 0, 1, 1e308}, nil, 4},
		{"infinite lo", []float64{math.Inf(-1), 0, 1, 2, 3}, nil, 4},
		{"nan abscissa", []float64{0, 1, math.NaN(), 2, 3}, nil, 4},
		{"huge weight", []float64{0, 1, 2, 3, 4}, []float64{1, math.MaxFloat64, 1, 1, 1}, 4},
		{"infinite weight", []float64{0, 1, 2, 3, 4}, []float64{1, 1, math.Inf(1), 1, 1}, 4},
		{"nan weight", []float64{0, 1, 2, 3, 4}, []float64{1, 1, math.NaN(), 1, 1}, 4},
		// The same past the band (twelve controls), where a banded
		// solve and the dense one differ unless non-finite values send
		// the fit to the dense solve.
		{"domain overflows, twelve controls", spread(-1e308, 1e308, 14), nil, 12},
		{"nan abscissa, twelve controls", withAt(spread(0, 13, 14), 6, math.NaN()), nil, 12},
		{"huge weight, twelve controls", spread(0, 13, 14), withAt(ones(14), 3, math.MaxFloat64), 12},
		{"infinite weight, twelve controls", spread(0, 13, 14), withAt(ones(14), 9, math.Inf(1)), 12},
		{"nan weight, twelve controls", spread(0, 13, 14), withAt(ones(14), 9, math.NaN()), 12},
		{"two points", []float64{0, 1}, nil, 4},
		{"degenerate domain", []float64{2, 2, 2, 2}, nil, 4},
	}
	for _, c := range cases {
		ys := make([]float64, len(c.xs))
		for i := range ys {
			ys[i] = math.Sin(float64(3*i + 1))
		}
		requireFitMatchesOracle(t, c.name, c.xs, ys, c.ws, c.nCtrl)
		requireSmoothMatchesOracle(t, c.name, c.xs, ys, c.ws, 0.5)
	}
}

// spread returns n evenly spaced abscissae from lo to hi.
func spread(lo, hi float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = lo + (hi-lo)/float64(n-1)*float64(i)
	}
	xs[n-1] = hi
	return xs
}

// ones returns n unit weights.
func ones(n int) []float64 {
	ws := make([]float64, n)
	for i := range ws {
		ws[i] = 1
	}
	return ws
}

// withAt returns xs with xs[i] set to v.
func withAt(xs []float64, i int, v float64) []float64 {
	xs[i] = v
	return xs
}

// ulpSteps returns n sorted abscissae spread over the steps ulps above 1.
func ulpSteps(n, steps int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 1 + float64(i*steps/(n-1))*(math.Nextafter(1, 2)-1)
	}
	return xs
}
