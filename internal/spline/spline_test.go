package spline

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"protoclust/internal/vecmath"
)

func TestFitErrors(t *testing.T) {
	if _, err := FitWeighted([]float64{1}, []float64{1}, nil, 8); !errors.Is(err, ErrTooFewPoints) {
		t.Errorf("single point: err = %v, want ErrTooFewPoints", err)
	}
	if _, err := FitWeighted([]float64{1, 2}, []float64{1, 2}, nil, 2); !errors.Is(err, ErrBadControl) {
		t.Errorf("too few control points: err = %v, want ErrBadControl", err)
	}
	if _, err := FitWeighted([]float64{1, 1, 1, 1, 1}, []float64{1, 2, 3, 4, 5}, nil, 4); !errors.Is(err, ErrTooFewPoints) {
		t.Errorf("degenerate domain: err = %v, want wrapped ErrTooFewPoints", err)
	}
}

func TestFitReproducesLine(t *testing.T) {
	// A cubic spline must represent a straight line exactly.
	xs := vecmath.Linspace(0, 10, 50)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2*x + 1
	}
	sp, err := FitWeighted(xs, ys, nil, 8)
	if err != nil {
		t.Fatalf("FitWeighted: %v", err)
	}
	for _, x := range []float64{0, 1.7, 5, 9.99, 10} {
		want := 2*x + 1
		if got := sp.Eval(x); math.Abs(got-want) > 1e-5 {
			t.Errorf("Eval(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestFitReproducesCubic(t *testing.T) {
	xs := vecmath.Linspace(-2, 2, 80)
	f := func(x float64) float64 { return x*x*x - x }
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = f(x)
	}
	sp, err := FitWeighted(xs, ys, nil, 12)
	if err != nil {
		t.Fatalf("FitWeighted: %v", err)
	}
	for _, x := range []float64{-2, -1, 0, 0.5, 2} {
		if got := sp.Eval(x); math.Abs(got-f(x)) > 1e-4 {
			t.Errorf("Eval(%v) = %v, want %v", x, got, f(x))
		}
	}
}

func TestEvalClampsOutsideDomain(t *testing.T) {
	xs := vecmath.Linspace(0, 1, 20)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = x
	}
	sp, err := FitWeighted(xs, ys, nil, 5)
	if err != nil {
		t.Fatalf("FitWeighted: %v", err)
	}
	if got := sp.Eval(-5); math.Abs(got-sp.Eval(0)) > 1e-12 {
		t.Errorf("Eval(-5) = %v, want boundary value %v", got, sp.Eval(0))
	}
	if got := sp.Eval(5); math.Abs(got-sp.Eval(1)) > 1e-12 {
		t.Errorf("Eval(5) = %v, want boundary value %v", got, sp.Eval(1))
	}
}

func TestSmoothReducesNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := vecmath.Linspace(0, 2*math.Pi, 200)
	clean := make([]float64, len(xs))
	noisy := make([]float64, len(xs))
	for i, x := range xs {
		clean[i] = math.Sin(x)
		noisy[i] = clean[i] + rng.NormFloat64()*0.1
	}
	smooth := SmoothWeighted(xs, noisy, nil, 0.08)
	var errNoisy, errSmooth float64
	for i := range xs {
		errNoisy += math.Abs(noisy[i] - clean[i])
		errSmooth += math.Abs(smooth[i] - clean[i])
	}
	if errSmooth >= errNoisy {
		t.Errorf("smoothing did not reduce error: smooth=%v noisy=%v", errSmooth, errNoisy)
	}
}

func TestSmoothDegenerateReturnsCopy(t *testing.T) {
	ys := []float64{1, 2}
	out := SmoothWeighted([]float64{3, 3}, ys, nil, 0.5)
	if len(out) != 2 || out[0] != 1 || out[1] != 2 {
		t.Errorf("Smooth on degenerate domain = %v, want copy of ys", out)
	}
	out[0] = 42
	if ys[0] != 1 {
		t.Error("Smooth must return a copy, not alias ys")
	}
}

func TestSmoothBadSmoothnessDefaults(t *testing.T) {
	xs := vecmath.Linspace(0, 1, 30)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = x * x
	}
	out := SmoothWeighted(xs, ys, nil, -1)
	if len(out) != len(xs) {
		t.Fatalf("Smooth returned %d values, want %d", len(out), len(xs))
	}
}

func TestSolve(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := solve(a, b)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	// 2x+y=5, x+3y=10 → x=1, y=3
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Errorf("solve = %v, want [1 3]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := [][]float64{{1, 1}, {1, 1}}
	b := []float64{1, 2}
	if _, err := solve(a, b); !errors.Is(err, ErrSingular) {
		t.Errorf("singular system err = %v, want ErrSingular", err)
	}
}

// TestBandedSolveMatchesDense requires the banded solve to run on
// finite fits wider than its band and to give the dense solve's
// control points bit for bit, and to hand NaN abscissae and
// infinite weights to the dense solve.
func TestBandedSolveMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		n := 12 + rng.Intn(300)
		xs := make([]float64, n)
		ys := make([]float64, n)
		ws := make([]float64, n)
		levels := 1 + rng.Intn(2*n)
		for i := range xs {
			xs[i] = float64(rng.Intn(levels)) / float64(levels)
			ys[i] = rng.NormFloat64()
			ws[i] = float64(rng.Intn(6) - 1)
		}
		slices.Sort(xs)
		xs[0], xs[n-1] = 0, 1
		nCtrl := bandWidth + 1 + rng.Intn(n-bandWidth)
		sp := &Spline{knots: clampedKnots(0, 1, nCtrl), lo: 0, hi: 1}
		got, err := sp.fitBanded(xs, ys, ws)
		if err != nil {
			t.Fatalf("trial %d (n %d, nCtrl %d): banded: %v", trial, n, nCtrl, err)
		}
		want, err := sp.fitDense(xs, ys, ws)
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("trial %d (n %d, nCtrl %d): control %d = %v, dense %v", trial, n, nCtrl, j, got[j], want[j])
			}
		}
	}
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
	ys := make([]float64, len(xs))
	inf := make([]float64, len(xs))
	for i := range ys {
		ys[i], inf[i] = math.Sin(float64(i)), 1
	}
	inf[9] = math.Inf(1)
	nan := slices.Clone(xs)
	nan[5] = math.NaN()
	sp := &Spline{knots: clampedKnots(0, 13, 12), lo: 0, hi: 13}
	for name, c := range map[string]struct{ xs, ws []float64 }{
		"nan abscissa":    {nan, nil},
		"infinite weight": {xs, inf},
	} {
		if _, err := sp.fitBanded(c.xs, ys, c.ws); !errors.Is(err, errNotBanded) {
			t.Errorf("%s: banded err = %v, want errNotBanded", name, err)
		}
	}
}

// TestSolveBandedMatchesSolve requires solveBanded, with solve where it
// returns errNotBanded, to give solve's solution bit for bit on random
// band systems that pivot (normal draws, so row interchanges fill the
// band to 2·degree above the diagonal), with exact zeros, half of them
// with two entries of the matrix or right-hand side infinite, NaN,
// huge or subnormal, and every other system to stay on the band.
func TestSolveBandedMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, 1e-310}
	for trial := 0; trial < 20000; trial++ {
		n := 1 + rng.Intn(40)
		banded := make([]float64, n*bandWidth)
		dense := make([][]float64, n)
		b := make([]float64, n)
		for r := range dense {
			dense[r] = make([]float64, n)
			b[r] = rng.NormFloat64()
			for c := max(0, r-degree); c <= min(n-1, r+degree); c++ {
				if rng.Intn(5) > 0 {
					dense[r][c] = rng.NormFloat64()
					banded[band(r, c)] = dense[r][c]
				}
			}
		}
		special := trial%2 == 1
		for range 2 * (trial % 2) {
			r := rng.Intn(n)
			c := min(n-1, max(0, r+rng.Intn(2*degree+1)-degree))
			v := specials[rng.Intn(len(specials))]
			if rng.Intn(3) == 0 {
				b[r] = v
				continue
			}
			dense[r][c], banded[band(r, c)] = v, v
		}
		want, wantErr := solve(dense, slices.Clone(b))
		got, err := solveBanded(banded, b)
		if errors.Is(err, errNotBanded) {
			if !special {
				t.Fatalf("trial %d: finite %d×%d system left the band", trial, n, n)
			}
			continue
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: err = %v, solve err = %v", trial, err, wantErr)
		}
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("trial %d (n %d): x[%d] = %v, solve %v", trial, n, j, got[j], want[j])
			}
		}
	}
}

// TestSolveBandedInfinitySolution requires a solution value that is
// infinite on the band but NaN in the dense solve to send the system
// to the dense solve. The system is the upper triangle elimination
// leaves, 2·degree diagonals above a unit one, all −1, with b[n−1] =
// +Inf: every x[r] = b[r] + Σ x[c] is +Inf on the band, while solve
// multiplies that +Inf by the +0 entries right of the band.
func TestSolveBandedInfinitySolution(t *testing.T) {
	const n = 10
	a := make([]float64, n*bandWidth)
	dense := make([][]float64, n)
	b := make([]float64, n)
	for r := range n {
		dense[r] = make([]float64, n)
		dense[r][r], a[band(r, r)] = 1, 1
		for c := r + 1; c <= min(r+2*degree, n-1); c++ {
			dense[r][c], a[band(r, c)] = -1, -1
		}
	}
	b[n-1] = math.Inf(1)
	want, err := solve(dense, slices.Clone(b))
	if err != nil || !math.IsNaN(want[0]) {
		t.Fatalf("solve = %v, %v; want NaN in row 0", want, err)
	}
	if _, err := solveBanded(a, b); !errors.Is(err, errNotBanded) {
		t.Fatalf("err = %v, want errNotBanded", err)
	}
}

// Property: spline of monotone data stays within the data's y range
// (loosely — least-squares cubics can overshoot slightly).
func TestSmoothStaysNearRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
			ys[i] = rng.Float64()
		}
		out := SmoothWeighted(xs, ys, nil, 0.2)
		lo, hi := vecmath.Min(ys), vecmath.Max(ys)
		margin := (hi-lo)*0.5 + 0.1
		for _, y := range out {
			if y < lo-margin || y > hi+margin {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// BenchmarkSmoothWeighted smooths one tie-collapsed k-NN ECDF at the
// shape Algorithm 1 meets on a pool of about 2.7k unique segments:
// 2.6k distinct distances carrying 2.7k samples (every 26th distance a
// tied pair), so SmoothWeighted fits ⌈0.1·2700⌉ = 270 control points.
func BenchmarkSmoothWeighted(b *testing.B) {
	const distinct, samples = 2600, 2700
	rng := rand.New(rand.NewSource(101))
	xs := make([]float64, distinct)
	for i := range xs {
		u := rng.Float64()
		xs[i] = u * u * u
	}
	slices.Sort(xs)
	ys := make([]float64, distinct)
	ws := make([]float64, distinct)
	seen := 0
	for i := range ws {
		ws[i] = 1
		if i%26 == 0 {
			ws[i] = 2
		}
		ys[i] = (float64(seen+1) + float64(seen) + ws[i]) / 2 / samples
		seen += int(ws[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SmoothWeighted(xs, ys, ws, 0.1)
	}
}
