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
