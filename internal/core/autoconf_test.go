package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"protoclust/internal/canberra"
	"protoclust/internal/dissim"
	"protoclust/internal/netmsg"
)

// poolFromValues builds a dissimilarity matrix over the given byte
// values.
func poolFromValues(t *testing.T, values [][]byte) (*dissim.Pool, *dissim.Matrix) {
	t.Helper()
	var segs []netmsg.Segment
	for _, v := range values {
		m := &netmsg.Message{Data: v}
		segs = append(segs, netmsg.Segment{Msg: m, Offset: 0, Length: len(v)})
	}
	pool := dissim.NewPool(segs)
	matrix, err := dissim.Compute(pool, canberra.DefaultPenalty)
	if err != nil {
		t.Fatal(err)
	}
	return pool, matrix
}

// bimodalValues builds two dense value modes separated by a wide gap,
// the canonical single-knee population.
func bimodalValues(rng *rand.Rand, perMode int) [][]byte {
	var values [][]byte
	for i := 0; i < perMode; i++ {
		// Mode A: low bytes with small jitter.
		values = append(values, []byte{0x10, byte(rng.Intn(6)), 0x20, byte(rng.Intn(6))})
		// Mode B: high bytes with small jitter.
		values = append(values, []byte{0xe0, byte(0xe0 + rng.Intn(6)), 0xf0, byte(0xf0 + rng.Intn(6))})
	}
	return values
}

func TestConfigureTooFewSegments(t *testing.T) {
	_, m := poolFromValues(t, [][]byte{{1, 2}, {3, 4}})
	if _, err := Configure(m, DefaultParams()); !errors.Is(err, ErrTooFewSegments) {
		t.Errorf("err = %v, want ErrTooFewSegments", err)
	}
}

func TestConfigureFindsSeparatingEpsilon(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	_, m := poolFromValues(t, bimodalValues(rng, 60))
	cfg, err := Configure(m, DefaultParams())
	if err != nil {
		t.Fatalf("Configure: %v", err)
	}
	// The two modes are ~0.8 apart in Canberra terms while intra-mode
	// distances are small; ε must fall in between.
	if cfg.Epsilon <= 0 || cfg.Epsilon >= 0.5 {
		t.Errorf("epsilon = %v, want within the inter-mode gap (0, 0.5)", cfg.Epsilon)
	}
	if !cfg.FromKnee {
		t.Error("expected a knee-derived epsilon on a bimodal population")
	}
	if cfg.Curve.KneeIndex < 0 {
		t.Error("knee index not recorded")
	}
}

func TestConfigureCurveSeriesConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	_, m := poolFromValues(t, bimodalValues(rng, 40))
	cfg, err := Configure(m, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	c := cfg.Curve
	if len(c.X) != len(c.Y) || len(c.Y) != len(c.Smoothed) {
		t.Fatalf("series lengths differ: %d/%d/%d", len(c.X), len(c.Y), len(c.Smoothed))
	}
	for i := 1; i < len(c.X); i++ {
		if c.X[i] < c.X[i-1] {
			t.Fatal("curve X not sorted")
		}
		if c.Y[i] < c.Y[i-1] {
			t.Fatal("ECDF not monotone")
		}
	}
	if cfg.FromKnee && c.X[c.KneeIndex] != cfg.Epsilon {
		t.Errorf("knee X %v != epsilon %v", c.X[c.KneeIndex], cfg.Epsilon)
	}
}

// TestConfigureCollapsesDuplicateDistances drives configure with a
// population whose k-NN distances take only two distinct values, each
// with multiplicity 16: two 4-bit hypercubes of byte patterns, one over
// the alphabet {0x01, 0xff} and one over {0x40, 0x80}. Within a cube
// every point's 1st..3rd-NN distance is the cube's constant edge
// length, so the distance population is nothing but ties — which used
// to reach the spline and knee detector as vertical runs, a
// multi-valued "curve" in x. The fixed configure must emit a strictly
// increasing Curve.X whose Y values equal the true ECDF of the raw
// k-NN population at each distinct x.
func TestConfigureCollapsesDuplicateDistances(t *testing.T) {
	var values [][]byte
	for _, alphabet := range [][2]byte{{0x01, 0xff}, {0x40, 0x80}} {
		for pat := 0; pat < 16; pat++ {
			v := make([]byte, 4)
			for bit := 0; bit < 4; bit++ {
				if pat&(1<<bit) != 0 {
					v[bit] = alphabet[1]
				} else {
					v[bit] = alphabet[0]
				}
			}
			values = append(values, v)
		}
	}
	_, m := poolFromValues(t, values)
	cfg, err := Configure(m, DefaultParams())
	if err != nil {
		t.Fatalf("Configure: %v", err)
	}
	if cfg.Epsilon <= 0 {
		t.Errorf("epsilon = %v, want positive", cfg.Epsilon)
	}
	c := cfg.Curve
	if len(c.X) < 2 {
		t.Fatalf("curve collapsed to %d points", len(c.X))
	}
	for i := 1; i < len(c.X); i++ {
		if c.X[i] <= c.X[i-1] {
			t.Fatalf("Curve.X not strictly increasing at %d: %v ≤ %v (duplicate steps leaked through)",
				i, c.X[i], c.X[i-1])
		}
	}
	// Recompute the raw k-NN population for the selected k and check
	// each collapsed step against the definitional ECDF.
	table, err := m.KNNTable(kMax(m.Len()))
	if err != nil {
		t.Fatal(err)
	}
	raw := table[cfg.K-1]
	for i, x := range c.X {
		count := 0
		for _, d := range raw {
			if d <= x {
				count++
			}
		}
		want := float64(count) / float64(len(raw))
		if math.Abs(c.Y[i]-want) > 1e-12 {
			t.Errorf("Curve.Y[%d] = %v at x = %v, want ECDF value %v", i, c.Y[i], x, want)
		}
	}
}

func TestConfigureTrimmedYieldsSmallerEpsilon(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Three modes → at least two knees; trimming below the first ε must
	// surface a smaller one.
	var values [][]byte
	for i := 0; i < 50; i++ {
		values = append(values, []byte{0x08, byte(rng.Intn(4)), 0x08, byte(rng.Intn(4))})
		values = append(values, []byte{0x70, byte(0x70 + rng.Intn(4)), 0x77, byte(rng.Intn(4))})
		values = append(values, []byte{0xe8, byte(0xe8 + rng.Intn(4)), 0xef, byte(0xe8 + rng.Intn(4))})
	}
	_, m := poolFromValues(t, values)
	p := DefaultParams()
	cfg, err := Configure(m, p)
	if err != nil {
		t.Fatal(err)
	}
	table, err := knnTable(m, p)
	if err != nil {
		t.Fatal(err)
	}
	cfg2, err := configure(context.Background(), m, table, p, cfg.Epsilon)
	if err != nil {
		t.Fatalf("trimmed configure: %v", err)
	}
	if cfg2.Epsilon >= cfg.Epsilon {
		t.Errorf("trimmed epsilon %v not below original %v", cfg2.Epsilon, cfg.Epsilon)
	}
}

func TestConfigureTrimBelowEverythingFails(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	_, m := poolFromValues(t, bimodalValues(rng, 20))
	table, err := knnTable(m, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := configure(context.Background(), m, table, DefaultParams(), 1e-12); !errors.Is(err, ErrTooFewSegments) {
		t.Errorf("err = %v, want ErrTooFewSegments after total trim", err)
	}
}

func TestConfigureFallbackOnUniformDistances(t *testing.T) {
	// Values spread so that k-NN distances are nearly uniform: no sharp
	// knee. Configure must still return a usable epsilon via fallback.
	var values [][]byte
	for i := 0; i < 40; i++ {
		values = append(values, []byte{byte(i * 6), byte(255 - i*6), byte(i * 3), byte(i)})
	}
	_, m := poolFromValues(t, values)
	cfg, err := Configure(m, DefaultParams())
	if err != nil {
		t.Fatalf("Configure: %v", err)
	}
	if cfg.Epsilon <= 0 {
		t.Errorf("fallback epsilon = %v, want positive", cfg.Epsilon)
	}
}

func TestMinSamplesScalesWithLog(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	_, m := poolFromValues(t, bimodalValues(rng, 80))
	cfg, err := Configure(m, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MinSamples != minSamples(m.Len()) {
		t.Errorf("MinSamples = %d, want %d", cfg.MinSamples, minSamples(m.Len()))
	}
}

func TestConfigureKInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	_, m := poolFromValues(t, bimodalValues(rng, 60))
	cfg, err := Configure(m, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.K < 2 || cfg.K > kMax(m.Len()) {
		t.Errorf("k = %d outside [2, %d]", cfg.K, kMax(m.Len()))
	}
}

func TestConfigureFixedKPins(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	_, m := poolFromValues(t, bimodalValues(rng, 60))
	for _, k := range []int{2, 3, kMax(m.Len())} {
		p := DefaultParams()
		p.FixedK = k
		cfg, err := Configure(m, p)
		if err != nil {
			t.Fatalf("FixedK=%d: %v", k, err)
		}
		if cfg.K != k {
			t.Errorf("FixedK=%d selected k=%d; pinning must bypass sharpness selection", k, cfg.K)
		}
	}
}

func TestConfigureFixedKOutOfRange(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	_, m := poolFromValues(t, bimodalValues(rng, 60))
	for _, k := range []int{-1, 1, kMax(m.Len()) + 1} {
		p := DefaultParams()
		p.FixedK = k
		if _, err := Configure(m, p); !errors.Is(err, ErrKOutOfRange) {
			t.Errorf("FixedK=%d: err = %v, want ErrKOutOfRange", k, err)
		}
	}
}

func TestConfigureEpsQuantileBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	_, m := poolFromValues(t, bimodalValues(rng, 40))
	for _, q := range []float64{-0.1, 1.0, 1.5} {
		p := DefaultParams()
		p.EpsQuantile = q
		if _, err := Configure(m, p); !errors.Is(err, ErrBadQuantile) {
			t.Errorf("EpsQuantile=%g: err = %v, want ErrBadQuantile", q, err)
		}
	}
}

func TestConfigureEpsQuantileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	_, m := poolFromValues(t, bimodalValues(rng, 60))
	var prev float64
	for i, q := range []float64{0.2, 0.5, 0.9} {
		p := DefaultParams()
		p.EpsQuantile = q
		cfg, err := Configure(m, p)
		if err != nil {
			t.Fatalf("EpsQuantile=%g: %v", q, err)
		}
		if cfg.FromKnee {
			t.Errorf("EpsQuantile=%g: FromKnee=true; the quantile source must bypass knee detection", q)
		}
		if cfg.Epsilon <= 0 {
			t.Errorf("EpsQuantile=%g: eps = %g, want > 0", q, cfg.Epsilon)
		}
		if i > 0 && cfg.Epsilon < prev {
			t.Errorf("EpsQuantile=%g: eps = %g < eps(previous quantile) = %g; quantile ε must be monotone", q, cfg.Epsilon, prev)
		}
		prev = cfg.Epsilon
	}
}

func TestQuantileEpsilonAllIdentical(t *testing.T) {
	// A zero quantile falls back to the smallest positive pairwise
	// dissimilarity; when the matrix has none (a single unique value has
	// no positive pair), the guard fails with ErrAllIdentical rather
	// than handing DBSCAN an eps of 0. Identical segments dedupe in the
	// pool, so Configure itself rejects such inputs earlier with
	// ErrTooFewSegments — the guard is exercised at its own level.
	_, m := poolFromValues(t, [][]byte{{1, 2}})
	if err := quantileEpsilon(&AutoConfig{}, []float64{0, 0, 0}, m, 0.5); !errors.Is(err, ErrAllIdentical) {
		t.Errorf("err = %v, want ErrAllIdentical", err)
	}
	// With any positive distance in the matrix the fallback uses it.
	_, m2 := poolFromValues(t, [][]byte{{1, 2}, {9, 9}})
	ac := &AutoConfig{}
	if err := quantileEpsilon(ac, []float64{0, 0, 0}, m2, 0.5); err != nil || ac.Epsilon <= 0 {
		t.Errorf("eps = %g err = %v, want positive fallback eps", ac.Epsilon, err)
	}
}
