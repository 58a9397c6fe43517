package eval

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"protoclust/internal/canberra"
	"protoclust/internal/dbscan"
	"protoclust/internal/dissim/tilestore"
)

// silhouetteDistLoop is the reference silhouette: the same definition
// and accumulation order as Silhouette, with each row read through a
// j = 0…n−1 Dist loop per row instead of one walk over the row
// suffixes.
func silhouetteDistLoop(m dbscan.Matrix, labels []int) float64 {
	n := m.Len()
	sizes := map[int]int{}
	for _, l := range labels {
		if l >= 0 {
			sizes[l]++
		}
	}
	if len(sizes) < 2 {
		return 0
	}
	var total float64
	var scored int
	for i, li := range labels {
		if li < 0 {
			continue
		}
		scored++
		if sizes[li] < 2 {
			continue
		}
		sums := map[int]float64{}
		for j := 0; j < n; j++ {
			if l := labels[j]; l >= 0 {
				sums[l] += m.Dist(i, j)
			}
		}
		a := sums[li] / float64(sizes[li]-1)
		b := math.Inf(1)
		for l, size := range sizes {
			if l != li {
				b = math.Min(b, sums[l]/float64(size))
			}
		}
		if d := max(a, b); d > 0 {
			total += (b - a) / d
		}
	}
	return total / float64(scored)
}

// q round-trips a distance through the backends' float32 quantization
// so hand-computed expectations match stored values exactly.
func q(v float64) float64 { return float64(dbscan.Quantize(v)) }

// pairScore is the silhouette of one point of a tight pair against the
// far pair: a = 0.1, b = 0.9 after quantization.
func pairScore() float64 { return (q(0.9) - q(0.1)) / q(0.9) }

// twoBlobs builds a 4-point matrix with two tight pairs: intra-pair
// distance 0.1, inter-pair 0.9.
func twoBlobs(t *testing.T) *dbscan.CondensedMatrix {
	t.Helper()
	m, err := dbscan.NewCondensedMatrix(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			d := 0.9
			if i/2 == j/2 {
				d = 0.1
			}
			m.Set(i, j, d)
		}
	}
	return m
}

func TestSilhouetteSeparatedPairs(t *testing.T) {
	m := twoBlobs(t)
	labels := []int{0, 0, 1, 1}
	// Every point: a = 0.1, b = 0.9, s = (b−a)/b.
	want := pairScore()
	got := Silhouette(m, labels)
	if !almost(got, want) {
		t.Errorf("silhouette = %v, want %v", got, want)
	}
}

func TestSilhouetteMatchesDistLoop(t *testing.T) {
	m := twoBlobs(t)
	labels := []int{0, 0, 1, 1}
	if s, d := Silhouette(m, labels), silhouetteDistLoop(m, labels); s != d {
		t.Errorf("streamed = %v, dist loop = %v; want identical", s, d)
	}

	// A random matrix with noise, a singleton and sparse label ids.
	rng := rand.New(rand.NewSource(7))
	const n = 40
	r, err := dbscan.NewCondensedMatrix(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			r.Set(i, j, rng.Float64())
		}
	}
	labels = randomLabels(rng, n)
	if s, d := Silhouette(r, labels), silhouetteDistLoop(r, labels); s != d {
		t.Errorf("random: streamed = %v, dist loop = %v; want identical", s, d)
	}

	// A tiled matrix over three 64-wide tile columns at a budget of
	// three tiles: row suffixes arrive in several spans and tiles are
	// evicted and recomputed during the walk.
	const nt, ts = 150, 64
	views := make([]canberra.View, nt)
	for i := range views {
		b := make([]byte, 2+rng.Intn(11))
		for j := range b {
			b[j] = byte(rng.Intn(256))
		}
		views[i] = canberra.NewView(b)
	}
	st, err := tilestore.New(context.Background(), views, tilestore.Config{
		TileSize:    ts,
		BudgetBytes: 3 * ts * ts * 4,
		Penalty:     canberra.DefaultPenalty,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	labels = randomLabels(rng, nt)
	if s, d := Silhouette(st, labels), silhouetteDistLoop(st, labels); math.Float64bits(s) != math.Float64bits(d) {
		t.Errorf("tiled: streamed = %v, dist loop = %v; want identical", s, d)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
}

// randomLabels draws n labels from noise and the sparse ids 0, 3 and 5,
// and gives the last point a singleton cluster of its own.
func randomLabels(rng *rand.Rand, n int) []int {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = []int{-1, 0, 3, 5}[rng.Intn(4)]
	}
	labels[n-1] = 9
	return labels
}

func TestSilhouetteNoiseExcluded(t *testing.T) {
	m, err := dbscan.NewCondensedMatrix(5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			d := 0.9
			if i/2 == j/2 {
				d = 0.1
			}
			if j == 4 {
				d = 0.5 // noise point at arbitrary distances
			}
			m.Set(i, j, d)
		}
	}
	got := Silhouette(m, []int{0, 0, 1, 1, -1})
	want := pairScore()
	if !almost(got, want) {
		t.Errorf("silhouette with noise = %v, want %v (noise must not shift the score)", got, want)
	}
}

func TestSilhouetteDegenerate(t *testing.T) {
	m := twoBlobs(t)
	cases := []struct {
		name   string
		labels []int
	}{
		{"single cluster", []int{0, 0, 0, 0}},
		{"all noise", []int{-1, -1, -1, -1}},
		{"length mismatch", []int{0, 0}},
	}
	for _, c := range cases {
		if got := Silhouette(m, c.labels); got != 0 {
			t.Errorf("%s: silhouette = %v, want 0", c.name, got)
		}
	}
}

func TestSilhouetteSingletonScoresZero(t *testing.T) {
	// Pair {0,1} plus singleton {2}: the pair's points score normally,
	// the singleton contributes a 0 to the mean.
	m, err := dbscan.NewCondensedMatrix(3)
	if err != nil {
		t.Fatal(err)
	}
	m.Set(0, 1, 0.1)
	m.Set(0, 2, 0.9)
	m.Set(1, 2, 0.9)
	got := Silhouette(m, []int{0, 0, 1})
	want := (pairScore() + pairScore() + 0) / 3
	if !almost(got, want) {
		t.Errorf("silhouette = %v, want %v", got, want)
	}
}

func TestSilhouetteBoundedAndSigned(t *testing.T) {
	// A deliberately wrong labeling (splitting the true pairs) must score
	// negative; any score stays within [-1, 1].
	m := twoBlobs(t)
	got := Silhouette(m, []int{0, 1, 0, 1})
	if got >= 0 {
		t.Errorf("silhouette of mis-labeling = %v, want < 0", got)
	}
	if got < -1 || got > 1 {
		t.Errorf("silhouette = %v outside [-1, 1]", got)
	}
	if math.IsNaN(got) {
		t.Error("silhouette is NaN")
	}
}
