package dbscan

import (
	"math"
	"math/rand"
	"testing"
)

// BenchmarkClusterDominant times DBSCAN in the pinned-ε shape: about
// 5.5k unique segments in the condensed backend, over 80 % of them in
// one dense cluster, so most pairs are ε-pairs and most points core.
func BenchmarkClusterDominant(b *testing.B) {
	const n = 5500
	rng := rand.New(rand.NewSource(1))
	pos := make([]float64, n)
	for i := range pos {
		switch {
		case i%10 < 8:
			pos[i] = rng.Float64() * 0.5 // the dominant cluster
		case i%10 == 8:
			pos[i] = 2 + float64(rng.Intn(6)) + rng.Float64()*0.05 // small clusters
		default:
			pos[i] = 10 + rng.Float64()*100 // mostly noise
		}
	}
	m, err := NewCondensedMatrix(n)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, math.Abs(pos[i]-pos[j]))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Cluster(m, 0.13, 5)
		if err != nil {
			b.Fatal(err)
		}
		if share, _ := res.LargestClusterShare(); share < 0.8 {
			b.Fatalf("largest cluster share %.2f, want > 0.8", share)
		}
	}
}
