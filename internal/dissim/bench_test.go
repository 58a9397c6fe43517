package dissim

import (
	"context"
	"fmt"
	"testing"

	"protoclust/internal/canberra"
)

// Benchmark shapes: "equalLength" pools take the kernel's fast path on
// every pair (best case), "maxMismatch" pools pay the full sliding
// window on every cross pair (worst case), "mixed" draws lengths
// uniformly from a spread of short and long segments, and "awdl" draws
// them from the length histogram of a real NEMESYS pool (awdlLengths).
// Each optimized variant has a reference sibling measuring the
// pre-kernel implementation kept in reference.go.

// awdlLengths is the segment length histogram, as {length, count}, of
// the NEMESYS pool of a generated 1,000-message AWDL trace (5,571
// unique segments), the shape the pinned-eps benchmark clusters: 93 %
// of segments are 2–6 bytes and 99 % at most 8, so most pairs are short
// and of unequal length.
var awdlLengths = [][2]int{
	{2, 923}, {3, 896}, {4, 1187}, {5, 1084}, {6, 1074}, {7, 285}, {8, 48},
	{9, 14}, {10, 10}, {11, 16}, {12, 23}, {13, 5}, {15, 5}, {20, 1},
}

// histogramLengths expands a {length, count} histogram into a list a
// uniform draw from which follows the histogram.
func histogramLengths(h [][2]int) []int {
	var lens []int
	for _, lc := range h {
		for range lc[1] {
			lens = append(lens, lc[0])
		}
	}
	return lens
}

func BenchmarkComputeMatrix(b *testing.B) {
	shapes := []struct {
		name string
		n    int
		lens []int
	}{
		{"n=500/equalLength", 500, []int{8}},
		{"n=500/mixed", 500, []int{2, 3, 4, 6, 8, 12, 16}},
		{"n=500/maxMismatch", 500, []int{2, 64}},
		{"n=2000/mixed", 2000, []int{2, 3, 4, 6, 8, 12, 16}},
		{"n=2000/awdl", 2000, histogramLengths(awdlLengths)},
		// The pinned-eps size: its 62 MB condensed triangle does not stay
		// in cache, so the cost of where the fill's stores land shows.
		{"n=5571/awdl", 5571, histogramLengths(awdlLengths)},
	}
	for _, s := range shapes {
		pool := randomPool(b, s.n, s.lens, 1)
		b.Run(s.name+"/optimized", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := ComputeMatrixContext(context.Background(), pool, Config{Penalty: canberra.DefaultPenalty})
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(s.name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ComputeReference(pool, canberra.DefaultPenalty); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKNNTable measures the k-NN table on a resident matrix
// ("heap", and its pre-heap reference "sort") and, under "tiled", the
// whole lazy pass on the tiled backend: build, k-NN table, Close, since
// the tiled backend computes its tiles during the table walk.
func BenchmarkKNNTable(b *testing.B) {
	const kmax = 8 // ≈ ln 2000, Algorithm 1's kMax regime
	for _, n := range []int{500, 2000} {
		pool := randomPool(b, n, []int{2, 3, 4, 6, 8, 12, 16}, 1)
		m, err := ComputeMatrixContext(context.Background(), pool, Config{Penalty: canberra.DefaultPenalty})
		if err != nil {
			b.Fatal(err)
		}
		closeAtCleanup(b, m)
		b.Run(fmt.Sprintf("n=%d/heap", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.KNNTable(kmax); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/sort", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.KNNTableSort(kmax); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/tiled", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tm, err := ComputeMatrixContext(context.Background(), pool, Config{Penalty: canberra.DefaultPenalty, Backend: BackendTiled})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tm.KNNTable(kmax); err != nil {
					b.Fatal(err)
				}
				if err := tm.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
