package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"protoclust/internal/dissim"
	"protoclust/internal/netmsg"
)

// TestTiledBackendMatchesCondensed runs the full pipeline — ε
// auto-configuration, DBSCAN, 60 %-guard, refinement — twice on the
// same population: once through the bounded-memory tiled backend under
// a tile budget far below the condensed footprint, with disk spill,
// once through the default condensed in-memory backend. The results
// must be bit-identical: the matrix layout is an implementation detail
// that may never leak into labels. The n = 5000 case is `make
// smoke-tiled`, which runs it under a GOMEMLIMIT that a resident matrix
// of that size respects but a leaking tile cache would not.
func TestTiledBackendMatchesCondensed(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second full-pipeline comparison; skipped in -short")
	}
	synth, _ := synthSegments(420, 3) // ~1260 segments before dedup
	for _, c := range []struct {
		name   string
		segs   []netmsg.Segment
		budget int64
	}{
		{"synthetic", synth, 128 << 10},
		{"clustered-5000", clusteredSegments(5000, 1), 4 << 20},
	} {
		t.Run(c.name, func(t *testing.T) {
			pt := DefaultParams()
			pt.MatrixBackend = dissim.BackendTiled
			pt.MemoryBudget = c.budget
			pt.MatrixSpillDir = t.TempDir()
			// The pipeline closes its matrix; a wrapping builder captures
			// it to check where it lived.
			var tm *dissim.Matrix
			capture := func(ctx context.Context, pool *dissim.Pool, cfg dissim.Config) (*dissim.Matrix, error) {
				m, err := dissim.ComputeMatrixContext(ctx, pool, cfg)
				tm = m
				return m, err
			}
			tiled, err := ClusterSegmentsContext(context.Background(), c.segs, pt, capture)
			if err != nil {
				t.Fatalf("tiled ClusterSegmentsContext: %v", err)
			}
			if got := tm.Backend(); got != dissim.BackendTiled {
				t.Fatalf("backend = %q, want %q", got, dissim.BackendTiled)
			}
			if got := tm.ResidentBytes(); got > c.budget {
				t.Fatalf("tiled ResidentBytes = %d exceeds the %d-byte budget", got, c.budget)
			}

			pc := DefaultParams()
			pc.MatrixBackend = dissim.BackendCondensed
			ref, err := ClusterSegmentsContext(context.Background(), c.segs, pc, nil)
			if err != nil {
				t.Fatalf("condensed ClusterSegmentsContext: %v", err)
			}

			if math.Float64bits(tiled.Config.Epsilon) != math.Float64bits(ref.Config.Epsilon) {
				t.Fatalf("epsilon: tiled %v, condensed %v", tiled.Config.Epsilon, ref.Config.Epsilon)
			}
			if tiled.Config.MinSamples != ref.Config.MinSamples {
				t.Fatalf("min samples: tiled %d, condensed %d", tiled.Config.MinSamples, ref.Config.MinSamples)
			}
			if tiled.Reconfigured != ref.Reconfigured {
				t.Fatalf("reconfigured: tiled %v, condensed %v", tiled.Reconfigured, ref.Reconfigured)
			}
			if len(tiled.Clusters) != len(ref.Clusters) {
				t.Fatalf("clusters: tiled %d, condensed %d", len(tiled.Clusters), len(ref.Clusters))
			}
			for i := range ref.Clusters {
				a, b := tiled.Clusters[i].UniqueIndexes, ref.Clusters[i].UniqueIndexes
				if len(a) != len(b) {
					t.Fatalf("cluster %d size: tiled %d, condensed %d", i, len(a), len(b))
				}
				for j := range b {
					if a[j] != b[j] {
						t.Fatalf("cluster %d member %d: tiled %d, condensed %d", i, j, a[j], b[j])
					}
				}
			}
			if len(tiled.Noise) != len(ref.Noise) {
				t.Fatalf("noise: tiled %d, condensed %d", len(tiled.Noise), len(ref.Noise))
			}
		})
	}
}

// clusteredSegments builds n unique segment values drawn from a small
// set of templates with positional jitter, so DBSCAN has real density
// structure to find at a size where the matrix, not the population
// generator, dominates.
func clusteredSegments(n int, seed int64) []netmsg.Segment {
	rng := rand.New(rand.NewSource(seed))
	lens := []int{4, 6, 8, 8, 12, 12, 16, 16}
	const templates = 12
	tmpl := make([][]byte, templates)
	for t := range tmpl {
		b := make([]byte, lens[t%len(lens)])
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		tmpl[t] = b
	}
	seen := make(map[string]bool, n)
	segs := make([]netmsg.Segment, 0, n)
	for len(segs) < n {
		base := tmpl[rng.Intn(templates)]
		b := make([]byte, len(base))
		copy(b, base)
		// Jitter up to three positions by a small signed delta: close
		// in Canberra terms, yet combinatorially rich enough to yield
		// 50k+ unique values per template set.
		for j := rng.Intn(3) + 1; j > 0; j-- {
			p := rng.Intn(len(b))
			b[p] = byte(int(b[p]) + rng.Intn(17) - 8)
		}
		if seen[string(b)] {
			continue
		}
		seen[string(b)] = true
		segs = append(segs, netmsg.Segment{Msg: &netmsg.Message{Data: b}, Offset: 0, Length: len(b)})
	}
	return segs
}
