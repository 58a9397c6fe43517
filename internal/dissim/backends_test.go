package dissim

import (
	"context"
	"math"
	"testing"

	"protoclust/internal/canberra"
	"protoclust/internal/dbscan"
)

// buildBackends computes the same pool through every storage backend:
// condensed, and tiled under a deliberately tiny budget with disk
// spill, so eviction and reload paths are exercised too.
func buildBackends(t *testing.T, pool *Pool) map[string]*Matrix {
	t.Helper()
	out := make(map[string]*Matrix)
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"condensed", Config{Penalty: canberra.DefaultPenalty, Backend: BackendCondensed}},
		{"tiled", Config{
			Penalty:      canberra.DefaultPenalty,
			Backend:      BackendTiled,
			MemoryBudget: 64 << 10,
			SpillDir:     t.TempDir(),
		}},
	} {
		m, err := ComputeMatrixContext(context.Background(), pool, c.cfg)
		if err != nil {
			t.Fatalf("ComputeMatrixContext(%s): %v", c.name, err)
		}
		if got := m.Backend(); got != c.cfg.Backend {
			t.Fatalf("Backend() = %q, want %q", got, c.cfg.Backend)
		}
		t.Cleanup(func() {
			if err := m.Close(); err != nil {
				t.Errorf("Close(%s): %v", c.name, err)
			}
		})
		out[c.name] = m
	}
	return out
}

// TestBackendEquivalenceProperty is the cross-backend property test:
// on randomized pools, every storage backend must produce distances,
// row-suffix streams, k-NN tables, and MinPositiveDist bit-identical
// to ComputeReference's. The reference stores through the condensed
// layout too, but pair by pair; the tiled backend keeps its own layout,
// so a condensed offset bug cannot hide in both sides of the
// comparison. The backends share dbscan.Quantize and the streaming
// order contracts, so any divergence here is a layout bug, not float
// noise.
func TestBackendEquivalenceProperty(t *testing.T) {
	for _, seed := range []int64{3, 17, 99} {
		pool := randomPool(t, 130, []int{2, 3, 4, 6, 8, 12, 16}, seed)
		n := pool.Size()
		ref, err := ComputeReference(pool, canberra.DefaultPenalty)
		if err != nil {
			t.Fatal(err)
		}

		for name, m := range buildBackends(t, pool) {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if g, w := m.Dist(i, j), ref.Dist(i, j); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("seed %d: %s Dist(%d,%d) = %v, reference = %v", seed, name, i, j, g, w)
					}
				}
			}

			const kmax = 6
			got, err := m.KNNTable(kmax)
			if err != nil {
				t.Fatalf("seed %d: %s KNNTable: %v", seed, name, err)
			}
			want, err := ref.KNNTable(kmax)
			if err != nil {
				t.Fatalf("seed %d: reference KNNTable: %v", seed, err)
			}
			for k := range want {
				for i := range want[k] {
					if math.Float64bits(got[k][i]) != math.Float64bits(want[k][i]) {
						t.Fatalf("seed %d: %s KNNTable[%d][%d] = %v, reference = %v",
							seed, name, k, i, got[k][i], want[k][i])
					}
				}
			}

			if g, w := dbscan.MinPositiveDist(m), dbscan.MinPositiveDist(ref); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d: %s MinPositiveDist = %v, reference = %v", seed, name, g, w)
			}

			// StreamSuffix must replay the row after its diagonal:
			// same values, ascending columns, covering (i, n) exactly once.
			for i := 0; i < n; i++ {
				next := i + 1
				m.StreamSuffix(i, func(lo int, vals []float32) {
					if lo != next {
						t.Fatalf("seed %d: %s StreamSuffix(%d) span at %d, want %d", seed, name, i, lo, next)
					}
					for o, d32 := range vals {
						if w := dbscan.Quantize(ref.Dist(i, lo+o)); math.Float32bits(d32) != math.Float32bits(w) {
							t.Fatalf("seed %d: %s StreamSuffix(%d) col %d = %v, reference = %v", seed, name, i, lo+o, d32, w)
						}
					}
					next = lo + len(vals)
				})
				if next != n {
					t.Fatalf("seed %d: %s StreamSuffix(%d) covered up to %d, want %d", seed, name, i, next, n)
				}
			}
		}
	}
}

// float32ULPDiff returns the distance in representable float32 steps
// between two finite non-negative values.
func float32ULPDiff(a, b float32) uint32 {
	ai, bi := math.Float32bits(a), math.Float32bits(b)
	if ai > bi {
		return ai - bi
	}
	return bi - ai
}

// TestStoredDistancesMatchOracle compares the *stored* matrix entries —
// after float32 quantization via dbscan.Quantize — against the float64
// canberra.DissimilarityPenalty oracle, on every backend. The optimized
// kernel may differ from the oracle by strictly sub-float32 noise, so
// the quantized values must agree to within one float32 ulp.
func TestStoredDistancesMatchOracle(t *testing.T) {
	pool := randomPool(t, 90, []int{2, 4, 6, 8, 12}, 23)
	n := pool.Size()
	ms := buildBackends(t, pool)
	for name, m := range ms {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				oracle, err := canberra.DissimilarityPenalty(
					pool.Unique[i].Bytes(), pool.Unique[j].Bytes(), canberra.DefaultPenalty)
				if err != nil {
					t.Fatalf("oracle(%d,%d): %v", i, j, err)
				}
				want := dbscan.Quantize(oracle)
				stored := dbscan.Quantize(m.Dist(i, j))
				if float32ULPDiff(stored, want) > 1 {
					t.Fatalf("%s: stored Dist(%d,%d) = %v, oracle quantized = %v (Δ > 1 ulp)",
						name, i, j, stored, want)
				}
				// Dist must return the quantized value exactly — no
				// backend may leak float64 precision past the store.
				if d := m.Dist(i, j); d != float64(dbscan.Quantize(d)) {
					t.Fatalf("%s: Dist(%d,%d) = %v is not float32-quantized", name, i, j, d)
				}
			}
		}
	}
}
