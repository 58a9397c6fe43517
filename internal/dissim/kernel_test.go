package dissim

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"protoclust/internal/canberra"
	"protoclust/internal/netmsg"
)

// randomPool builds a deterministic pool of n unique segments with
// lengths drawn from lens.
func randomPool(t testing.TB, n int, lens []int, seed int64) *Pool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool)
	var segs []netmsg.Segment
	for len(seen) < n {
		l := lens[rng.Intn(len(lens))]
		b := make([]byte, l)
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		if seen[string(b)] {
			continue
		}
		seen[string(b)] = true
		m := &netmsg.Message{Data: b}
		segs = append(segs, netmsg.Segment{Msg: m, Offset: 0, Length: l})
	}
	p := NewPool(segs)
	if p.Size() != n {
		t.Fatalf("pool size = %d, want %d", p.Size(), n)
	}
	return p
}

// TestComputeMatchesReference is the package-level differential test:
// the tiled kernel build must reproduce the original per-pair reference
// matrix entry for entry.
func TestComputeMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		lens []int
	}{
		{"equalLength", []int{8}},
		{"mixedLengths", []int{2, 3, 4, 6, 8, 12, 16}},
		{"extremeMismatch", []int{2, 64}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := randomPool(t, 120, tc.lens, 7)
			got, err := Compute(pool, canberra.DefaultPenalty)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ComputeReference(pool, canberra.DefaultPenalty)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < pool.Size(); i++ {
				for j := 0; j < pool.Size(); j++ {
					if g, w := got.Dist(i, j), want.Dist(i, j); math.Abs(g-w) > 1e-12 {
						t.Fatalf("Dist(%d,%d) = %v, reference = %v", i, j, g, w)
					}
				}
			}
		})
	}
}

// TestKNNTableMatchesSort checks the bounded-heap selection against the
// original full-sort construction, including tie handling.
func TestKNNTableMatchesSort(t *testing.T) {
	pool := randomPool(t, 150, []int{2, 4, 4, 8}, 11)
	m, err := Compute(pool, canberra.DefaultPenalty)
	if err != nil {
		t.Fatal(err)
	}
	kmax := 7
	got, err := m.KNNTable(kmax)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.KNNTableSort(kmax)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < kmax; k++ {
		for i := 0; i < m.Len(); i++ {
			if got[k][i] != want[k][i] {
				t.Fatalf("table[%d][%d] = %v, sort-based = %v", k, i, got[k][i], want[k][i])
			}
		}
	}
	// KNNDistances must agree with the corresponding table column.
	for k := 1; k <= kmax; k++ {
		col, err := m.KNNDistances(k)
		if err != nil {
			t.Fatal(err)
		}
		for i := range col {
			if col[i] != want[k-1][i] {
				t.Fatalf("KNNDistances(%d)[%d] = %v, want %v", k, i, col[i], want[k-1][i])
			}
		}
	}
}

// emptySegmentPool fabricates a pool whose first unique segment is
// empty; Compute must surface canberra.ErrEmpty.
func emptySegmentPool(n int) *Pool {
	p := &Pool{}
	p.Unique = make([]netmsg.Segment, n)
	empty := &netmsg.Message{Data: nil}
	p.Unique[0] = netmsg.Segment{Msg: empty, Offset: 0, Length: 0}
	for i := 1; i < n; i++ {
		b := []byte{byte(i), byte(i >> 8), byte(i * 3), byte(i * 7)}
		p.Unique[i] = netmsg.Segment{Msg: &netmsg.Message{Data: b}, Offset: 0, Length: len(b)}
	}
	return p
}

func TestComputeEmptySegmentError(t *testing.T) {
	if _, err := Compute(emptySegmentPool(8), canberra.DefaultPenalty); !errors.Is(err, canberra.ErrEmpty) {
		t.Fatalf("err = %v, want canberra.ErrEmpty", err)
	}
}

// TestComputeCancellationStopsWorkers verifies the error path: once one
// worker fails, the shared stop flag must keep the others from chewing
// through the remaining tiles. The empty segment sorts first in the
// length-ordered traversal, so the very first tile errors; after that,
// each worker may finish at most the tile it already holds.
func TestComputeCancellationStopsWorkers(t *testing.T) {
	n := 40 * tileSize // 780 tiles
	pool := emptySegmentPool(n)

	var tiles atomic.Int64
	computeTileHook = func() { tiles.Add(1) }
	defer func() { computeTileHook = nil }()

	if _, err := Compute(pool, canberra.DefaultPenalty); !errors.Is(err, canberra.ErrEmpty) {
		t.Fatalf("err = %v, want canberra.ErrEmpty", err)
	}
	nb := (n + tileSize - 1) / tileSize
	total := int64(nb * (nb + 1) / 2)
	// Generous bound: every worker may pick up a few tiles before the
	// failing one sets stop, but nothing close to the full triangle.
	limit := int64(8*runtime.GOMAXPROCS(0)) + 8
	if got := tiles.Load(); got > limit || got >= total {
		t.Fatalf("workers processed %d of %d tiles after the error (limit %d) — cancellation not propagating", got, total, limit)
	}
}

func TestUpperTriangleTinyMatrixNil(t *testing.T) {
	segs := segsFromValues([]byte{1, 2})
	m, err := Compute(NewPool(segs), canberra.DefaultPenalty)
	if err != nil {
		t.Fatal(err)
	}
	if ut := m.UpperTriangle(); ut != nil {
		t.Errorf("UpperTriangle of 1×1 matrix = %v, want nil", ut)
	}
	m.StreamSuffix(0, func(lo int, vals []float32) {
		t.Errorf("StreamSuffix of a 1×1 matrix yielded %v at %d, want nothing", vals, lo)
	})
}

func TestMatrixViews(t *testing.T) {
	pool := randomPool(t, 10, []int{2, 4}, 5)
	m, err := Compute(pool, canberra.DefaultPenalty)
	if err != nil {
		t.Fatal(err)
	}
	views := m.Views()
	if len(views) != pool.Size() {
		t.Fatalf("Views len = %d, want %d", len(views), pool.Size())
	}
	for i, v := range views {
		b := pool.Unique[i].Bytes()
		if len(v) != len(b) {
			t.Fatalf("view %d length %d, segment length %d", i, len(v), len(b))
		}
		for j := range b {
			if v[j] != float64(b[j]) {
				t.Fatalf("view %d[%d] = %v, want %d", i, j, v[j], b[j])
			}
		}
	}
}
