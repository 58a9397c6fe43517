package dissim

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"protoclust/internal/canberra"
	"protoclust/internal/dbscan"
	"protoclust/internal/dissim/tilestore"
	"protoclust/internal/netmsg"
)

// randomPool builds a deterministic pool of n unique segments with
// lengths drawn from lens.
func randomPool(t testing.TB, n int, lens []int, seed int64) *Pool {
	t.Helper()
	return alphabetPool(t, n, lens, 256, seed)
}

// alphabetPool is randomPool with byte values drawn from [0, alphabet):
// a small alphabet makes many pairs equally dissimilar.
func alphabetPool(t testing.TB, n int, lens []int, alphabet int, seed int64) *Pool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool)
	var segs []netmsg.Segment
	for len(seen) < n {
		l := lens[rng.Intn(len(lens))]
		b := make([]byte, l)
		for i := range b {
			b[i] = byte(rng.Intn(alphabet))
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
			got, err := ComputeMatrixContext(context.Background(), pool, Config{Penalty: canberra.DefaultPenalty})
			if err != nil {
				t.Fatal(err)
			}
			closeAtCleanup(t, got)
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

// TestFillMatchesReferenceAtTileEdges checks every backend bit for bit
// against the per-row reference at sizes around the tile edges: one row
// block (64) and one column block (256) of the eager fill, each ±1, and
// sizes that leave short last blocks. Lengths mix runs of the row's own
// length, partner-lane lengths and longer segments. Three more pools
// use few lengths, so runs are long and scattered over the pool order:
// there many rows cut their block's runs inside the last, zero-padded
// group of four, whose padded lanes must never reach storage.
func TestFillMatchesReferenceAtTileEdges(t *testing.T) {
	type shape struct {
		n      int
		lens   []int
		padded bool // some row must cut a run inside its padded last group
	}
	var shapes []shape
	for _, n := range []int{2, 3, 63, 64, 65, 255, 256, 257, 321} {
		shapes = append(shapes, shape{n, []int{2, 3, 4, 5, 6, 8, 12, 16, 24}, false})
	}
	shapes = append(shapes, shape{7, []int{2, 5}, true}, shape{70, []int{2, 3, 5}, true}, shape{300, []int{2, 3, 4, 6, 7}, true})
	for _, sh := range shapes {
		n := sh.n
		pool := randomPool(t, n, sh.lens, int64(n))
		if sh.padded {
			views := pool.Views()
			cuts := 0
			for c0 := 0; c0 < n; c0 += fillCols {
				cuts += cutsInPaddedGroup(views, c0, min(c0+fillCols, n))
			}
			if cuts == 0 {
				t.Fatalf("n=%d: no row cuts a run inside its padded last group", n)
			}
		}
		want, err := ComputeReference(pool, canberra.DefaultPenalty)
		if err != nil {
			t.Fatal(err)
		}
		for name, m := range buildBackends(t, pool) {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if g, w := m.Dist(i, j), want.Dist(i, j); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("n=%d %s: Dist(%d,%d) = %v, reference = %v", n, name, i, j, g, w)
					}
				}
			}
		}
	}
}

// cutsInPaddedGroup counts the (row, run) pairs of the block of pool
// indices [lo, hi) whose diagonal cut falls in the run's last group of
// four while that group is zero-padded: the row's partners past the
// diagonal start in that group.
func cutsInPaddedGroup(views []canberra.View, lo, hi int) int {
	blk := canberra.NewLengthBlock(views, lo, hi)
	cuts := 0
	for start := 0; start < len(blk.Idx); {
		end := start + 1
		for end < len(blk.Idx) && len(blk.Views[end]) == len(blk.Views[start]) {
			end++
		}
		if m := end - start; m%4 != 0 {
			for i := lo; i < hi; i++ {
				from := 0
				for _, j := range blk.Idx[start:end] {
					if j <= i {
						from++
					}
				}
				if from >= m&^3 && from < m {
					cuts++
				}
			}
		}
		start = end
	}
	return cuts
}

// TestKNNTableMatchesSort checks the bounded-heap selection against the
// original full-sort construction, including tie handling, on the
// condensed backend and on the tiled one under a budget of three tiles,
// with and without a spill directory: the walk's row order decides
// which tiles it evicts and recomputes or reloads. The 300-point pool
// (15 tiles) is below the walk's inline threshold, so one worker fills
// every heap. The 600-point pool (55 tiles) is above it, so at
// GOMAXPROCS > 1 the heaps of several workers are merged; its
// four-value alphabet puts ties at the k-th neighbour, which the merge
// must keep.
func TestKNNTableMatchesSort(t *testing.T) {
	const kmax = 7
	tile := int64(tilestore.DefaultTileSize * tilestore.DefaultTileSize * 4)
	for _, pc := range []struct {
		name string
		pool *Pool
		ties bool
	}{
		{"n=300", randomPool(t, 300, []int{2, 4, 4, 8}, 11), false},
		{"n=600", alphabetPool(t, 600, []int{2, 4, 4, 8}, 4, 11), true},
	} {
		for _, c := range []struct {
			name string
			cfg  Config
		}{
			{"condensed", Config{Penalty: canberra.DefaultPenalty, Backend: BackendCondensed}},
			{"tiled", Config{Penalty: canberra.DefaultPenalty, Backend: BackendTiled, MemoryBudget: 3 * tile}},
			{"tiled spill", Config{Penalty: canberra.DefaultPenalty, Backend: BackendTiled, MemoryBudget: 3 * tile, SpillDir: t.TempDir()}},
		} {
			name := pc.name + " " + c.name
			m, err := ComputeMatrixContext(context.Background(), pc.pool, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			closeAtCleanup(t, m)
			got, err := m.KNNTable(kmax)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := m.KNNTableSort(kmax + 1)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ties := 0
			for i := 0; i < m.Len(); i++ {
				for k := 0; k < kmax; k++ {
					if math.Float64bits(got[k][i]) != math.Float64bits(want[k][i]) {
						t.Fatalf("%s: table[%d][%d] = %v, sort-based = %v", name, k, i, got[k][i], want[k][i])
					}
				}
				if want[kmax-1][i] == want[kmax][i] {
					ties++
				}
			}
			if pc.ties && ties == 0 {
				t.Fatalf("%s: no row ties its k-th and (k+1)-th neighbour; the pool no longer tests tie handling", name)
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
	if _, err := ComputeMatrixContext(context.Background(), emptySegmentPool(8), Config{Penalty: canberra.DefaultPenalty}); !errors.Is(err, canberra.ErrEmpty) {
		t.Fatalf("err = %v, want canberra.ErrEmpty", err)
	}
}

// TestComputeCancellationStopsWorkers verifies the error path: once one
// worker fails, the shared stop flag must keep the others from chewing
// through the remaining tiles. The empty segment is pool index 0, in the
// first row block, so the very first tile errors; after that, each
// worker may finish at most the tile it already holds.
func TestComputeCancellationStopsWorkers(t *testing.T) {
	const n = 2560
	pool := emptySegmentPool(n)

	var tiles atomic.Int64
	computeTileHook = func() { tiles.Add(1) }
	defer func() { computeTileHook = nil }()

	if _, err := ComputeMatrixContext(context.Background(), pool, Config{Penalty: canberra.DefaultPenalty}); !errors.Is(err, canberra.ErrEmpty) {
		t.Fatalf("err = %v, want canberra.ErrEmpty", err)
	}
	total := int64(len(fillGrid(n)))
	// Generous bound: every worker may pick up a few tiles before the
	// failing one sets stop, but nothing close to the full triangle.
	limit := int64(8*runtime.GOMAXPROCS(0)) + 8
	if got := tiles.Load(); got > limit || got >= total {
		t.Fatalf("workers processed %d of %d tiles after the error (limit %d) — cancellation not propagating", got, total, limit)
	}
}

func TestPoolViews(t *testing.T) {
	pool := randomPool(t, 10, []int{2, 4}, 5)
	views := pool.Views()
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

// TestKNNTableInfiniteDistances checks the table on a matrix whose rows
// hold +Inf distances, which a short heap turns away and the table
// fills back in: point 0 is infinitely far from every other point, and
// every third pair of the rest is too. At 400 points the walk runs
// banded, so at GOMAXPROCS > 1 the worker heaps are merged.
func TestKNNTableInfiniteDistances(t *testing.T) {
	const n, kmax = 400, 6
	c, err := dbscan.NewCondensedMatrix(n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := float64(rng.Intn(16)) / 16
			if i == 0 || (i+j)%3 == 0 {
				d = math.Inf(1)
			}
			c.Set(i, j, d)
		}
	}
	m := &Matrix{store: c, backend: BackendCondensed}
	got, err := m.KNNTable(kmax)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.KNNTableSort(kmax)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		for i := range want[k] {
			if math.Float64bits(got[k][i]) != math.Float64bits(want[k][i]) {
				t.Fatalf("table[%d][%d] = %v, sort-based = %v", k, i, got[k][i], want[k][i])
			}
		}
	}
	if !math.IsInf(got[kmax-1][0], 1) {
		t.Fatalf("point 0's %d-th neighbour = %v, want +Inf", kmax, got[kmax-1][0])
	}
}
