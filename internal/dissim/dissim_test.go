package dissim

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"protoclust/internal/canberra"
	"protoclust/internal/netmsg"
)

// closeAtCleanup closes m when the test ends: whoever builds a matrix
// closes it, and OpenCondensedBytes must read 0 once every test has.
func closeAtCleanup(tb testing.TB, m *Matrix) {
	tb.Helper()
	tb.Cleanup(func() {
		if err := m.Close(); err != nil {
			tb.Errorf("Close: %v", err)
		}
	})
}

func segsFromValues(values ...[]byte) []netmsg.Segment {
	var segs []netmsg.Segment
	for _, v := range values {
		m := &netmsg.Message{Data: v}
		segs = append(segs, netmsg.Segment{Msg: m, Offset: 0, Length: len(v)})
	}
	return segs
}

func TestNewPoolDedupAndExclusion(t *testing.T) {
	segs := segsFromValues(
		[]byte{1, 2},
		[]byte{1, 2}, // duplicate value
		[]byte{3, 4},
		[]byte{9}, // one byte: excluded
	)
	p := NewPool(segs)
	if p.Size() != 2 {
		t.Fatalf("Size = %d, want 2", p.Size())
	}
	if len(p.Excluded) != 1 {
		t.Fatalf("Excluded = %d, want 1", len(p.Excluded))
	}
	if n := len(p.Occurrences[0]) + len(p.Occurrences[1]); n != 3 {
		t.Errorf("occurrences = %d, want 3", n)
	}
	// Deterministic ordering by value.
	if p.Unique[0].Bytes()[0] != 1 || p.Unique[1].Bytes()[0] != 3 {
		t.Errorf("pool not sorted by value: %x, %x", p.Unique[0].Bytes(), p.Unique[1].Bytes())
	}
	if len(p.Occurrences[0]) != 2 {
		t.Errorf("occurrences of {1,2} = %d, want 2", len(p.Occurrences[0]))
	}
}

func TestNewPoolEmpty(t *testing.T) {
	p := NewPool(nil)
	if p.Size() != 0 {
		t.Errorf("empty pool Size = %d", p.Size())
	}
	if _, err := ComputeMatrixContext(context.Background(), p, Config{Penalty: canberra.DefaultPenalty}); !errors.Is(err, ErrEmptyPool) {
		t.Errorf("Compute on empty pool err = %v, want ErrEmptyPool", err)
	}
}

func TestComputeMatrixValues(t *testing.T) {
	segs := segsFromValues([]byte{10, 20}, []byte{10, 20, 30}, []byte{200, 200})
	p := NewPool(segs)
	m, err := ComputeMatrixContext(context.Background(), p, Config{Penalty: canberra.DefaultPenalty})
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	closeAtCleanup(t, m)
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3", m.Len())
	}
	for i := 0; i < 3; i++ {
		if m.Dist(i, i) != 0 {
			t.Errorf("Dist(%d,%d) = %v, want 0", i, i, m.Dist(i, i))
		}
		for j := 0; j < 3; j++ {
			if m.Dist(i, j) != m.Dist(j, i) {
				t.Errorf("matrix not symmetric at (%d,%d)", i, j)
			}
		}
	}
	// Cross-check one entry against the canberra package directly.
	want, err := canberra.Dissimilarity(p.Unique[0].Bytes(), p.Unique[1].Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// The matrix stores float32, so compare at float32 precision.
	if got := m.Dist(0, 1); math.Abs(got-want) > 1e-6 {
		t.Errorf("Dist(0,1) = %v, want %v", got, want)
	}

	// A single segment is a 1×1 matrix: its only row has no suffix.
	one, err := ComputeMatrixContext(context.Background(), NewPool(segsFromValues([]byte{1, 2})), Config{Penalty: canberra.DefaultPenalty})
	if err != nil {
		t.Fatal(err)
	}
	closeAtCleanup(t, one)
	one.StreamSuffix(0, func(lo int, vals []float32) {
		t.Errorf("StreamSuffix of a 1×1 matrix yielded %v at %d, want nothing", vals, lo)
	})
}

func TestKNNTable(t *testing.T) {
	// Three similar segments and one outlier.
	segs := segsFromValues(
		[]byte{100, 100},
		[]byte{100, 101},
		[]byte{101, 100},
		[]byte{1, 255},
	)
	p := NewPool(segs)
	m, err := ComputeMatrixContext(context.Background(), p, Config{Penalty: canberra.DefaultPenalty})
	if err != nil {
		t.Fatal(err)
	}
	closeAtCleanup(t, m)
	table, err := m.KNNTable(1)
	if err != nil {
		t.Fatalf("KNNTable: %v", err)
	}
	knn1 := table[0]
	if len(knn1) != 4 {
		t.Fatalf("len = %d, want 4", len(knn1))
	}
	// Every segment's 1-NN distance must equal the minimum off-diagonal
	// entry of its row.
	for i := 0; i < 4; i++ {
		min := math.Inf(1)
		for j := 0; j < 4; j++ {
			if j != i && m.Dist(i, j) < min {
				min = m.Dist(i, j)
			}
		}
		if knn1[i] != min {
			t.Errorf("knn1[%d] = %v, want row min %v", i, knn1[i], min)
		}
	}
}

func TestKNNTableOrderedInK(t *testing.T) {
	segs := segsFromValues(
		[]byte{1, 1}, []byte{2, 2}, []byte{3, 3}, []byte{4, 4}, []byte{5, 5},
	)
	p := NewPool(segs)
	m, err := ComputeMatrixContext(context.Background(), p, Config{Penalty: canberra.DefaultPenalty})
	if err != nil {
		t.Fatal(err)
	}
	closeAtCleanup(t, m)
	table, err := m.KNNTable(3)
	if err != nil {
		t.Fatal(err)
	}
	k1, k3 := table[0], table[2]
	for i := range k1 {
		if k1[i] > k3[i] {
			t.Errorf("segment %d: 1-NN (%v) > 3-NN (%v)", i, k1[i], k3[i])
		}
	}
}

func TestKNNTableRange(t *testing.T) {
	segs := segsFromValues([]byte{1, 2}, []byte{3, 4})
	p := NewPool(segs)
	m, err := ComputeMatrixContext(context.Background(), p, Config{Penalty: canberra.DefaultPenalty})
	if err != nil {
		t.Fatal(err)
	}
	closeAtCleanup(t, m)
	if _, err := m.KNNTable(0); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := m.KNNTable(2); err == nil {
		t.Error("k beyond n-1 should error")
	}
}

// Property: pool partitions the input — every admitted segment appears
// in exactly one occurrence group, and unique values are distinct.
func TestPoolPartitionProperty(t *testing.T) {
	f := func(raw [][]byte) bool {
		var segs []netmsg.Segment
		for _, v := range raw {
			if len(v) == 0 {
				continue
			}
			m := &netmsg.Message{Data: v}
			segs = append(segs, netmsg.Segment{Msg: m, Offset: 0, Length: len(v)})
		}
		p := NewPool(segs)
		total := len(p.Excluded)
		seen := make(map[string]bool)
		for i, occ := range p.Occurrences {
			total += len(occ)
			key := string(p.Unique[i].Bytes())
			if seen[key] {
				return false
			}
			seen[key] = true
			for _, s := range occ {
				if string(s.Bytes()) != key {
					return false
				}
			}
		}
		return total == len(segs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: k-NN distances are drawn from the matrix and sorted per row.
func TestKNNSubsetProperty(t *testing.T) {
	f := func(raw [][]byte) bool {
		var segs []netmsg.Segment
		for _, v := range raw {
			if len(v) < 2 {
				continue
			}
			m := &netmsg.Message{Data: v}
			segs = append(segs, netmsg.Segment{Msg: m, Offset: 0, Length: len(v)})
		}
		p := NewPool(segs)
		if p.Size() < 3 {
			return true
		}
		mtx, err := ComputeMatrixContext(context.Background(), p, Config{Penalty: canberra.DefaultPenalty})
		if err != nil {
			return false
		}
		defer func() {
			if err := mtx.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
		table, err := mtx.KNNTable(2)
		if err != nil {
			return false
		}
		knn := table[1]
		for i := range knn {
			var row []float64
			for j := 0; j < mtx.Len(); j++ {
				if j != i {
					row = append(row, mtx.Dist(i, j))
				}
			}
			sort.Float64s(row)
			if knn[i] != row[1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestComputeRejectsPoolOverBudget(t *testing.T) {
	// 64 segments need 8 KiB condensed — beyond a 1 KiB budget, so the
	// explicit condensed backend must refuse with ErrPoolTooLarge (and
	// name the segment count) instead of allocating.
	pool := NewPool(genSegments(64, 11))
	_, err := ComputeMatrixContext(context.Background(), pool, Config{Penalty: canberra.DefaultPenalty, Backend: BackendCondensed, MemoryBudget: 1 << 10})
	if !errors.Is(err, ErrPoolTooLarge) {
		t.Errorf("err = %v, want ErrPoolTooLarge", err)
	}
	if err == nil || !strings.Contains(err.Error(), "64 unique segments") {
		t.Errorf("err = %v, want segment count in message", err)
	}

	// The auto backend under the same budget falls through to tiled and
	// still completes, bit-identical to the unconstrained default.
	got, err := ComputeMatrixContext(context.Background(), pool, Config{Penalty: canberra.DefaultPenalty, MemoryBudget: 1 << 10, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatalf("auto backend under tiny budget: %v", err)
	}
	defer func() {
		if err := got.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	if got.Backend() != BackendTiled {
		t.Fatalf("Backend = %q, want %q", got.Backend(), BackendTiled)
	}
	want, err := ComputeMatrixContext(context.Background(), pool, Config{Penalty: canberra.DefaultPenalty})
	if err != nil {
		t.Fatal(err)
	}
	closeAtCleanup(t, want)
	for i := 0; i < pool.Size(); i++ {
		for j := 0; j < pool.Size(); j++ {
			if got.Dist(i, j) != want.Dist(i, j) {
				t.Fatalf("Dist(%d,%d): tiled %v, condensed %v", i, j, got.Dist(i, j), want.Dist(i, j))
			}
		}
	}
}

// TestComputeRejectsNaNPenalty checks that a NaN penalty fails the
// build on every backend instead of storing NaN for every unequal-length
// pair, which DBSCAN would quietly treat as no ε-edge.
func TestComputeRejectsNaNPenalty(t *testing.T) {
	pool := NewPool(genSegments(64, 3))
	for _, backend := range []string{BackendAuto, BackendCondensed, BackendTiled} {
		m, err := ComputeMatrixContext(context.Background(), pool, Config{Penalty: math.NaN(), Backend: backend})
		if !errors.Is(err, canberra.ErrBadPenalty) {
			t.Errorf("%s: err = %v, want canberra.ErrBadPenalty", backend, err)
		}
		if m != nil {
			t.Errorf("%s: got a matrix with a NaN penalty", backend)
		}
	}
}

// TestCheckBackend pins the one backend-name check: every name a
// build accepts passes it, and a name it rejects fails the eager build
// and the assembler with the same error.
func TestCheckBackend(t *testing.T) {
	for _, name := range []string{"", BackendAuto, BackendCondensed, BackendTiled} {
		if err := CheckBackend(name); err != nil {
			t.Errorf("CheckBackend(%q) = %v", name, err)
		}
	}
	pool := NewPool(genSegments(64, 3))
	for _, name := range []string{"dense", "Tiled", " auto"} {
		want := CheckBackend(name)
		if want == nil {
			t.Fatalf("CheckBackend(%q) accepted it", name)
		}
		if _, err := ComputeMatrixContext(context.Background(), pool, Config{Penalty: 1, Backend: name}); err == nil || err.Error() != want.Error() {
			t.Errorf("ComputeMatrixContext(%q): err = %v, want %v", name, err, want)
		}
		if _, err := NewAssembler(context.Background(), pool, Config{Penalty: 1, Backend: name}); err == nil || err.Error() != want.Error() {
			t.Errorf("NewAssembler(%q): err = %v, want %v", name, err, want)
		}
	}
}

// genSegments builds n distinct pseudo-random segments of mixed short
// lengths, from a deterministic seed.
func genSegments(n int, seed int64) []netmsg.Segment {
	lens := []int{2, 3, 4, 6, 8, 12, 16}
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
	return segs
}

func TestComputeContextCanceledUpFront(t *testing.T) {
	pool := NewPool(genSegments(64, 1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ComputeMatrixContext(ctx, pool, Config{Penalty: canberra.DefaultPenalty}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// A context canceled mid-build stops the workers within a bounded
// number of work units: each worker may finish its in-flight tile, but
// no new tiles are picked up, so the number of processed tiles is at
// most the pre-cancel count plus one per worker — far below the full
// tile count of a large pool.
func TestComputeContextCancelBoundedTiles(t *testing.T) {
	pool := NewPool(genSegments(2048, 2)) // 32 row blocks × 8 column blocks → 144 tiles
	ctx, cancel := context.WithCancel(context.Background())
	var tiles atomic.Int64
	computeTileHook = func() {
		if tiles.Add(1) == 1 {
			cancel()
		}
	}
	defer func() { computeTileHook = nil }()

	_, err := ComputeMatrixContext(ctx, pool, Config{Penalty: canberra.DefaultPenalty})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	bound := int64(1 + runtime.GOMAXPROCS(0))
	if got := tiles.Load(); got > bound {
		t.Errorf("processed %d tiles after cancellation, want ≤ %d", got, bound)
	}
}

// TestComputeContextUncancelledMatchesCompute checks that a live,
// cancellable ctx builds the matrix a background one does: the
// per-tile checkpoints do not perturb the fill.
func TestComputeContextUncancelledMatchesCompute(t *testing.T) {
	pool := NewPool(genSegments(100, 3))
	want, err := ComputeMatrixContext(context.Background(), pool, Config{Penalty: canberra.DefaultPenalty})
	if err != nil {
		t.Fatal(err)
	}
	closeAtCleanup(t, want)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := ComputeMatrixContext(ctx, pool, Config{Penalty: canberra.DefaultPenalty})
	if err != nil {
		t.Fatal(err)
	}
	closeAtCleanup(t, got)
	for i := 0; i < pool.Size(); i++ {
		for j := 0; j < pool.Size(); j++ {
			if want.Dist(i, j) != got.Dist(i, j) {
				t.Fatalf("Dist(%d,%d) mismatch", i, j)
			}
		}
	}
}
