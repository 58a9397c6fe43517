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
	if p.TotalOccurrences() != 3 {
		t.Errorf("TotalOccurrences = %d, want 3", p.TotalOccurrences())
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
	if _, err := Compute(p, canberra.DefaultPenalty); !errors.Is(err, ErrEmptyPool) {
		t.Errorf("Compute on empty pool err = %v, want ErrEmptyPool", err)
	}
}

func TestComputeMatrixValues(t *testing.T) {
	segs := segsFromValues([]byte{10, 20}, []byte{10, 20, 30}, []byte{200, 200})
	p := NewPool(segs)
	m, err := Compute(p, canberra.DefaultPenalty)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
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
}

func TestKNNDistances(t *testing.T) {
	// Three similar segments and one outlier.
	segs := segsFromValues(
		[]byte{100, 100},
		[]byte{100, 101},
		[]byte{101, 100},
		[]byte{1, 255},
	)
	p := NewPool(segs)
	m, err := Compute(p, canberra.DefaultPenalty)
	if err != nil {
		t.Fatal(err)
	}
	knn1, err := m.KNNDistances(1)
	if err != nil {
		t.Fatalf("KNNDistances: %v", err)
	}
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

func TestKNNDistancesOrderedInK(t *testing.T) {
	segs := segsFromValues(
		[]byte{1, 1}, []byte{2, 2}, []byte{3, 3}, []byte{4, 4}, []byte{5, 5},
	)
	p := NewPool(segs)
	m, err := Compute(p, canberra.DefaultPenalty)
	if err != nil {
		t.Fatal(err)
	}
	k1, err := m.KNNDistances(1)
	if err != nil {
		t.Fatal(err)
	}
	k3, err := m.KNNDistances(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range k1 {
		if k1[i] > k3[i] {
			t.Errorf("segment %d: 1-NN (%v) > 3-NN (%v)", i, k1[i], k3[i])
		}
	}
}

func TestKNNDistancesRange(t *testing.T) {
	segs := segsFromValues([]byte{1, 2}, []byte{3, 4})
	p := NewPool(segs)
	m, err := Compute(p, canberra.DefaultPenalty)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.KNNDistances(0); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := m.KNNDistances(2); err == nil {
		t.Error("k beyond n-1 should error")
	}
}

func TestUpperTriangle(t *testing.T) {
	segs := segsFromValues([]byte{1, 1}, []byte{2, 2}, []byte{3, 3}, []byte{4, 4})
	p := NewPool(segs)
	m, err := Compute(p, canberra.DefaultPenalty)
	if err != nil {
		t.Fatal(err)
	}
	ut := m.UpperTriangle()
	if len(ut) != 6 {
		t.Fatalf("UpperTriangle = %d values, want 6", len(ut))
	}
	for _, d := range ut {
		if d < 0 || d > 1 {
			t.Errorf("dissimilarity %v out of [0,1]", d)
		}
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
		mtx, err := Compute(p, canberra.DefaultPenalty)
		if err != nil {
			return false
		}
		knn, err := mtx.KNNDistances(2)
		if err != nil {
			return false
		}
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
	// 64 segments need 16 KiB dense / 8 KiB condensed — both beyond a
	// 1 KiB budget, so the explicit in-memory backends must refuse with
	// ErrPoolTooLarge (and name the segment count) instead of allocating.
	pool := NewPool(genSegments(64, 11))
	for _, backend := range []string{BackendDense, BackendCondensed} {
		_, err := ComputeMatrix(pool, Config{Penalty: canberra.DefaultPenalty, Backend: backend, MemoryBudget: 1 << 10})
		if !errors.Is(err, ErrPoolTooLarge) {
			t.Errorf("%s: err = %v, want ErrPoolTooLarge", backend, err)
		}
		if err == nil || !strings.Contains(err.Error(), "64 unique segments") {
			t.Errorf("%s: err = %v, want segment count in message", backend, err)
		}
	}

	// The auto backend under the same budget falls through to tiled and
	// still completes, bit-identical to the unconstrained default.
	got, err := ComputeMatrix(pool, Config{Penalty: canberra.DefaultPenalty, MemoryBudget: 1 << 10, SpillDir: t.TempDir()})
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
	want, err := Compute(pool, canberra.DefaultPenalty)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pool.Size(); i++ {
		for j := 0; j < pool.Size(); j++ {
			if got.Dist(i, j) != want.Dist(i, j) {
				t.Fatalf("Dist(%d,%d): tiled %v, dense %v", i, j, got.Dist(i, j), want.Dist(i, j))
			}
		}
	}
}

// genSegments builds n distinct pseudo-random segments, mimicking the
// benchperf harness shapes (mixed short lengths, deterministic seed).
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
	if _, err := ComputeContext(ctx, pool, canberra.DefaultPenalty); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// A context canceled mid-build stops the workers within a bounded
// number of work units: each worker may finish its in-flight tile, but
// no new tiles are picked up, so the number of processed tiles is at
// most the pre-cancel count plus one per worker — far below the full
// tile count of a large pool.
func TestComputeContextCancelBoundedTiles(t *testing.T) {
	pool := NewPool(genSegments(2048, 2)) // 32×32 tile grid → 528 tiles
	ctx, cancel := context.WithCancel(context.Background())
	var tiles atomic.Int64
	computeTileHook = func() {
		if tiles.Add(1) == 1 {
			cancel()
		}
	}
	defer func() { computeTileHook = nil }()

	_, err := ComputeContext(ctx, pool, canberra.DefaultPenalty)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	bound := int64(1 + runtime.GOMAXPROCS(0))
	if got := tiles.Load(); got > bound {
		t.Errorf("processed %d tiles after cancellation, want ≤ %d", got, bound)
	}
}

func TestComputeContextUncancelledMatchesCompute(t *testing.T) {
	pool := NewPool(genSegments(100, 3))
	want, err := Compute(pool, canberra.DefaultPenalty)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ComputeContext(context.Background(), pool, canberra.DefaultPenalty)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pool.Size(); i++ {
		for j := 0; j < pool.Size(); j++ {
			if want.Dist(i, j) != got.Dist(i, j) {
				t.Fatalf("Dist(%d,%d) mismatch", i, j)
			}
		}
	}
}
