package dissim

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"protoclust/internal/canberra"
	"protoclust/internal/dissim/tilestore"
)

// requireNoOpenStorage fails the test when condensed storage is still
// allocated: every matrix this package built must have been closed.
func requireNoOpenStorage(t *testing.T, after string) {
	t.Helper()
	if b := OpenCondensedBytes(); b != 0 {
		t.Errorf("after %s: %d condensed bytes still allocated, want 0", after, b)
	}
}

// TestMatrixStorageReleased: condensed storage (a mapping outside the Go
// heap on the mapping build) is freed by Close, by an abandoned
// Assembler's Close, and by a build that fails or is cancelled mid-fill,
// so no path leaves a matrix's pages behind.
func TestMatrixStorageReleased(t *testing.T) {
	requireNoOpenStorage(t, "earlier tests")
	pool := NewPool(genSegments(2048, 4))

	m, err := ComputeMatrixContext(context.Background(), pool, Config{Penalty: canberra.DefaultPenalty})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := OpenCondensedBytes(), m.ResidentBytes(); got != want || got == 0 {
		t.Fatalf("open matrix: %d condensed bytes allocated, want its %d resident bytes", got, want)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	requireNoOpenStorage(t, "Close")

	asm, err := NewAssembler(context.Background(), pool, Config{Penalty: canberra.DefaultPenalty, Backend: BackendCondensed})
	if err != nil {
		t.Fatalf("NewAssembler: %v", err)
	}
	g := asm.Grid()
	if err := asm.SetTile(0, 1, tilestore.ComputeTile(pool.Views(), canberra.DefaultPenalty, g.TileSize, 0, 1)); err != nil {
		t.Fatalf("SetTile: %v", err)
	}
	if err := asm.Close(); err != nil {
		t.Fatalf("abandoned Assembler Close: %v", err)
	}
	requireNoOpenStorage(t, "an abandoned Assembler")

	// Cancelled at the first tile: the fill stops, and the half-built
	// matrix's storage goes with the error.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var midFill atomic.Int64
	computeTileHook = func() {
		if midFill.CompareAndSwap(0, OpenCondensedBytes()) {
			cancel()
		}
	}
	defer func() { computeTileHook = nil }()
	if _, err := ComputeMatrixContext(ctx, pool, Config{Penalty: canberra.DefaultPenalty}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build: err = %v, want context.Canceled", err)
	}
	if midFill.Load() == 0 {
		t.Fatal("no condensed storage was allocated while the cancelled build filled")
	}
	requireNoOpenStorage(t, "a build cancelled mid-fill")
	computeTileHook = nil

	if _, err := ComputeMatrixContext(context.Background(), emptySegmentPool(2560), Config{Penalty: canberra.DefaultPenalty}); !errors.Is(err, canberra.ErrEmpty) {
		t.Fatalf("empty segment: err = %v, want canberra.ErrEmpty", err)
	}
	requireNoOpenStorage(t, "a build that failed with canberra.ErrEmpty")
}

// TestCloseTwiceAndReadAfterClose: a second Close returns nil, and a
// read of a closed condensed matrix panics in Go — recover sees it —
// instead of returning a value from released storage.
func TestCloseTwiceAndReadAfterClose(t *testing.T) {
	pool := NewPool(genSegments(64, 5))
	m, err := ComputeMatrixContext(context.Background(), pool, Config{Penalty: canberra.DefaultPenalty})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
	for _, r := range []struct {
		name string
		read func() bool // reports whether the read produced a value
	}{
		{"Dist", func() bool { m.Dist(0, 1); return true }},
		{"StreamSuffix", func() bool {
			yielded := false
			m.StreamSuffix(0, func(int, []float32) { yielded = true })
			return yielded
		}},
	} {
		var got bool
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			got = r.read()
			return false
		}()
		if !panicked {
			t.Errorf("%s after Close did not panic", r.name)
		}
		if got {
			t.Errorf("%s after Close read a value", r.name)
		}
	}
}
