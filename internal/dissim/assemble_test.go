package dissim

import (
	"context"
	"testing"

	"protoclust/internal/dissim/tilestore"
	"protoclust/internal/netmsg"
)

// assemblePool builds a pool of n distinct multi-length segments.
func assemblePool(t *testing.T, n int) *Pool {
	t.Helper()
	segs := make([]netmsg.Segment, n)
	for i := range segs {
		data := make([]byte, 2+i%6)
		for j := range data {
			data[j] = byte(i*37 + j*11)
		}
		msg := &netmsg.Message{Data: data}
		segs[i] = netmsg.Segment{Msg: msg, Offset: 0, Length: len(data)}
	}
	pool := NewPool(segs)
	if pool.Size() < 3 {
		t.Fatalf("pool too small: %d", pool.Size())
	}
	return pool
}

// assembleVia computes every tile externally (through the exported
// kernel path, as a worker would) and feeds it to the assembler.
func assembleVia(t *testing.T, pool *Pool, cfg Config) *Matrix {
	t.Helper()
	asm, err := NewAssembler(context.Background(), pool, cfg)
	if err != nil {
		t.Fatalf("NewAssembler: %v", err)
	}
	views := pool.Views()
	g := asm.Grid()
	for idx := 0; idx < g.Tiles(); idx++ {
		bi, bj := g.Coords(idx)
		data := tilestore.ComputeTile(views, cfg.Penalty, g.TileSize, bi, bj)
		if err := asm.SetTile(bi, bj, data); err != nil {
			t.Fatalf("SetTile(%d, %d): %v", bi, bj, err)
		}
	}
	if asm.Remaining() != 0 {
		t.Fatalf("Remaining = %d after all tiles", asm.Remaining())
	}
	m, err := asm.Matrix()
	if err != nil {
		t.Fatalf("Matrix: %v", err)
	}
	return m
}

// requireIdentical asserts bit-identical distances between two matrices.
func requireIdentical(t *testing.T, got, want *Matrix) {
	t.Helper()
	n := want.Len()
	if got.Len() != n {
		t.Fatalf("Len = %d, want %d", got.Len(), n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g, w := got.Dist(i, j), want.Dist(i, j)
			// Bit-identity check: exact equality is the contract here,
			// not approximation.
			if g != w {
				t.Fatalf("Dist(%d, %d) = %v, want %v (backend %s vs %s)",
					i, j, g, w, got.Backend(), want.Backend())
			}
		}
	}
}

// TestAssemblerMatchesLocalCondensed assembles a 150-segment pool on
// the 64-wide grid — three blocks, the last one short, so off-diagonal
// and short tiles land as row spans — and compares it with the local
// build bit for bit.
func TestAssemblerMatchesLocalCondensed(t *testing.T) {
	pool := assemblePool(t, 150)
	cfg := Config{Penalty: 1.5, Backend: BackendCondensed}
	local, err := ComputeMatrixContext(context.Background(), pool, cfg)
	if err != nil {
		t.Fatalf("ComputeMatrixContext: %v", err)
	}
	defer func() { _ = local.Close() }()
	if g := tilestore.NewGrid(pool.Size(), tilestore.DefaultTileSize); g.NB != 3 || g.Dim(2) != 22 {
		t.Fatalf("grid = %+v, want three blocks with a 22-wide last one", g)
	}
	assembled := assembleVia(t, pool, cfg)
	defer func() { _ = assembled.Close() }()
	requireIdentical(t, assembled, local)
}

// TestAssemblerSmallTileSizeOnResidentBackend assembles a pool smaller
// than one tile edge on the condensed backend: the whole matrix is one
// short diagonal tile, whose rows land as suffix spans of the matrix
// rows. The multi-block case is TestAssemblerMatchesLocalCondensed.
func TestAssemblerSmallTileSizeOnResidentBackend(t *testing.T) {
	pool := assemblePool(t, 50)
	cfg := Config{Penalty: 1.5, Backend: BackendCondensed}
	local, err := ComputeMatrixContext(context.Background(), pool, cfg)
	if err != nil {
		t.Fatalf("ComputeMatrixContext: %v", err)
	}
	defer func() { _ = local.Close() }()
	if g := tilestore.NewGrid(pool.Size(), tilestore.DefaultTileSize); g.NB != 1 || g.Dim(0) != 50 {
		t.Fatalf("grid = %+v, want one 50-wide block", g)
	}
	assembled := assembleVia(t, pool, cfg)
	defer func() { _ = assembled.Close() }()
	if assembled.Backend() != BackendCondensed {
		t.Fatalf("backend = %s, want condensed", assembled.Backend())
	}
	requireIdentical(t, assembled, local)
}

func TestAssemblerTiledBackendViaIngest(t *testing.T) {
	pool := assemblePool(t, 150)
	cfg := Config{Penalty: 1.5, Backend: BackendTiled, SpillDir: t.TempDir()}
	local, err := ComputeMatrixContext(context.Background(), pool, Config{Penalty: 1.5, Backend: BackendCondensed})
	if err != nil {
		t.Fatalf("ComputeMatrixContext: %v", err)
	}
	defer func() { _ = local.Close() }()
	assembled := assembleVia(t, pool, cfg)
	defer func() { _ = assembled.Close() }()
	if assembled.Backend() != BackendTiled {
		t.Fatalf("backend = %s, want tiled", assembled.Backend())
	}
	requireIdentical(t, assembled, local)
}

func TestAssemblerTiledRequiresSpillDir(t *testing.T) {
	pool := assemblePool(t, 30)
	if _, err := NewAssembler(context.Background(), pool, Config{Penalty: 1, Backend: BackendTiled}); err == nil {
		t.Fatal("NewAssembler accepted tiled backend without spill dir")
	}
}

func TestAssemblerRejectsBadTiles(t *testing.T) {
	pool := assemblePool(t, 100)
	asm, err := NewAssembler(context.Background(), pool, Config{Penalty: 1, Backend: BackendCondensed})
	if err != nil {
		t.Fatalf("NewAssembler: %v", err)
	}
	defer func() {
		if err := asm.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	if err := asm.SetTile(1, 0, nil); err == nil {
		t.Error("SetTile accepted lower-triangle block")
	}
	if err := asm.SetTile(0, 9, nil); err == nil {
		t.Error("SetTile accepted out-of-grid block")
	}
	if err := asm.SetTile(0, 0, make([]float32, 7)); err == nil {
		t.Error("SetTile accepted wrong element count")
	}
	if _, err := asm.Matrix(); err == nil {
		t.Error("Matrix succeeded with tiles missing")
	}
}
