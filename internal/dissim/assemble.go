package dissim

import (
	"context"
	"errors"
	"fmt"

	"protoclust/internal/dbscan"
	"protoclust/internal/dissim/tilestore"
)

// Assembler builds a Matrix from externally computed tiles instead of
// running the kernel locally — the coordinator side of a distributed
// matrix build. Tiles arrive in the tiled backend's layout (64×64
// upper-triangle blocks, diagonal blocks as full mirrored squares, as
// tilestore.ComputeTile emits) and land on the same backend
// ComputeMatrixContext would have selected for the pool, so everything
// downstream of the matrix is oblivious to how it was computed:
//
//   - The condensed backend takes each tile row as one span of the
//     matrix row through SetSpan. Tile values are already
//     dbscan.Quantize'd float32, stored as they are, so assembled
//     matrices are bit-identical to locally computed ones.
//   - The tiled backend takes whole tiles through tilestore.Ingest,
//     which parks them in their fixed spill slots; this path requires
//     Config.SpillDir.
//
// An Assembler is not safe for concurrent use; the coordinator ingests
// shards under its own serialization.
type Assembler struct {
	grid      tilestore.Grid
	m         *Matrix
	seen      []bool
	remaining int
	done      bool
}

// NewAssembler prepares an empty matrix for the pool on the backend cfg
// selects (through the same constructor as ComputeMatrixContext) and
// returns the assembler that fills it tile by tile on the standard
// 64-wide grid. The tiled backend requires cfg.SpillDir: its tiles are
// parked in their spill slots.
func NewAssembler(ctx context.Context, pool *Pool, cfg Config) (*Assembler, error) {
	m, err := newMatrix(ctx, pool, cfg)
	if err != nil {
		return nil, err
	}
	if m.backend == BackendTiled && cfg.SpillDir == "" {
		return nil, errors.New("dissim: assembling a tiled matrix requires Config.SpillDir")
	}
	grid := tilestore.NewGrid(pool.Size(), tilestore.DefaultTileSize)
	return &Assembler{
		grid:      grid,
		m:         m,
		seen:      make([]bool, grid.Tiles()),
		remaining: grid.Tiles(),
	}, nil
}

// Grid returns the tile grid the assembler expects tiles on.
func (a *Assembler) Grid() tilestore.Grid { return a.grid }

// Backend names the backend the assembled matrix lands on.
func (a *Assembler) Backend() string { return a.m.backend }

// Remaining returns how many tiles have not been set yet.
func (a *Assembler) Remaining() int { return a.remaining }

// SetTile stores tile block (bi ≤ bj). data must carry exactly the
// tile's element count — full mirrored squares on the diagonal, as
// tilestore.ComputeTile emits. Setting a tile twice overwrites; the
// distributed protocol's content addressing guarantees repeats carry
// identical bytes.
func (a *Assembler) SetTile(bi, bj int, data []float32) error {
	if bi < 0 || bi > bj || bj >= a.grid.NB {
		return fmt.Errorf("dissim: assemble: tile (%d, %d) outside %d-block grid", bi, bj, a.grid.NB)
	}
	r, c := a.grid.Dim(bi), a.grid.Dim(bj)
	if len(data) != r*c {
		return fmt.Errorf("dissim: assemble: tile (%d, %d) has %d values, want %d",
			bi, bj, len(data), r*c)
	}
	switch st := a.m.store.(type) {
	case *tilestore.Store:
		if err := st.Ingest(bi, bj, data); err != nil {
			return err
		}
	case *dbscan.CondensedMatrix:
		ts := a.grid.TileSize
		for x := 0; x < r; x++ {
			row := x * c // hoisted: len(data) == r*c was checked above
			lo := 0
			if bi == bj {
				// Diagonal tiles are symmetric; the upper half is enough.
				lo = x + 1
			}
			// Each tile row is one span of the matrix row's suffix.
			st.SetSpan(bi*ts+x, bj*ts+lo, data[row+lo:row+c])
		}
	}
	if idx := a.grid.Index(bi, bj); !a.seen[idx] {
		a.seen[idx] = true
		a.remaining--
	}
	return nil
}

// Matrix returns the assembled matrix once every tile is set. The
// matrix owns the backend from here on — close it, not the assembler.
func (a *Assembler) Matrix() (*Matrix, error) {
	if a.remaining > 0 {
		return nil, fmt.Errorf("dissim: assemble: %d of %d tiles missing", a.remaining, len(a.seen))
	}
	a.done = true
	return a.m, nil
}

// Close releases the backend of an assembly abandoned before Matrix
// succeeded (the condensed storage or the tiled backend's spill file).
// After a successful Matrix call it is a no-op; the matrix owns the
// backend then.
func (a *Assembler) Close() error {
	if a.done {
		return nil
	}
	return a.m.Close()
}
