package dissim

import (
	"context"
	"fmt"

	"protoclust/internal/dbscan"
	"protoclust/internal/dissim/tilestore"
	"protoclust/internal/vecmath"
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
	n, ts, nb int
	backend   string
	set       *dbscan.CondensedMatrix
	st        store
	tiles     *tilestore.Store
	seen      []bool
	remaining int
	done      bool
}

// NewAssembler prepares an empty matrix for the pool on the backend cfg
// selects (the same auto rule as ComputeMatrixContext) and returns the
// assembler that fills it tile by tile. tile is the tile edge length;
// ≤ 0 selects the standard 64. The tiled backend accepts only the
// standard size (its spill slots are fixed-geometry) and requires
// cfg.SpillDir.
func NewAssembler(ctx context.Context, pool *Pool, cfg Config, tile int) (*Assembler, error) {
	n := pool.Size()
	if n == 0 {
		return nil, ErrEmptyPool
	}
	if tile <= 0 {
		tile = tilestore.DefaultTileSize
	}
	budget := cfg.MemoryBudget
	if budget <= 0 {
		budget = DefaultMemoryBudget
	}
	backend := cfg.Backend
	if backend == "" || backend == BackendAuto {
		if b, err := dbscan.CondensedBytes(n); err == nil && b <= budget {
			backend = BackendCondensed
		} else {
			backend = BackendTiled
		}
	}
	a := &Assembler{
		n:       n,
		ts:      tile,
		nb:      (n + tile - 1) / tile,
		backend: backend,
	}
	a.remaining = vecmath.CheckedTriNum(a.nb + 1)
	a.seen = make([]bool, a.remaining)
	switch backend {
	case BackendCondensed:
		m, err := newCondensed(n, budget)
		if err != nil {
			return nil, err
		}
		a.set, a.st = m, m
	case BackendTiled:
		if cfg.SpillDir == "" {
			return nil, fmt.Errorf("dissim: assembling a tiled matrix requires Config.SpillDir")
		}
		if tile != tilestore.DefaultTileSize {
			return nil, fmt.Errorf("dissim: tiled assembly requires tile size %d, got %d",
				tilestore.DefaultTileSize, tile)
		}
		ts, err := tilestore.New(ctx, pool.Views(), tilestore.Config{
			BudgetBytes: budget,
			SpillDir:    cfg.SpillDir,
			Penalty:     cfg.Penalty,
		})
		if err != nil {
			return nil, fmt.Errorf("dissim: tiled assembly: %w", err)
		}
		a.tiles, a.st = ts, ts
	default: // only a name CheckBackend rejects gets here
		return nil, CheckBackend(cfg.Backend)
	}
	return a, nil
}

// N returns the number of unique segments (matrix dimension).
func (a *Assembler) N() int { return a.n }

// TileSize returns the tile edge length the assembler expects.
func (a *Assembler) TileSize() int { return a.ts }

// Backend names the backend the assembled matrix lands on.
func (a *Assembler) Backend() string { return a.backend }

// Remaining returns how many tiles have not been set yet.
func (a *Assembler) Remaining() int { return a.remaining }

// SetTile stores tile block (bi ≤ bj). data must carry exactly the
// tile's element count — full mirrored squares on the diagonal, as
// tilestore.ComputeTile emits. Setting a tile twice overwrites; the
// distributed protocol's content addressing guarantees repeats carry
// identical bytes.
func (a *Assembler) SetTile(bi, bj int, data []float32) error {
	if bi < 0 || bi > bj || bj >= a.nb {
		return fmt.Errorf("dissim: assemble: tile (%d, %d) outside %d-block grid", bi, bj, a.nb)
	}
	r := min(a.ts, a.n-bi*a.ts)
	c := min(a.ts, a.n-bj*a.ts)
	if len(data) != r*c {
		return fmt.Errorf("dissim: assemble: tile (%d, %d) has %d values, want %d",
			bi, bj, len(data), r*c)
	}
	if a.tiles != nil {
		if err := a.tiles.Ingest(bi, bj, data); err != nil {
			return err
		}
	} else {
		for x := 0; x < r; x++ {
			row := x * c // hoisted: len(data) == r*c was checked above
			lo := 0
			if bi == bj {
				// Diagonal tiles are symmetric; the upper half is enough.
				lo = x + 1
			}
			// Each tile row is one span of the matrix row's suffix.
			a.set.SetSpan(bi*a.ts+x, bj*a.ts+lo, data[row+lo:row+c])
		}
	}
	idx := vecmath.CheckedMulAdd(bi, a.nb, bj-bi) - vecmath.CheckedTriNum(bi)
	if !a.seen[idx] {
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
	return &Matrix{store: a.st, backend: a.backend}, nil
}

// Close releases the backend of an assembly abandoned before Matrix
// succeeded (the tiled backend holds a spill file). After a successful
// Matrix call it is a no-op; the matrix owns the backend then.
func (a *Assembler) Close() error {
	if a.done || a.tiles == nil {
		return nil
	}
	return a.tiles.Close()
}
