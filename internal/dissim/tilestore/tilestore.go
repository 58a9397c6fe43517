// Package tilestore is the bounded-memory, out-of-core backend of the
// dissimilarity matrix: instead of materializing all n² (or n(n−1)/2)
// float32 entries, it computes 64×64 Canberra tiles on demand through
// the optimized kernel (canberra.LengthBlock.Row on precomputed views,
// each block's rows and columns as a canberra.LengthBlock),
// keeps the hot tiles in a byte-budgeted LRU, and optionally spills
// evicted tiles to one pre-allocated slot per tile in a scratch file so
// a later miss is a pread instead of a recompute.
//
// The package owns the tile layout every producer and consumer of tiles
// shares: the upper-triangle block grid (Grid) and the tile byte format
// (EncodeTiles), which the spill slots, the distributed shard wire and
// the coordinator's assembly all use.
//
// The store serves the same dbscan.Matrix contract as the condensed
// backend: its suffix walkers (DBSCAN, refinement statistics, k-NN,
// the silhouette, the smallest positive distance) read tile row slices
// and never gather. It stores values through the shared
// dbscan.Quantize helper, so cluster labels and k-NN tables are
// bit-identical to CondensedMatrix regardless of tile size, budget, or
// eviction order (the backend-equivalence property tests enforce this).
package tilestore

import (
	"container/list"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"protoclust/internal/canberra"
	"protoclust/internal/dbscan"
	"protoclust/internal/vecmath"
)

// DefaultTileSize is the edge length of one tile: 64×64 float32 = 16 KiB,
// the unit of caching, spill slots and distributed shards.
const DefaultTileSize = 64

// Grid is the upper-triangle tile decomposition of an n-point matrix:
// blocks (bi, bj) with bi ≤ bj, linearized row-major over the block
// upper triangle. The linear index is a tile's spill slot and its
// position in a distributed shard.
type Grid struct {
	// N is the number of points (unique segments).
	N int
	// TileSize is the tile edge length.
	TileSize int
	// NB is the number of tile blocks per dimension.
	NB int
}

// NewGrid returns the grid over n points; tileSize ≤ 0 selects
// DefaultTileSize.
func NewGrid(n, tileSize int) Grid {
	if tileSize <= 0 {
		tileSize = DefaultTileSize
	}
	return Grid{N: n, TileSize: tileSize, NB: (n + tileSize - 1) / tileSize}
}

// Tiles returns the number of upper-triangle tile blocks.
func (g Grid) Tiles() int { return vecmath.CheckedTriNum(g.NB + 1) }

// Index linearizes block (bi, bj), bi ≤ bj.
func (g Grid) Index(bi, bj int) int {
	return vecmath.CheckedMulAdd(bi, g.NB, bj-bi) - vecmath.CheckedTriNum(bi)
}

// Coords inverts Index.
func (g Grid) Coords(idx int) (bi, bj int) {
	for rowLen := g.NB; idx >= rowLen; rowLen-- {
		idx -= rowLen
		bi++
	}
	return bi, bi + idx
}

// Dim returns the edge length of tile block b (short on the last block).
func (g Grid) Dim(b int) int {
	return min(g.TileSize, g.N-b*g.TileSize)
}

// TileLen returns the float32 element count of tile idx. Diagonal tiles
// are full mirrored squares, as ComputeTile emits them.
func (g Grid) TileLen(idx int) int {
	bi, bj := g.Coords(idx)
	return g.Dim(bi) * g.Dim(bj)
}

// RangeLen returns the total float32 element count of tiles [lo, hi).
func (g Grid) RangeLen(lo, hi int) int {
	total := 0
	for idx := lo; idx < hi; idx++ {
		total += g.TileLen(idx)
	}
	return total
}

// EncodeTiles serializes tile data as little-endian float32, one value
// after another: the layout of a spill slot and of a shard result.
func EncodeTiles(data []float32) []byte {
	out := make([]byte, len(data)*4)
	for i, v := range data {
		binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(v))
	}
	return out
}

// DecodeTiles inverts EncodeTiles, requiring exactly want elements.
func DecodeTiles(b []byte, want int) ([]float32, error) {
	// Compared by division: want*4 could overflow into len(b).
	if len(b)%4 != 0 || len(b)/4 != want {
		return nil, fmt.Errorf("tilestore: tile payload is %d bytes, want %d float32 values", len(b), want)
	}
	data := make([]float32, want)
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return data, nil
}

// Config tunes a Store; zero fields take the documented defaults.
type Config struct {
	// TileSize is the tile edge length (default DefaultTileSize).
	TileSize int
	// BudgetBytes bounds the resident tile bytes, clamped up to one
	// tile.
	BudgetBytes int64
	// SpillDir, when non-empty, enables the disk spill: evicted tiles
	// are written to an unlinked scratch file under this directory and
	// reloaded instead of recomputed. The directory is created as
	// needed; the file consumes no namespace and is reclaimed by the
	// kernel when the store is closed or the process exits.
	SpillDir string
	// Penalty is the Canberra length-mismatch penalty factor; New
	// rejects a NaN penalty with canberra.ErrBadPenalty.
	Penalty float64
}

// Stats is a point-in-time snapshot of the store's traffic counters.
type Stats struct {
	// Computed counts tiles built through the kernel.
	Computed int64
	// Hits counts acquisitions served from the resident LRU.
	Hits int64
	// Reloads counts tiles read back from the spill file.
	Reloads int64
	// Spills counts tiles written to the spill file on eviction.
	Spills int64
	// Evicted counts tiles dropped from memory.
	Evicted int64
}

// tile is one cached block. data is nil until ready is closed; after
// that it is immutable, so late readers that obtained the pointer
// before an eviction keep a consistent snapshot.
type tile struct {
	idx  int
	data []float32
	elem *list.Element
	// ready gates concurrent acquisitions of the same tile: the first
	// goroutine computes (or reloads), everyone else waits.
	ready chan struct{}
}

// Store is the tiled dissimilarity backend. All methods are safe for
// concurrent use.
type Store struct {
	views   []canberra.View
	penalty float64
	grid    Grid
	budget  int64
	slot    int64 // spill slot size in bytes (full-tile capacity)

	// ctx aborts lazy tile computation: the first observed cancellation
	// is recorded as the sticky error and further tiles come back
	// zeroed. Consumers must check Err before trusting results.
	ctx context.Context

	mu       sync.Mutex
	tiles    map[int]*tile
	lru      *list.List // front = most recently used
	resident int64
	spilled  []bool
	err      error
	spill    *os.File

	computed atomic.Int64
	hits     atomic.Int64
	reloads  atomic.Int64
	spills   atomic.Int64
	evicted  atomic.Int64
}

var _ dbscan.Matrix = (*Store)(nil)

// New creates a tiled store over the given kernel views. Every view
// must be non-empty (the kernel contract) and the penalty not NaN; ctx
// bounds all lazy tile computation the store performs later.
func New(ctx context.Context, views []canberra.View, cfg Config) (*Store, error) {
	n := len(views)
	if n == 0 {
		return nil, errors.New("tilestore: no views")
	}
	for i, v := range views {
		if len(v) == 0 {
			return nil, fmt.Errorf("tilestore: segment %d: %w", i, canberra.ErrEmpty)
		}
	}
	if math.IsNaN(cfg.Penalty) {
		return nil, fmt.Errorf("tilestore: %w", canberra.ErrBadPenalty)
	}
	grid := NewGrid(n, cfg.TileSize)
	slot := int64(grid.TileSize) * int64(grid.TileSize) * 4
	s := &Store{
		views:   views,
		penalty: cfg.Penalty,
		grid:    grid,
		budget:  max(cfg.BudgetBytes, slot),
		slot:    slot,
		ctx:     ctx,
		tiles:   make(map[int]*tile),
		lru:     list.New(),
		spilled: make([]bool, grid.Tiles()),
	}
	if cfg.SpillDir != "" {
		if err := os.MkdirAll(cfg.SpillDir, 0o755); err != nil {
			return nil, fmt.Errorf("tilestore: spill dir: %w", err)
		}
		f, err := os.CreateTemp(cfg.SpillDir, "tiles-*.bin")
		if err != nil {
			return nil, fmt.Errorf("tilestore: spill file: %w", err)
		}
		// Unlink immediately: the fd stays usable, nothing leaks if the
		// process dies, and Close (or process exit) frees the blocks.
		if err := os.Remove(f.Name()); err != nil {
			// The store is not constructed; closing the scratch file is
			// best-effort cleanup on the way out.
			_ = f.Close()
			return nil, fmt.Errorf("tilestore: spill file: %w", err)
		}
		s.spill = f
	}
	return s, nil
}

// Len returns the number of points.
func (s *Store) Len() int { return s.grid.N }

// Err returns the first error the store's lazy computation hit (a
// cancelled context), or nil. After a non-nil Err, tile contents are
// unreliable (zero-filled) and results must be discarded.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close releases the spill file. The store stays usable for reads —
// spilled tiles are recomputed instead of reloaded.
func (s *Store) Close() error {
	s.mu.Lock()
	f := s.spill
	s.spill = nil
	s.mu.Unlock()
	if f != nil {
		return f.Close()
	}
	return nil
}

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	return Stats{
		Computed: s.computed.Load(),
		Hits:     s.hits.Load(),
		Reloads:  s.reloads.Load(),
		Spills:   s.spills.Load(),
		Evicted:  s.evicted.Load(),
	}
}

// ResidentBytes returns the current resident tile bytes.
func (s *Store) ResidentBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resident
}

// Dist returns the stored dissimilarity between i and j.
func (s *Store) Dist(i, j int) float64 {
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	ts := s.grid.TileSize
	bi, bj := i/ts, j/ts
	data := s.acquire(bi, bj)
	// Hoisted tile-local offsets: r < Dim(bi) and c < Dim(bj), so the
	// product stays within len(data) = Dim(bi)*Dim(bj).
	r, c := i-bi*ts, j-bj*ts
	row := r * s.grid.Dim(bj)
	return float64(data[row+c])
}

// StreamSuffix yields row i's suffix (columns j > i) in ascending
// order: the diagonal tile's row from column r+1, then the row slices
// of the tiles to its right. It never gathers; a pass over all rows
// acquires each tile once per row of it. See dbscan.Matrix for the
// contract.
func (s *Store) StreamSuffix(i int, fn func(lo int, vals []float32)) {
	ts := s.grid.TileSize
	bi := i / ts
	r := i - bi*ts
	if cols := s.grid.Dim(bi); r+1 < cols {
		data := s.acquire(bi, bi)
		lo := r * cols // hoisted: r < Dim(bi), len(data) = Dim(bi)*cols
		fn(i+1, data[lo+r+1:lo+cols])
	}
	for bj := bi + 1; bj < s.grid.NB; bj++ {
		data := s.acquire(bi, bj)
		cols := s.grid.Dim(bj)
		lo := r * cols // hoisted, bounded as above
		fn(bj*ts, data[lo:lo+cols])
	}
}

// acquire returns the ready data of tile (bi ≤ bj), computing or
// reloading it if absent and blocking concurrent requests for the same
// tile on the first one's result.
func (s *Store) acquire(bi, bj int) []float32 {
	idx := s.grid.Index(bi, bj)
	s.mu.Lock()
	if t, ok := s.tiles[idx]; ok {
		if t.data != nil {
			s.lru.MoveToFront(t.elem)
			s.mu.Unlock()
			s.hits.Add(1)
			return t.data
		}
		s.mu.Unlock()
		<-t.ready
		return t.data
	}
	t := &tile{idx: idx, ready: make(chan struct{})}
	t.elem = s.lru.PushFront(t)
	s.tiles[idx] = t
	s.mu.Unlock()

	data, ok := s.loadSpilled(idx, bi, bj)
	if !ok {
		data = s.computeTile(bi, bj)
		s.computed.Add(1)
	}

	s.mu.Lock()
	t.data = data
	close(t.ready)
	s.resident += int64(len(data)) * 4
	victims := s.evictLocked(t)
	s.mu.Unlock()
	s.writeSpill(victims)
	return data
}

// evictLocked trims the LRU to the byte budget, skipping in-flight
// tiles and keep (the tile being handed out right now). It returns the
// evicted tiles for the caller to spill outside the lock.
func (s *Store) evictLocked(keep *tile) []*tile {
	var victims []*tile
	el := s.lru.Back()
	for s.resident > s.budget && el != nil {
		t := el.Value.(*tile)
		el = el.Prev()
		if t.data == nil || t == keep {
			continue
		}
		s.lru.Remove(t.elem)
		delete(s.tiles, t.idx)
		s.resident -= int64(len(t.data)) * 4
		s.evicted.Add(1)
		if s.spill != nil && !s.spilled[t.idx] {
			victims = append(victims, t)
		}
	}
	return victims
}

// writeSpill persists evicted tiles into their fixed file slots and
// marks them reloadable. A failed write simply leaves the tile
// unspilled — the next miss recomputes it.
func (s *Store) writeSpill(victims []*tile) {
	for _, t := range victims {
		buf := EncodeTiles(t.data)
		s.mu.Lock()
		f := s.spill
		s.mu.Unlock()
		if f == nil {
			return
		}
		if _, err := f.WriteAt(buf, int64(t.idx)*s.slot); err != nil {
			continue
		}
		s.mu.Lock()
		s.spilled[t.idx] = true
		s.mu.Unlock()
		s.spills.Add(1)
	}
}

// loadSpilled reads tile idx back from its spill slot; ok is false when
// the tile was never spilled or the read fails (recompute instead).
func (s *Store) loadSpilled(idx, bi, bj int) ([]float32, bool) {
	s.mu.Lock()
	f := s.spill
	have := f != nil && s.spilled[idx]
	s.mu.Unlock()
	if !have {
		return nil, false
	}
	count := s.grid.Dim(bi) * s.grid.Dim(bj)
	buf := make([]byte, count*4)
	if _, err := f.ReadAt(buf, int64(idx)*s.slot); err != nil {
		return nil, false
	}
	data, err := DecodeTiles(buf, count)
	if err != nil {
		return nil, false
	}
	s.reloads.Add(1)
	return data, true
}

// fail records the first lazy-computation error; later tiles return
// zeroed data fast, and Err surfaces the cause to the pipeline.
func (s *Store) fail(cause error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = fmt.Errorf("tilestore: matrix build: %w", cause)
	}
	s.mu.Unlock()
}

// canceled reports whether the store's context is done, recording the
// sticky error on the first observation.
func (s *Store) canceled() bool {
	if err := s.ctx.Err(); err != nil {
		if cause := context.Cause(s.ctx); cause != nil {
			err = cause
		}
		s.fail(err)
		return true
	}
	s.mu.Lock()
	failed := s.err != nil
	s.mu.Unlock()
	return failed
}

// computeTile builds tile (bi ≤ bj) through the kernel. A cancelled
// context yields a zero tile and records the sticky error instead.
func (s *Store) computeTile(bi, bj int) []float32 {
	if s.canceled() {
		return make([]float32, s.grid.Dim(bi)*s.grid.Dim(bj))
	}
	return ComputeTile(s.views, s.penalty, s.grid.TileSize, bi, bj)
}

// ComputeTile builds one tile (bi ≤ bj) of the upper-triangle tile grid
// over views through the batched kernel. Diagonal tiles are full
// squares mirrored from their upper half, because spill slots and the
// shard wire carry full squares (their bytes are pinned by the shard
// digest and spill tests). Values pass through dbscan.Quantize, the
// single float32 boundary every backend shares. Exported so distributed
// shard workers compute the byte-for-byte identical tiles a local tiled
// build would.
func ComputeTile(views []canberra.View, penalty float64, tileSize, bi, bj int) []float32 {
	n := len(views)
	r0, c0 := bi*tileSize, bj*tileSize
	r, c := min(tileSize, n-r0), min(tileSize, n-c0)
	data := make([]float32, r*c)
	// Rows and columns are visited as canberra.LengthBlocks, as in the
	// eager build: one Row call per row writes the row's results to
	// their tile-local positions. A diagonal row computes the columns
	// past it, and each value is mirrored from (a, b) to (b, a).
	rows := canberra.NewLengthBlock(views, r0, r0+r)
	cols := canberra.NewLengthBlock(views, c0, c0+c)
	for _, i := range rows.Idx {
		// Hoisted offsets: a and every b are below r and c, so the
		// products stay within len(data) = r*c (r = c on the diagonal).
		a := i - r0
		off := a * c
		row := data[off : off+c]
		if bi != bj {
			cols.Row(views[i], -1, penalty, row)
			continue
		}
		cols.Row(views[i], i, penalty, row)
		for b := a + 1; b < c; b++ {
			mirror := b * c
			data[mirror+a] = row[b]
		}
	}
	return data
}

// Ingest seeds the store with an externally computed tile (bi ≤ bj):
// the data is written to the tile's fixed spill slot and marked
// reloadable, so later reads pread it back under the LRU budget instead
// of recomputing. This is how a distributed coordinator assembles
// worker-computed shards into a bounded-memory matrix. Requires a
// configured spill directory; data must match the tile's dimensions
// (diagonal tiles are full mirrored squares, as ComputeTile emits).
func (s *Store) Ingest(bi, bj int, data []float32) error {
	if bi < 0 || bi > bj || bj >= s.grid.NB {
		return fmt.Errorf("tilestore: ingest: tile (%d, %d) outside %d-block grid", bi, bj, s.grid.NB)
	}
	if want := s.grid.Dim(bi) * s.grid.Dim(bj); len(data) != want {
		return fmt.Errorf("tilestore: ingest: tile (%d, %d) has %d values, want %d", bi, bj, len(data), want)
	}
	buf := EncodeTiles(data)
	idx := s.grid.Index(bi, bj)
	s.mu.Lock()
	f := s.spill
	s.mu.Unlock()
	if f == nil {
		return errors.New("tilestore: ingest requires a spill directory")
	}
	if _, err := f.WriteAt(buf, int64(idx)*s.slot); err != nil {
		return fmt.Errorf("tilestore: ingest: %w", err)
	}
	s.mu.Lock()
	s.spilled[idx] = true
	s.mu.Unlock()
	s.spills.Add(1)
	return nil
}
