// Package tilestore is the bounded-memory, out-of-core backend of the
// dissimilarity matrix: instead of materializing all n² (or n(n−1)/2)
// float32 entries, it computes 64×64 Canberra tiles on demand through
// the optimized kernel (canberra.DissimViews on precomputed views),
// keeps the hot tiles in a byte-budgeted LRU, and optionally spills
// evicted tiles to one pre-allocated slot per tile in a scratch file so
// a later miss is a pread instead of a recompute.
//
// The store serves the same dbscan.Matrix / dbscan.RowStreamer contract
// as the resident backends and stores values through the shared
// dbscan.Quantize helper, so cluster labels and k-NN tables are
// bit-identical to DenseMatrix regardless of tile size, budget, or
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
// matching the eager build's scheduling granularity.
const DefaultTileSize = 64

// Config tunes a Store; zero fields take the documented defaults.
type Config struct {
	// TileSize is the tile edge length (default DefaultTileSize).
	TileSize int
	// BudgetBytes bounds the resident tile bytes (default 256 MiB,
	// clamped up to at least one tile).
	BudgetBytes int64
	// SpillDir, when non-empty, enables the disk spill: evicted tiles
	// are written to an unlinked scratch file under this directory and
	// reloaded instead of recomputed. The directory is created as
	// needed; the file consumes no namespace and is reclaimed by the
	// kernel when the store is closed or the process exits.
	SpillDir string
	// Penalty is the Canberra length-mismatch penalty factor.
	Penalty float64
}

// DefaultBudgetBytes is the resident-tile bound when Config leaves
// BudgetBytes zero.
const DefaultBudgetBytes = 256 << 20

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
	n       int
	ts      int // tile edge
	nb      int // number of tile blocks per dimension
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

var (
	_ dbscan.Matrix      = (*Store)(nil)
	_ dbscan.RowStreamer = (*Store)(nil)
)

// New creates a tiled store over the given kernel views. Every view
// must be non-empty (the kernel contract); ctx bounds all lazy tile
// computation the store performs later.
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
	ts := cfg.TileSize
	if ts <= 0 {
		ts = DefaultTileSize
	}
	budget := cfg.BudgetBytes
	if budget <= 0 {
		budget = DefaultBudgetBytes
	}
	slot := int64(ts) * int64(ts) * 4
	if budget < slot {
		budget = slot
	}
	nb := (n + ts - 1) / ts
	s := &Store{
		views:   views,
		penalty: cfg.Penalty,
		n:       n,
		ts:      ts,
		nb:      nb,
		budget:  budget,
		slot:    slot,
		ctx:     ctx,
		tiles:   make(map[int]*tile),
		lru:     list.New(),
		spilled: make([]bool, vecmath.CheckedTriNum(nb+1)),
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
func (s *Store) Len() int { return s.n }

// Backend identifies the store in diagnostics.
func (s *Store) Backend() string { return "tiled" }

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

// dim returns the edge length of tile block b (short on the last block).
func (s *Store) dim(b int) int {
	return min(s.ts, s.n-b*s.ts)
}

// tileIndex maps an upper-triangle block pair (bi ≤ bj) to its slot.
func (s *Store) tileIndex(bi, bj int) int {
	return vecmath.CheckedMulAdd(bi, s.nb, bj-bi) - vecmath.CheckedTriNum(bi)
}

// Dist returns the stored dissimilarity between i and j.
func (s *Store) Dist(i, j int) float64 {
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	bi, bj := i/s.ts, j/s.ts
	data := s.acquire(bi, bj)
	// Hoisted tile-local offsets: r < s.dim(bi) and c < s.dim(bj), so
	// the product stays within len(data) = dim(bi)*dim(bj).
	r, c := i-bi*s.ts, j-bj*s.ts
	row := r * s.dim(bj)
	return float64(data[row+c])
}

// StreamRow yields row i tile by tile in ascending column order:
// gathered tile columns for blocks left of the diagonal, then row
// slices of the diagonal and right-of-diagonal tiles (which include
// the zero diagonal entry). See dbscan.RowStreamer for the contract.
func (s *Store) StreamRow(i int, fn func(lo int, vals []float32)) {
	bi := i / s.ts
	r := i - bi*s.ts
	var buf []float32
	for bj := 0; bj < s.nb; bj++ {
		switch {
		case bj < bi:
			data := s.acquire(bj, bi)
			rows, cols := s.dim(bj), s.dim(bi)
			if buf == nil {
				buf = make([]float32, s.ts)
			}
			off := r // column r of successive tile rows, stride cols
			for a := 0; a < rows; a++ {
				buf[a] = data[off]
				off += cols
			}
			fn(bj*s.ts, buf[:rows])
		default:
			data := s.acquire(bi, bj)
			cols := s.dim(bj)
			lo := r * cols // hoisted: r < dim(bi), len(data) = dim(bi)*cols
			fn(bj*s.ts, data[lo:lo+cols])
		}
	}
}

// StreamSuffix yields row i's suffix (columns j > i) in ascending
// order: the diagonal tile's row from column r+1, then the row slices
// of the tiles to its right. One call acquires no more tiles than one
// StreamRow call and never gathers; a pass over all rows acquires each
// tile once per row of it. See dbscan.SuffixStreamer for the contract.
func (s *Store) StreamSuffix(i int, fn func(lo int, vals []float32)) {
	bi := i / s.ts
	r := i - bi*s.ts
	if cols := s.dim(bi); r+1 < cols {
		data := s.acquire(bi, bi)
		lo := r * cols // hoisted: r < dim(bi), len(data) = dim(bi)*cols
		fn(i+1, data[lo+r+1:lo+cols])
	}
	for bj := bi + 1; bj < s.nb; bj++ {
		data := s.acquire(bi, bj)
		cols := s.dim(bj)
		lo := r * cols // hoisted, bounded as above
		fn(bj*s.ts, data[lo:lo+cols])
	}
}

// acquire returns the ready data of tile (bi ≤ bj), computing or
// reloading it if absent and blocking concurrent requests for the same
// tile on the first one's result.
func (s *Store) acquire(bi, bj int) []float32 {
	idx := s.tileIndex(bi, bj)
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
		buf := make([]byte, len(t.data)*4)
		for i, v := range t.data {
			binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(v))
		}
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
	count := s.dim(bi) * s.dim(bj)
	buf := make([]byte, count*4)
	if _, err := f.ReadAt(buf, int64(idx)*s.slot); err != nil {
		return nil, false
	}
	data := make([]float32, count)
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
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
		return make([]float32, s.dim(bi)*s.dim(bj))
	}
	return ComputeTile(s.views, s.penalty, s.ts, bi, bj)
}

// ComputeTile builds one tile (bi ≤ bj) of the upper-triangle tile grid
// over views through the batched kernel. Diagonal tiles are full
// squares mirrored from their upper half so row slices serve StreamRow
// directly; values pass through dbscan.Quantize, the single float32
// boundary every backend shares. Exported so distributed shard workers
// compute the byte-for-byte identical tiles a local tiled build would.
func ComputeTile(views []canberra.View, penalty float64, tileSize, bi, bj int) []float32 {
	n := len(views)
	dim := func(b int) int { return min(tileSize, n-b*tileSize) }
	r, c := dim(bi), dim(bj)
	data := make([]float32, r*c)
	// One tile row per batch call: the kernel detects equal-length runs
	// among the partner views and serves them through its vectorized
	// batch path.
	out := make([]float64, c)
	// Block bases and row offsets are hoisted out of the index
	// expressions: every product is bounded by len(views) or by
	// len(data) = r*c, both already allocated.
	rowBase, colBase := bi*tileSize, bj*tileSize
	if bi == bj {
		for a := 0; a < r; a++ {
			vi := views[rowBase+a]
			ts := views[colBase+a+1 : colBase+c]
			canberra.DissimViewsBatch(vi, ts, penalty, out[:len(ts)])
			row := a * c
			moff := (a+1)*c + a // mirror cell (a+1, a), stride c
			for _, v := range out[:len(ts)] {
				d := dbscan.Quantize(v)
				data[row+a+1] = d
				data[moff] = d
				row++
				moff += c
			}
		}
		return data
	}
	cols := views[colBase : colBase+c]
	for a := 0; a < r; a++ {
		vi := views[rowBase+a]
		canberra.DissimViewsBatch(vi, cols, penalty, out)
		row := a * c
		for b, v := range out {
			data[row+b] = dbscan.Quantize(v)
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
	if bi > bj || bj >= s.nb {
		return fmt.Errorf("tilestore: ingest: tile (%d, %d) outside %d-block grid", bi, bj, s.nb)
	}
	if want := s.dim(bi) * s.dim(bj); len(data) != want {
		return fmt.Errorf("tilestore: ingest: tile (%d, %d) has %d values, want %d", bi, bj, len(data), want)
	}
	buf := make([]byte, len(data)*4)
	for i, v := range data {
		binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(v))
	}
	idx := s.tileIndex(bi, bj)
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
