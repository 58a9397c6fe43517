// Package dissim builds the pairwise dissimilarity matrix over unique
// message segments (Section III-C): segments are interpreted as byte
// vectors, one-byte segments are excluded, duplicate values are
// considered only once, and the Canberra dissimilarity of every
// remaining pair is stored in a matrix D that drives DBSCAN and the ε
// auto-configuration.
//
// The matrix build is the pipeline's hot path — O(n²) kernel calls — and
// is organized for throughput: segments are converted to float views
// once (canberra.View), and the upper triangle is split into tiles of
// 64 rows × 256 columns in pool-index space, handed to workers through
// an atomic counter (balanced, unlike per-row scheduling where row i
// carries n−i−1 pairs). A tile's results for one row are one contiguous
// span of the row's suffix, written with one SetSpan, so the stores land
// in storage order. Inside a tile, rows and columns are visited as their
// block's canberra.LengthBlock: one LengthBlock.Row call per row makes
// one kernel call per run of one partner length and writes the
// quantized results straight to their pool positions in the row span.
// ComputeReference retains the original per-row implementation as the
// perf baseline and correctness oracle.
package dissim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"protoclust/internal/canberra"
	"protoclust/internal/dbscan"
	"protoclust/internal/dissim/tilestore"
	"protoclust/internal/netmsg"
)

// MinSegmentLength is the shortest segment admitted to clustering;
// coincidental similarity of arbitrary single bytes prevents meaningful
// analysis of shorter ones (Section III-C).
const MinSegmentLength = 2

// Pool is the deduplicated set of unique segments prepared for
// clustering.
type Pool struct {
	// Unique holds one representative segment per distinct byte value,
	// sorted by value for determinism.
	Unique []netmsg.Segment
	// Occurrences maps each index in Unique to every concrete segment
	// carrying that value (including the representative itself).
	Occurrences [][]netmsg.Segment
	// Excluded holds segments shorter than MinSegmentLength, which take
	// no part in clustering but can be re-incorporated by frequency
	// analysis later.
	Excluded []netmsg.Segment
}

// NewPool deduplicates segments by byte value and filters out those
// shorter than MinSegmentLength.
func NewPool(segs []netmsg.Segment) *Pool {
	p := &Pool{}
	groups := make(map[string][]netmsg.Segment)
	for _, s := range segs {
		if s.Length < MinSegmentLength {
			p.Excluded = append(p.Excluded, s)
			continue
		}
		key := string(s.Bytes())
		groups[key] = append(groups[key], s)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	p.Unique = make([]netmsg.Segment, len(keys))
	p.Occurrences = make([][]netmsg.Segment, len(keys))
	for i, k := range keys {
		p.Unique[i] = groups[k][0]
		p.Occurrences[i] = groups[k]
	}
	return p
}

// Size returns the number of unique segments (the paper's n).
func (p *Pool) Size() int { return len(p.Unique) }

// Views converts every unique segment into a kernel view, once, in
// pool order over one backing array (canberra.NewViews).
func (p *Pool) Views() []canberra.View {
	segments := make([][]byte, len(p.Unique))
	for i, s := range p.Unique {
		segments[i] = s.Bytes()
	}
	return canberra.NewViews(segments)
}

// Backend names accepted by Config.Backend.
const (
	// BackendAuto picks condensed when it fits the memory budget and
	// tiled otherwise.
	BackendAuto = "auto"
	// BackendCondensed stores the strict upper triangle, n(n−1)/2
	// float32, computed eagerly. The resident backend.
	BackendCondensed = "condensed"
	// BackendTiled computes 64×64 tiles on demand under a byte-budgeted
	// LRU with optional disk spill (internal/dissim/tilestore).
	BackendTiled = "tiled"
)

// CheckBackend returns nil when name selects a matrix backend ("" or
// one of the Backend names) and an error naming it otherwise, so a
// caller can reject a bad name before doing any work.
func CheckBackend(name string) error {
	switch name {
	case "", BackendAuto, BackendCondensed, BackendTiled:
		return nil
	}
	return fmt.Errorf("dissim: unknown matrix backend %q", name)
}

// DefaultMemoryBudget bounds the matrix's resident bytes when Config
// leaves MemoryBudget zero: 2 GiB keeps condensed storage through
// n ≈ 32k and switches larger pools to the tiled backend.
const DefaultMemoryBudget int64 = 2 << 30

// Config parameterizes the matrix build.
type Config struct {
	// Penalty is the Canberra length-mismatch penalty factor
	// (canberra.DefaultPenalty for the paper's configuration). A NaN
	// penalty fails the build with canberra.ErrBadPenalty.
	Penalty float64
	// Backend selects the storage layout; "" means BackendAuto.
	Backend string
	// MemoryBudget bounds the matrix's resident bytes; ≤ 0 means
	// DefaultMemoryBudget. An explicitly requested condensed backend
	// that exceeds the budget fails with ErrPoolTooLarge; auto
	// falls back to tiled; tiled uses it as the tile-LRU bound.
	MemoryBudget int64
	// SpillDir enables the tiled backend's disk spill under the given
	// directory (see tilestore.Config.SpillDir).
	SpillDir string
}

// Matrix stores the pairwise Canberra dissimilarities between the
// pool's unique segments. Whoever builds a Matrix closes it: Close
// frees the condensed storage (a mapping outside the Go heap, see
// allocFloats) or the tiled backend's spill file.
type Matrix struct {
	// store is the backend: the condensed matrix or the tiled store,
	// both under the shared quantization contract (dbscan.Quantize), so
	// every backend yields bit-identical distances.
	store   dbscan.Matrix
	backend string
	// owned marks a condensed store over allocFloats storage, which
	// Close returns through freeFloats.
	owned bool
}

// openBytes counts the condensed storage this package has allocated
// and not yet freed: mapped bytes on the mapping build, heap bytes on
// the fallback.
var openBytes atomic.Int64

// OpenCondensedBytes returns the bytes of condensed matrices built by
// ComputeMatrixContext or NewAssembler and not yet closed. It reads 0
// once every such matrix is closed; the ownership tests check that.
func OpenCondensedBytes() int64 { return openBytes.Load() }

var _ dbscan.Matrix = (*Matrix)(nil)

// ErrEmptyPool is returned when a matrix is requested for a pool with no
// unique segments.
var ErrEmptyPool = errors.New("dissim: empty segment pool")

// ErrPoolTooLarge is returned when the unique-segment population does
// not fit the requested resident backend within the memory budget;
// callers should raise the budget, switch to the tiled backend,
// deduplicate harder, or split the trace by message type first.
var ErrPoolTooLarge = errors.New("dissim: segment pool too large")

// MaxUniqueSegments bounds the population of the pre-kernel reference
// path (ComputeReference), which only exists as an oracle and perf
// baseline and always allocates a condensed matrix: 30k uniques
// ≈ 1.8 GB. The production backends are bounded by Config.MemoryBudget
// instead.
const MaxUniqueSegments = 30000

// fillRows × fillCols is the eager fill's tile, in pool-index space:
// row i's results for a tile are one span of its condensed suffix.
// 64 × 256 gives each row a span long enough to amortize the write and
// each column block's length runs enough partners for the batched
// kernel, while a pool of a few hundred segments still splits into
// enough tiles to balance the workers.
const (
	fillRows = 64
	fillCols = 256
)

// computeTileHook, when non-nil, is called once per tile a worker picks
// up. Test instrumentation only (cancellation promptness).
var computeTileHook func()

// ComputeMatrixContext builds the dissimilarity matrix on the backend
// cfg selects. The condensed backend is computed eagerly in balanced
// upper-triangle tiles, re-checking ctx per tile; the tiled backend
// returns immediately and computes 64×64 tiles on first touch within
// cfg.MemoryBudget resident bytes, checking ctx per tile and surfacing
// a cancellation through Matrix.Err. A returned error wraps ctx's
// cause, so errors.Is(err, context.Canceled) (or DeadlineExceeded)
// holds.
func ComputeMatrixContext(ctx context.Context, pool *Pool, cfg Config) (*Matrix, error) {
	m, err := newMatrix(ctx, pool, cfg)
	if err != nil {
		return nil, err
	}
	if c, ok := m.store.(*dbscan.CondensedMatrix); ok {
		if err := fillMatrix(ctx, c, pool.Views(), cfg.Penalty); err != nil {
			if cerr := m.Close(); cerr != nil {
				err = errors.Join(err, cerr)
			}
			return nil, err
		}
	}
	return m, nil
}

// newMatrix is the one place a pool and a Config become a backend: it
// rejects an empty pool and a NaN penalty, resolves the memory budget,
// applies the auto rule (condensed while it fits the budget, tiled
// otherwise) and allocates the chosen store empty. A condensed matrix
// waits for fillMatrix or an Assembler; a tiled store computes its
// tiles on first touch.
func newMatrix(ctx context.Context, pool *Pool, cfg Config) (*Matrix, error) {
	n := pool.Size()
	if n == 0 {
		return nil, ErrEmptyPool
	}
	if math.IsNaN(cfg.Penalty) {
		return nil, fmt.Errorf("dissim: %w", canberra.ErrBadPenalty)
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
	switch backend {
	case BackendCondensed:
		c, err := newCondensed(n, budget)
		if err != nil {
			return nil, err
		}
		return &Matrix{store: c, backend: backend, owned: true}, nil
	case BackendTiled:
		ts, err := tilestore.New(ctx, pool.Views(), tilestore.Config{
			BudgetBytes: budget,
			SpillDir:    cfg.SpillDir,
			Penalty:     cfg.Penalty,
		})
		if err != nil {
			return nil, fmt.Errorf("dissim: tiled backend: %w", err)
		}
		return &Matrix{store: ts, backend: backend}, nil
	}
	// Only a name CheckBackend rejects gets here.
	return nil, CheckBackend(cfg.Backend)
}

// newCondensed allocates an empty condensed matrix over allocFloats
// storage, enforcing the memory budget before touching memory. The
// caller's Matrix owns the storage and frees it at Close.
func newCondensed(n int, budget int64) (*dbscan.CondensedMatrix, error) {
	b, err := dbscan.CondensedBytes(n)
	if err != nil {
		return nil, fmt.Errorf("%w: %d unique segments: %v", ErrPoolTooLarge, n, err)
	}
	if b > budget {
		return nil, fmt.Errorf("%w: %d unique segments need %d bytes condensed (budget %d)",
			ErrPoolTooLarge, n, b, budget)
	}
	data, err := allocFloats(int(b / 4))
	if err != nil {
		return nil, fmt.Errorf("%w: %d unique segments: %v", ErrPoolTooLarge, n, err)
	}
	m, err := dbscan.NewCondensedMatrixOver(n, data)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("%w: %d unique segments: %v", ErrPoolTooLarge, n, err), freeFloats(data))
	}
	openBytes.Add(b)
	return m, nil
}

// fillGrid lists the eager fill's tiles as {row block, column block}
// pairs, in row-block order: every block of fillCols columns that holds
// a column j > i for some row i of the block of fillRows rows.
func fillGrid(n int) [][2]int {
	nbc := (n + fillCols - 1) / fillCols
	var tiles [][2]int
	for r0 := 0; r0 < n; r0 += fillRows {
		for cb := (r0 + 1) / fillCols; cb < nbc; cb++ {
			tiles = append(tiles, [2]int{r0 / fillRows, cb})
		}
	}
	return tiles
}

// fillMatrix computes every upper-triangle pair of views into m.
//
// Tiles are blocks of pool indices, so a tile's results for row i are
// one contiguous span of the row's suffix and land through one SetSpan.
// Inside a tile, rows and columns are visited as canberra.LengthBlocks,
// built once per block (with their lane-interleaved runs): one
// LengthBlock.Row call per row computes the row's partners run by run
// and writes the quantized results straight to their places in the row
// span.
func fillMatrix(ctx context.Context, m *dbscan.CondensedMatrix, views []canberra.View, penalty float64) error {
	n := len(views)
	tiles := fillGrid(n)
	var rowBlocks, colBlocks []canberra.LengthBlock
	for lo := 0; lo < n; lo += fillRows {
		rowBlocks = append(rowBlocks, canberra.NewLengthBlock(views, lo, min(lo+fillRows, n)))
	}
	for lo := 0; lo < n; lo += fillCols {
		colBlocks = append(colBlocks, canberra.NewLengthBlock(views, lo, min(lo+fillCols, n)))
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > len(tiles) {
		workers = len(tiles)
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		stop.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker scratch: one row's results for a column block,
			// at their pool positions within the block.
			span := make([]float32, fillCols)
			for {
				t := int(next.Add(1) - 1)
				if t >= len(tiles) || stop.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(fmt.Errorf("dissim: matrix build: %w", err))
					return
				}
				if computeTileHook != nil {
					computeTileHook()
				}
				cols := &colBlocks[tiles[t][1]]
				for k, vj := range cols.Views {
					if len(vj) == 0 {
						fail(fmt.Errorf("dissim: segment %d: %w", cols.Idx[k], canberra.ErrEmpty))
						return
					}
				}
				c0 := tiles[t][1] * fillCols
				c1 := c0 + len(cols.Idx)
				for _, i := range rowBlocks[tiles[t][0]].Idx {
					vi := views[i]
					if len(vi) == 0 {
						fail(fmt.Errorf("dissim: segment %d: %w", i, canberra.ErrEmpty))
						return
					}
					lo := max(c0, i+1)
					if lo >= c1 {
						continue
					}
					// Columns at or before the diagonal are skipped: a row
					// crossing this column block computes only those past it.
					sp := span[:c1-c0]
					cols.Row(vi, i, penalty, sp)
					m.SetSpan(i, lo, sp[lo-c0:])
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Len returns the number of unique segments.
func (m *Matrix) Len() int { return m.store.Len() }

// Dist returns the dissimilarity between unique segments i and j.
func (m *Matrix) Dist(i, j int) float64 { return m.store.Dist(i, j) }

// StreamSuffix streams row i's columns j > i in storage order (see
// dbscan.Matrix); the full-matrix passes — DBSCAN, refinement
// statistics, k-NN, the silhouette, the smallest positive distance —
// walk these instead of whole rows.
func (m *Matrix) StreamSuffix(i int, fn func(lo int, vals []float32)) {
	m.store.StreamSuffix(i, fn)
}

// Backend names the storage backend serving this matrix ("condensed" or
// "tiled").
func (m *Matrix) Backend() string { return m.backend }

// Err returns the first deferred error of a lazily computed backend (a
// cancelled context observed during on-demand tile computation), or
// nil. Eager backends report errors at build time and always return
// nil here. Pipelines must check Err after consuming a tiled matrix.
func (m *Matrix) Err() error {
	if e, ok := m.store.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

// Close releases the backend: the condensed storage, or the tiled
// backend's spill file. A second Close returns nil. Close only when
// analysis is done: a condensed matrix read after Close panics on a
// bounds check.
func (m *Matrix) Close() error {
	switch st := m.store.(type) {
	case *dbscan.CondensedMatrix:
		data := st.Release()
		if !m.owned {
			return nil
		}
		openBytes.Add(-4 * int64(len(data)))
		return freeFloats(data)
	case *tilestore.Store:
		return st.Close()
	}
	return nil
}

// ResidentBytes returns the bytes the matrix currently holds in memory:
// the full storage for the condensed backend, the cached tile bytes for
// the tiled backend.
func (m *Matrix) ResidentBytes() int64 {
	if r, ok := m.store.(interface{ ResidentBytes() int64 }); ok {
		return r.ResidentBytes()
	}
	return 0
}
