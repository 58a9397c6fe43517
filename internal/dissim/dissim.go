// Package dissim builds the pairwise dissimilarity matrix over unique
// message segments (Section III-C): segments are interpreted as byte
// vectors, one-byte segments are excluded, duplicate values are
// considered only once, and the Canberra dissimilarity of every
// remaining pair is stored in a matrix D that drives DBSCAN and the ε
// auto-configuration.
//
// The matrix build is the pipeline's hot path — O(n²) kernel calls — and
// is organized for throughput: segments are converted to float views
// once (canberra.View), the upper triangle is split into fixed-size
// tiles handed to workers through an atomic counter (balanced, unlike
// per-row scheduling where row i carries n−i−1 pairs), and tiles walk a
// length-sorted traversal order so runs of equal-length segments hit the
// kernel's fast path together. ComputeReference retains the original
// per-row implementation as the perf baseline and correctness oracle.
package dissim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"protoclust/internal/canberra"
	"protoclust/internal/dbscan"
	"protoclust/internal/dissim/tilestore"
	"protoclust/internal/netmsg"
	"protoclust/internal/vecmath"
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

// TotalOccurrences returns the number of concrete (non-excluded)
// segments behind the pool.
func (p *Pool) TotalOccurrences() int {
	var n int
	for _, occ := range p.Occurrences {
		n += len(occ)
	}
	return n
}

// Views converts every unique segment into a kernel view, once. All
// views share one contiguous backing array in pool order, so the
// length-sorted tile traversal walks mostly-adjacent memory and the
// kernel's batched entry point streams rather than pointer-chases.
func (p *Pool) Views() []canberra.View {
	total := 0
	for _, s := range p.Unique {
		total += len(s.Bytes())
	}
	backing := make([]float64, total)
	views := make([]canberra.View, len(p.Unique))
	off := 0
	for i, s := range p.Unique {
		b := s.Bytes()
		v := backing[off : off+len(b) : off+len(b)]
		for j, c := range b {
			v[j] = float64(c)
		}
		views[i] = v
		off += len(b)
	}
	return views
}

// store is what a matrix backend must provide: O(1) pair access plus
// streaming row access with the shared quantization contract
// (dbscan.Quantize), so every backend yields bit-identical distances.
type store interface {
	dbscan.Matrix
	dbscan.RowStreamer
}

// Backend names accepted by Config.Backend.
const (
	// BackendAuto picks condensed when it fits the memory budget and
	// tiled otherwise.
	BackendAuto = "auto"
	// BackendDense is the full n×n float32 layout (fast aliased rows,
	// double the condensed footprint).
	BackendDense = "dense"
	// BackendCondensed stores the strict upper triangle: n(n−1)/2
	// float32, half the dense footprint. The default resident backend.
	BackendCondensed = "condensed"
	// BackendTiled computes 64×64 tiles on demand under a byte-budgeted
	// LRU with optional disk spill (internal/dissim/tilestore).
	BackendTiled = "tiled"
)

// DefaultMemoryBudget bounds the matrix's resident bytes when Config
// leaves MemoryBudget zero: 2 GiB keeps condensed storage through
// n ≈ 32k and switches larger pools to the tiled backend.
const DefaultMemoryBudget int64 = 2 << 30

// Config parameterizes the matrix build.
type Config struct {
	// Penalty is the Canberra length-mismatch penalty factor
	// (canberra.DefaultPenalty for the paper's configuration).
	Penalty float64
	// Backend selects the storage layout; "" means BackendAuto.
	Backend string
	// MemoryBudget bounds the matrix's resident bytes; ≤ 0 means
	// DefaultMemoryBudget. Explicitly requested dense/condensed
	// backends that exceed the budget fail with ErrPoolTooLarge; auto
	// falls back to tiled; tiled uses it as the tile-LRU bound.
	MemoryBudget int64
	// SpillDir enables the tiled backend's disk spill under the given
	// directory (see tilestore.Config.SpillDir).
	SpillDir string
}

// Matrix stores the pairwise Canberra dissimilarities between the
// pool's unique segments, plus the float views they were computed from
// so downstream stages (refinement, reporting) can reuse them without
// reconverting bytes.
type Matrix struct {
	store   store
	views   []canberra.View
	backend string
}

var (
	_ dbscan.Matrix      = (*Matrix)(nil)
	_ dbscan.RowStreamer = (*Matrix)(nil)
)

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
// baseline and always allocates densely: n² float32 entries; 30k
// uniques ≈ 3.6 GB. The production backends are bounded by
// Config.MemoryBudget instead.
const MaxUniqueSegments = 30000

// tileSize is the edge length of one scheduling tile over the upper
// triangle: 64×64 ≈ 4k pairs per tile keeps the per-tile atomic fetch
// negligible while giving enough tiles for balanced parallelism even on
// small pools.
const tileSize = 64

// computeTileHook, when non-nil, is called once per tile a worker picks
// up. Test instrumentation only (cancellation promptness).
var computeTileHook func()

// Compute fills the dissimilarity matrix for the pool using the given
// Canberra length-mismatch penalty factor (canberra.DefaultPenalty for
// the paper's configuration) and the automatic backend selection.
func Compute(pool *Pool, penalty float64) (*Matrix, error) {
	return ComputeContext(context.Background(), pool, penalty)
}

// ComputeContext is Compute with cancellation: eager builds re-check
// ctx per scheduling tile; the tiled backend checks it per lazily
// computed tile and surfaces it through Matrix.Err. The returned error
// wraps ctx's cause, so errors.Is(err, context.Canceled) (or
// DeadlineExceeded) holds.
func ComputeContext(ctx context.Context, pool *Pool, penalty float64) (*Matrix, error) {
	return ComputeMatrixContext(ctx, pool, Config{Penalty: penalty})
}

// ComputeMatrix is ComputeMatrixContext without cancellation.
func ComputeMatrix(pool *Pool, cfg Config) (*Matrix, error) {
	return ComputeMatrixContext(context.Background(), pool, cfg)
}

// ComputeMatrixContext builds the dissimilarity matrix on the backend
// cfg selects. Resident backends (dense, condensed) are computed
// eagerly in balanced upper-triangle tiles; the tiled backend returns
// immediately and computes 64×64 tiles on first touch within
// cfg.MemoryBudget resident bytes.
func ComputeMatrixContext(ctx context.Context, pool *Pool, cfg Config) (*Matrix, error) {
	n := pool.Size()
	if n == 0 {
		return nil, ErrEmptyPool
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
	views := pool.Views()

	var st store
	switch backend {
	case BackendDense, BackendCondensed:
		m, err := newResident(n, backend, budget)
		if err != nil {
			return nil, err
		}
		if err := fillMatrix(ctx, m, views, cfg.Penalty); err != nil {
			return nil, err
		}
		st = m
	case BackendTiled:
		ts, err := tilestore.New(ctx, views, tilestore.Config{
			BudgetBytes: budget,
			SpillDir:    cfg.SpillDir,
			Penalty:     cfg.Penalty,
		})
		if err != nil {
			return nil, fmt.Errorf("dissim: tiled backend: %w", err)
		}
		st = ts
	default:
		return nil, fmt.Errorf("dissim: unknown matrix backend %q", cfg.Backend)
	}
	return &Matrix{store: st, views: views, backend: backend}, nil
}

// settable is the write side of the eager backends.
type settable interface {
	dbscan.Matrix
	Set(i, j int, v float64)
}

// residentStore is a fully allocated resident backend: settable for
// filling and a complete store once filled.
type residentStore interface {
	store
	Set(i, j int, v float64)
}

// newResident allocates an empty dense or condensed matrix, enforcing
// the memory budget before touching memory.
func newResident(n int, backend string, budget int64) (residentStore, error) {
	switch backend {
	case BackendDense:
		b, err := dbscan.DenseBytes(n)
		if err != nil {
			return nil, fmt.Errorf("%w: %d unique segments: %v", ErrPoolTooLarge, n, err)
		}
		if b > budget {
			return nil, fmt.Errorf("%w: %d unique segments need %d bytes dense (budget %d)",
				ErrPoolTooLarge, n, b, budget)
		}
		m, err := dbscan.NewDenseMatrix(n)
		if err != nil {
			return nil, fmt.Errorf("%w: %d unique segments: %v", ErrPoolTooLarge, n, err)
		}
		return m, nil
	case BackendCondensed:
		b, err := dbscan.CondensedBytes(n)
		if err != nil {
			return nil, fmt.Errorf("%w: %d unique segments: %v", ErrPoolTooLarge, n, err)
		}
		if b > budget {
			return nil, fmt.Errorf("%w: %d unique segments need %d bytes condensed (budget %d)",
				ErrPoolTooLarge, n, b, budget)
		}
		m, err := dbscan.NewCondensedMatrix(n)
		if err != nil {
			return nil, fmt.Errorf("%w: %d unique segments: %v", ErrPoolTooLarge, n, err)
		}
		return m, nil
	}
	return nil, fmt.Errorf("dissim: %q is not a resident backend", backend)
}

// fillMatrix computes every upper-triangle pair of views into st.
func fillMatrix(ctx context.Context, st settable, views []canberra.View, penalty float64) error {
	n := len(views)

	// Traversal order sorted by segment length (stable, so equal
	// lengths keep pool order): a tile then sees runs of equal-length
	// rows and columns and hits the kernel's equal-length fast path in
	// batches. Results are stored at the original pool indices, so the
	// matrix itself is unaffected.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(views[order[a]]) < len(views[order[b]])
	})

	nb := (n + tileSize - 1) / tileSize
	tiles := make([][2]int, 0, vecmath.CheckedTriNum(nb+1))
	for bi := 0; bi < nb; bi++ {
		for bj := bi; bj < nb; bj++ {
			tiles = append(tiles, [2]int{bi, bj})
		}
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
			// Per-worker scratch for the batched kernel entry point: one
			// tile row of partner views and distances at a time.
			ts := make([]canberra.View, 0, tileSize)
			out := make([]float64, tileSize)
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
				bi, bj := tiles[t][0], tiles[t][1]
				aHi := min((bi+1)*tileSize, n)
				bHi := min((bj+1)*tileSize, n)
				for a := bi * tileSize; a < aHi; a++ {
					i := order[a]
					vi := views[i]
					if len(vi) == 0 {
						fail(fmt.Errorf("dissim: segment %d: %w", i, canberra.ErrEmpty))
						return
					}
					bLo := bj * tileSize
					if bi == bj {
						bLo = a + 1
					}
					ts = ts[:0]
					for b := bLo; b < bHi; b++ {
						j := order[b]
						vj := views[j]
						if len(vj) == 0 {
							fail(fmt.Errorf("dissim: segment %d: %w", j, canberra.ErrEmpty))
							return
						}
						ts = append(ts, vj)
					}
					// The length-sorted traversal makes this row a run of
					// few distinct lengths, so the batch call spends almost
					// all pairs in the kernel's equal-length batch path.
					canberra.DissimViewsBatch(vi, ts, penalty, out[:len(ts)])
					for k, d := range out[:len(ts)] {
						st.Set(i, order[bLo+k], d)
					}
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

// StreamRow streams row i span by span in ascending column order (see
// dbscan.RowStreamer); the row consumers use it instead of assuming an
// aliased full row, which no longer exists on the condensed and tiled
// backends.
func (m *Matrix) StreamRow(i int, fn func(lo int, vals []float32)) {
	m.store.StreamRow(i, fn)
}

// StreamSuffix streams row i's columns j > i in storage order (see
// dbscan.SuffixStreamer); the full-matrix passes — DBSCAN, refinement
// statistics, k-NN, MinPositive — walk these instead of whole rows.
func (m *Matrix) StreamSuffix(i int, fn func(lo int, vals []float32)) {
	m.store.StreamSuffix(i, fn)
}

// Backend names the storage backend serving this matrix ("dense",
// "condensed", or "tiled").
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

// Close releases backend resources (the tiled backend's spill file).
// The matrix stays readable; close it only when analysis is done.
func (m *Matrix) Close() error {
	if c, ok := m.store.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// ResidentBytes returns the bytes the matrix currently holds in memory:
// the full storage for the resident backends, the cached tile bytes for
// the tiled backend.
func (m *Matrix) ResidentBytes() int64 {
	if r, ok := m.store.(interface{ ResidentBytes() int64 }); ok {
		return r.ResidentBytes()
	}
	return 0
}

// Views returns the precomputed float views the matrix was built from,
// indexed like the pool's unique segments. Callers must not mutate them.
func (m *Matrix) Views() []canberra.View { return m.views }

// MinPositive returns the smallest strictly positive dissimilarity in
// the matrix, or +Inf when every pair is identical — the ε fallback of
// the auto-configuration, computed in one streaming pass instead of
// materializing the upper triangle.
func (m *Matrix) MinPositive() float64 {
	return dbscan.MinPositiveDist(m.store)
}

// UpperTriangle returns every pairwise dissimilarity once. Fewer than
// two segments yield nil.
func (m *Matrix) UpperTriangle() []float64 {
	n := m.Len()
	if n < 2 {
		return nil
	}
	out := make([]float64, vecmath.CheckedTriNum(n))
	p := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out[p] = m.Dist(i, j)
			p++
		}
	}
	return out
}
