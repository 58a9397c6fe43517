// Package shard decomposes a dissimilarity-matrix build into leased,
// content-addressed work units a fleet of stateless workers can compute
// independently: the 64×64 tile grid of the tiled backend is split into
// contiguous tile ranges, each range becomes a Task handed out under an
// expiring lease, and a completed task is identified by the SHA-256 of
// its tile bytes — because the kernel is bit-deterministic across
// machines and kernels (enforced by the canberra dispatch tests), two
// workers computing the same shard produce the same digest, which gives
// resubmission and late completion exactly-once semantics for free.
//
// The package holds the pieces both sides of the wire share: the grid
// arithmetic, the Task and lease types, the binary pool/tile payload
// codecs, the lease queue the coordinator drives, and the HTTP worker
// client cmd/protoclust-worker wraps.
package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"

	"protoclust/internal/canberra"
	"protoclust/internal/dissim/tilestore"
	"protoclust/internal/vecmath"
)

// DefaultTileSize mirrors the tiled backend's grid edge: one tile is
// 64×64 pairs, 16 KiB of float32 results.
const DefaultTileSize = tilestore.DefaultTileSize

// DefaultTilesPerShard is the default number of tiles per leased task:
// 16 tiles ≈ 65k pairs keep the lease round-trip overhead well under
// the compute time while leaving enough shards for balanced stealing.
const DefaultTilesPerShard = 16

// Grid is the upper-triangle tile decomposition of an n-point matrix,
// identical to the tiled backend's: blocks (bi, bj) with bi ≤ bj,
// linearized row-major over the block upper triangle.
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

// Index linearizes block (bi, bj), bi ≤ bj — the same mapping the tiled
// backend uses for its spill slots.
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
// are full mirrored squares, exactly as the tiled backend stores them.
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

// Task is one leased unit of work: a contiguous range of grid tiles of
// one job's matrix. A Task is self-contained up to the pool payload,
// which the worker fetches (and caches) by PoolDigest.
type Task struct {
	// Job is the coordinator's job ID.
	Job string `json:"job"`
	// ID is the shard index within the job, dense from 0.
	ID int `json:"id"`
	// TileLo and TileHi bound the half-open tile range [TileLo, TileHi).
	TileLo int `json:"tile_lo"`
	TileHi int `json:"tile_hi"`
	// N and TileSize reproduce the grid on the worker.
	N        int `json:"n"`
	TileSize int `json:"tile_size"`
	// Penalty is the Canberra length-mismatch penalty factor.
	Penalty float64 `json:"penalty"`
	// PoolDigest content-addresses the pool payload the tiles are
	// computed over.
	PoolDigest string `json:"pool_digest"`
}

// Grid returns the task's tile grid.
func (t Task) Grid() Grid { return NewGrid(t.N, t.TileSize) }

// Validate checks the task's internal consistency.
func (t Task) Validate() error {
	if t.N <= 0 {
		return fmt.Errorf("shard: task %s/%d: n = %d", t.Job, t.ID, t.N)
	}
	g := t.Grid()
	if t.TileLo < 0 || t.TileHi <= t.TileLo || t.TileHi > g.Tiles() {
		return fmt.Errorf("shard: task %s/%d: tile range [%d, %d) outside grid of %d tiles",
			t.Job, t.ID, t.TileLo, t.TileHi, g.Tiles())
	}
	return nil
}

// Plan splits the job's grid into tasks of up to tilesPerShard tiles
// (DefaultTilesPerShard when ≤ 0), in tile order with dense IDs.
func Plan(job string, g Grid, penalty float64, poolDigest string, tilesPerShard int) []Task {
	if tilesPerShard <= 0 {
		tilesPerShard = DefaultTilesPerShard
	}
	total := g.Tiles()
	tasks := make([]Task, 0, (total+tilesPerShard-1)/tilesPerShard)
	for lo := 0; lo < total; lo += tilesPerShard {
		tasks = append(tasks, Task{
			Job:        job,
			ID:         len(tasks),
			TileLo:     lo,
			TileHi:     min(lo+tilesPerShard, total),
			N:          g.N,
			TileSize:   g.TileSize,
			Penalty:    penalty,
			PoolDigest: poolDigest,
		})
	}
	return tasks
}

// Compute builds the task's tiles over the pool views, concatenated in
// tile order — the exact bytes the coordinator ingests. It goes through
// tilestore.ComputeTile, the same code path the tiled backend and the
// single-process build quantize through, so the result is bit-identical
// to a local run regardless of which worker (or kernel) computes it.
func Compute(t Task, views []canberra.View) ([]float32, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if len(views) != t.N {
		return nil, fmt.Errorf("shard: task %s/%d: %d views for n = %d", t.Job, t.ID, len(views), t.N)
	}
	g := t.Grid()
	out := make([]float32, 0, g.RangeLen(t.TileLo, t.TileHi))
	for idx := t.TileLo; idx < t.TileHi; idx++ {
		bi, bj := g.Coords(idx)
		out = append(out, tilestore.ComputeTile(views, t.Penalty, g.TileSize, bi, bj)...)
	}
	return out, nil
}

// Digest returns the hex SHA-256 content address of a payload.
func Digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// maxPoolSegments bounds DecodePool against absurd headers before any
// allocation (16 Mi unique segments is far beyond any supported pool).
const maxPoolSegments = 16 << 20

// EncodePool serializes the pool's unique segment values: a uint32
// count followed by one uint32 length + raw bytes per segment, little
// endian, in pool order. The encoding is injective, so its Digest
// content-addresses the pool.
func EncodePool(segments [][]byte) []byte {
	total := 4
	for _, s := range segments {
		total += 4 + len(s)
	}
	out := make([]byte, 0, total)
	out = binary.LittleEndian.AppendUint32(out, vecmath.CheckedUint32(len(segments)))
	for _, s := range segments {
		out = binary.LittleEndian.AppendUint32(out, vecmath.CheckedUint32(len(s)))
		out = append(out, s...)
	}
	return out
}

// DecodePool inverts EncodePool, validating framing and that every
// segment is non-empty (the kernel contract).
func DecodePool(b []byte) ([][]byte, error) {
	if len(b) < 4 {
		return nil, errors.New("shard: pool payload truncated")
	}
	count := binary.LittleEndian.Uint32(b)
	if count == 0 || count > maxPoolSegments {
		return nil, fmt.Errorf("shard: pool payload declares %d segments", count)
	}
	b = b[4:]
	segments := make([][]byte, count)
	for i := range segments {
		if len(b) < 4 {
			return nil, fmt.Errorf("shard: pool payload truncated at segment %d header", i)
		}
		n := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if n == 0 {
			return nil, fmt.Errorf("shard: pool payload segment %d is empty", i)
		}
		if uint64(n) > uint64(len(b)) {
			return nil, fmt.Errorf("shard: pool payload truncated in segment %d", i)
		}
		segments[i] = b[:n:n]
		b = b[n:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("shard: pool payload has %d trailing bytes", len(b))
	}
	return segments, nil
}

// Views converts decoded pool segments into kernel views backed by one
// contiguous array, mirroring dissim.Pool.Views so the worker's kernel
// walks the same memory layout as the coordinator's.
func Views(segments [][]byte) []canberra.View {
	total := 0
	for _, s := range segments {
		total += len(s)
	}
	backing := make([]float64, total)
	views := make([]canberra.View, len(segments))
	off := 0
	for i, s := range segments {
		v := backing[off : off+len(s) : off+len(s)]
		for j, c := range s {
			v[j] = float64(c)
		}
		views[i] = v
		off += len(s)
	}
	return views
}

// EncodeTiles serializes concatenated tile data as little-endian
// float32, the shard result wire format.
func EncodeTiles(data []float32) []byte {
	out := make([]byte, len(data)*4)
	for i, v := range data {
		binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(v))
	}
	return out
}

// DecodeTiles inverts EncodeTiles, requiring exactly want elements.
func DecodeTiles(b []byte, want int) ([]float32, error) {
	if len(b) != want*4 {
		return nil, fmt.Errorf("shard: tile payload is %d bytes, want %d", len(b), want*4)
	}
	data := make([]float32, want)
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return data, nil
}
