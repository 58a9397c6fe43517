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
// The package holds the pieces both sides of the wire share: the Task
// and lease types, the binary pool payload codec, the lease queue the
// coordinator drives, and the HTTP worker client cmd/protoclust-worker
// wraps. The tile grid and the tile byte format belong to tilestore
// (Grid, EncodeTiles), which the shard wire reuses as they are.
package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"

	"protoclust/internal/canberra"
	"protoclust/internal/dissim/tilestore"
	"protoclust/internal/vecmath"
)

// DefaultTilesPerShard is the default number of tiles per leased task:
// 16 tiles ≈ 65k pairs keep the lease round-trip overhead well under
// the compute time while leaving enough shards for balanced stealing.
const DefaultTilesPerShard = 16

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
func (t Task) Grid() tilestore.Grid { return tilestore.NewGrid(t.N, t.TileSize) }

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
func Plan(job string, g tilestore.Grid, penalty float64, poolDigest string, tilesPerShard int) []Task {
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
	b = b[4:]
	// Every segment takes at least five bytes (its length and one byte),
	// so the payload bounds the count before anything is allocated.
	if count == 0 || count > maxPoolSegments || uint64(count)*5 > uint64(len(b)) {
		return nil, fmt.Errorf("shard: pool payload declares %d segments", count)
	}
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
