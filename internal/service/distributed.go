package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"protoclust/internal/core"
	"protoclust/internal/dissim"
	"protoclust/internal/dissim/tilestore"
	"protoclust/internal/shard"
)

// maxShardResultBytes bounds one posted shard result (256 MiB — far
// beyond any real shard: the default 16-tile shard is 256 KiB).
const maxShardResultBytes = 256 << 20

// coordinator owns the distributed side of the service: it shards each
// job's dissimilarity-matrix build over the tile grid, hands the shards
// to stateless workers through a leased queue, and assembles accepted
// results into the matrix the local pipeline tail consumes. Everything
// before the matrix (trace, segmentation) and after it (ε
// auto-configuration, DBSCAN, refinement) still runs in-process, so a
// distributed run is the local pipeline with only the O(n²) middle
// outsourced — and bit-identical to it, because workers compute through
// the same quantizing kernel path.
type coordinator struct {
	queue         *shard.Queue
	tilesPerShard int
	distributeMin int
	log           *slog.Logger
	metrics       *Metrics

	mu   sync.Mutex
	jobs map[string]*distJob
}

// distJob is the assembly state of one sharded matrix build.
type distJob struct {
	pool   []byte // encoded pool payload workers fetch
	digest string
	grid   tilestore.Grid
	tasks  []shard.Task

	mu     sync.Mutex
	asm    *dissim.Assembler
	err    error
	closed bool
	done   chan struct{} // closed when assembly completes or fails
}

func newCoordinator(cfg Config, log *slog.Logger, m *Metrics) *coordinator {
	return &coordinator{
		queue:         shard.NewQueue(cfg.LeaseTTL, nil),
		tilesPerShard: cfg.TilesPerShard,
		distributeMin: cfg.DistributeMin,
		log:           log,
		metrics:       m,
		jobs:          make(map[string]*distJob),
	}
}

// stats snapshots the queue for the metrics endpoint.
func (c *coordinator) stats() ShardQueueStats {
	snap := c.queue.Snapshot()
	jobs := make([]ShardJobProgress, len(snap))
	for i, p := range snap {
		jobs[i] = ShardJobProgress{Job: p.Job, Done: p.Done, Total: p.Total}
	}
	return ShardQueueStats{
		Pending:     c.queue.PendingShards(),
		Leased:      c.queue.ActiveLeases(),
		Expirations: c.queue.Expirations(),
		Jobs:        jobs,
	}
}

// expiryLoop requeues expired leases on a ticker until ctx (the service
// lifetime) ends, so a dead worker's shards become stealable even while
// no live worker is polling Lease.
func (c *coordinator) expiryLoop(ctx context.Context) {
	period := c.queue.TTL() / 2
	if period < 100*time.Millisecond {
		period = 100 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if n := c.queue.ExpireNow(); n > 0 {
				c.log.InfoContext(ctx, "expired shard leases requeued", "count", n)
			}
		}
	}
}

// matrixBuilder returns the builder injected into the job's analysis:
// nil (local compute) when distributed mode is off, otherwise a closure
// that shards the build under the configuration core hands it —
// falling back to local compute for pools below the distribution
// threshold, where shard round-trips cost more than the matrix.
func (s *Service) matrixBuilder(j *job) core.MatrixBuilder {
	if s.dist == nil {
		return nil
	}
	return func(ctx context.Context, pool *dissim.Pool, cfg dissim.Config) (*dissim.Matrix, error) {
		if pool.Size() < s.dist.distributeMin {
			return dissim.ComputeMatrixContext(ctx, pool, cfg)
		}
		return s.dist.build(ctx, j.id, pool, cfg)
	}
}

// build shards the pool's matrix, waits for the worker fleet to
// complete every shard, and returns the assembled matrix. Cancellation
// (user cancel, job deadline, shutdown) drops the job's shards from the
// queue; in-flight worker results for it then answer 404 and are
// discarded as stale.
func (c *coordinator) build(ctx context.Context, jobID string, pool *dissim.Pool, cfg dissim.Config) (*dissim.Matrix, error) {
	asm, err := dissim.NewAssembler(ctx, pool, cfg)
	if err != nil {
		return nil, err
	}
	segments := make([][]byte, pool.Size())
	for i, seg := range pool.Unique {
		segments[i] = seg.Bytes()
	}
	payload := shard.EncodePool(segments)
	digest := shard.Digest(payload)
	g := asm.Grid()
	tasks := shard.Plan(jobID, g, cfg.Penalty, digest, c.tilesPerShard)
	dj := &distJob{
		pool:   payload,
		digest: digest,
		grid:   g,
		tasks:  tasks,
		asm:    asm,
		done:   make(chan struct{}),
	}
	c.mu.Lock()
	c.jobs[jobID] = dj
	c.mu.Unlock()
	if err := c.queue.Add(jobID, tasks); err != nil {
		c.forget(jobID)
		// Assembly never started; releasing the empty backend is safe.
		_ = asm.Close()
		return nil, err
	}
	c.log.InfoContext(ctx, "matrix build sharded", "job", jobID, "n", pool.Size(),
		"tiles", g.Tiles(), "shards", len(tasks), "backend", asm.Backend())

	select {
	case <-ctx.Done():
		c.drop(jobID)
		cause := context.Cause(ctx)
		// Marking the job closed waits out a shard completion already
		// inside SetTile and turns later ones away as stale, so none
		// writes into the matrix released below.
		dj.fail(cause)
		// Abandoned mid-assembly; the backend (condensed storage or
		// spill file) must go.
		_ = asm.Close()
		return nil, fmt.Errorf("service: distributed matrix build: %w", cause)
	case <-dj.done:
		c.drop(jobID)
		dj.mu.Lock()
		err := dj.err
		dj.mu.Unlock()
		if err != nil {
			// Failed assembly; release the partial backend.
			_ = asm.Close()
			return nil, fmt.Errorf("service: distributed matrix build: %w", err)
		}
		return asm.Matrix()
	}
}

// drop removes a job from both the registry and the shard queue.
func (c *coordinator) drop(jobID string) {
	c.forget(jobID)
	c.queue.Drop(jobID)
}

func (c *coordinator) forget(jobID string) {
	c.mu.Lock()
	delete(c.jobs, jobID)
	c.mu.Unlock()
}

func (c *coordinator) lookup(jobID string) *distJob {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jobs[jobID]
}

// fail records the assembly error and releases waiters; only the first
// failure sticks.
func (dj *distJob) fail(err error) {
	dj.mu.Lock()
	defer dj.mu.Unlock()
	if dj.closed {
		return
	}
	dj.err = err
	dj.closed = true
	close(dj.done)
}

// complete ingests one accepted shard result; dispositions other than
// first-acceptance are resolved by the queue's content addressing.
func (c *coordinator) complete(dj *distJob, jobID string, id int, digest string, body []byte) (string, error) {
	disp, err := c.queue.Complete(jobID, id, digest)
	if err != nil {
		return "", err
	}
	if disp == shard.Duplicate {
		c.metrics.ShardsDuplicate.Add(1)
		return "duplicate", nil
	}
	task := dj.tasks[id]
	want := dj.grid.RangeLen(task.TileLo, task.TileHi)
	tiles, err := tilestore.DecodeTiles(body, want)
	if err != nil {
		// The digest matched but the length cannot serve this shard: the
		// task geometry and payload disagree, which no retry fixes.
		dj.fail(err)
		return "", err
	}
	dj.mu.Lock()
	defer dj.mu.Unlock()
	if dj.closed {
		return "stale", nil
	}
	off := 0
	for idx := task.TileLo; idx < task.TileHi; idx++ {
		bi, bj := dj.grid.Coords(idx)
		n := dj.grid.TileLen(idx)
		//lint:ignore mutexhold dj.mu is the assembler's serialization point: SetTile mutates unsynchronized assembler state, so its spill I/O cannot move outside the lock, and only competing shard completions ever wait here
		if err := dj.asm.SetTile(bi, bj, tiles[off:off+n]); err != nil {
			dj.err = err
			dj.closed = true
			close(dj.done)
			return "", err
		}
		off += n
	}
	c.metrics.ShardsCompleted.Add(1)
	if dj.asm.Remaining() == 0 {
		dj.closed = true
		close(dj.done)
	}
	return "accepted", nil
}

// handleShardLease serves GET /v1/shards/lease: one lease as JSON, or
// 204 when nothing is pending.
func (s *Service) handleShardLease(w http.ResponseWriter, r *http.Request) {
	if s.dist == nil {
		writeError(w, http.StatusNotFound, errors.New("service: distributed mode disabled"), false)
		return
	}
	lease, ok := s.dist.queue.Lease(r.URL.Query().Get("worker"))
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	s.metrics.LeasesGranted.Add(1)
	writeJSON(w, http.StatusOK, lease)
}

// handleShardPool serves GET /v1/shards/{job}/pool: the job's encoded
// pool payload, content-addressed by the digest header.
func (s *Service) handleShardPool(w http.ResponseWriter, r *http.Request) {
	if s.dist == nil {
		writeError(w, http.StatusNotFound, errors.New("service: distributed mode disabled"), false)
		return
	}
	dj := s.dist.lookup(r.PathValue("job"))
	if dj == nil {
		writeError(w, http.StatusNotFound, errors.New("service: no such distributed job"), false)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(shard.HeaderDigest, dj.digest)
	w.Header().Set("Content-Length", strconv.Itoa(len(dj.pool)))
	// Headers are out; a short write means the worker went away and will
	// refetch (the payload is digest-verified on its side).
	_, _ = w.Write(dj.pool)
}

// handleShardResult serves POST /v1/shards/{job}/{id}/result. The
// body's server-computed digest is authoritative: it must match the
// declared header, and it alone decides acceptance.
func (s *Service) handleShardResult(w http.ResponseWriter, r *http.Request) {
	if s.dist == nil {
		writeError(w, http.StatusNotFound, errors.New("service: distributed mode disabled"), false)
		return
	}
	jobID := r.PathValue("job")
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid shard id %q", r.PathValue("id")), false)
		return
	}
	dj := s.dist.lookup(jobID)
	if dj == nil {
		// The job finished or was dropped; the worker treats 404 as stale.
		writeError(w, http.StatusNotFound, errors.New("service: no such distributed job"), false)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxShardResultBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, err, true)
		return
	}
	if len(body) > maxShardResultBytes {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("shard result exceeds %d bytes", maxShardResultBytes), false)
		return
	}
	digest := shard.Digest(body)
	if declared := r.Header.Get(shard.HeaderDigest); declared != "" && declared != digest {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("body digest %s does not match declared %s", digest, declared), true)
		return
	}
	status, err := s.dist.complete(dj, jobID, id, digest, body)
	switch {
	case errors.Is(err, shard.ErrUnknownShard):
		writeError(w, http.StatusGone, err, false)
	case errors.Is(err, shard.ErrDigestMismatch):
		writeError(w, http.StatusConflict, err, false)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err, false)
	default:
		s.log.Debug("shard result", "job", jobID, "shard", id,
			"status", status, "worker", r.Header.Get(shard.HeaderWorker))
		writeJSON(w, http.StatusOK, map[string]string{"status": status})
	}
}
