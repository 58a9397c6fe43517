package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"protoclust/internal/canberra"
	"protoclust/internal/dissim/tilestore"
)

// Wire paths of the coordinator's shard API (relative to the base URL).
const (
	// LeasePath grants a shard lease (GET; 204 when nothing is pending).
	LeasePath = "/v1/shards/lease"
	// PoolPathFormat serves a job's pool payload (GET, octet-stream).
	PoolPathFormat = "/v1/shards/%s/pool"
	// ResultPathFormat accepts a shard result (POST, octet-stream).
	ResultPathFormat = "/v1/shards/%s/%d/result"
)

// Wire headers of the shard result POST.
const (
	// HeaderDigest carries the hex SHA-256 of the request body; the
	// coordinator recomputes and rejects mismatches before queue logic.
	HeaderDigest = "X-Shard-Digest"
	// HeaderToken echoes the lease token, for logs only.
	HeaderToken = "X-Lease-Token"
	// HeaderWorker names the posting worker, for logs only.
	HeaderWorker = "X-Worker"
)

// maxPoolBytes bounds a fetched pool payload (1 GiB).
const maxPoolBytes = 1 << 30

// Worker is the stateless shard worker: it polls the coordinator for
// leases, fetches (and caches) the referenced pool payload, computes
// the leased tile range through the same batched kernels as a local
// run, and posts the result back under its content address. All state
// a worker holds is a soft cache; killing one at any instant loses at
// most one lease TTL of progress.
type Worker struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:8077".
	Coordinator string
	// ID names the worker in leases and logs (default "worker").
	ID string
	// Client is the HTTP client (default http.DefaultClient).
	Client *http.Client
	// Poll is the idle wait between lease attempts when the queue is
	// empty (default 500ms).
	Poll time.Duration
	// ShardDelay, when positive, sleeps after computing each shard
	// before posting the result — a test aid that stretches small jobs
	// so kill/requeue windows are reachable deterministically.
	ShardDelay time.Duration
	// Log receives per-shard logs (default slog.Default).
	Log *slog.Logger

	pools map[string][]canberra.View // pool digest → views
}

// errNoWork distinguishes an empty queue from a transport failure.
var errNoWork = errors.New("shard: no work available")

// Run polls for leases and computes shards until ctx is canceled; it
// returns ctx's error. Transport errors back off at the poll interval
// instead of aborting — the coordinator restarting must not kill the
// fleet.
func (w *Worker) Run(ctx context.Context) error {
	poll := w.Poll
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	for {
		worked, err := w.Step(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err != nil {
			w.log().WarnContext(ctx, "shard step failed; backing off", "worker", w.ID, "err", err)
		}
		if worked && err == nil {
			continue
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(poll):
		}
	}
}

// Step performs one lease → compute → post cycle. worked is false when
// the coordinator had nothing to lease.
func (w *Worker) Step(ctx context.Context) (worked bool, err error) {
	lease, err := w.lease(ctx)
	if errors.Is(err, errNoWork) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	task := lease.Task
	start := time.Now()
	views, err := w.views(ctx, task)
	if err != nil {
		return true, err
	}
	data, err := Compute(task, views)
	if err != nil {
		return true, err
	}
	if w.ShardDelay > 0 {
		select {
		case <-ctx.Done():
			return true, ctx.Err()
		case <-time.After(w.ShardDelay):
		}
	}
	status, err := w.post(ctx, task, lease.Token, tilestore.EncodeTiles(data))
	if err != nil {
		return true, err
	}
	w.log().InfoContext(ctx, "shard complete", "worker", w.ID, "job", task.Job,
		"shard", task.ID, "tiles", task.TileHi-task.TileLo, "status", status,
		"elapsed", time.Since(start).Round(time.Millisecond))
	return true, nil
}

// lease requests one shard lease; errNoWork when the queue is empty.
func (w *Worker) lease(ctx context.Context) (Lease, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		w.Coordinator+LeasePath+"?worker="+w.id(), nil)
	if err != nil {
		return Lease{}, err
	}
	resp, err := w.client().Do(req)
	if err != nil {
		return Lease{}, err
	}
	defer drainClose(resp.Body)
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNoContent:
		return Lease{}, errNoWork
	default:
		return Lease{}, fmt.Errorf("shard: lease: coordinator returned %s", resp.Status)
	}
	var lease Lease
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&lease); err != nil {
		return Lease{}, fmt.Errorf("shard: lease: %w", err)
	}
	if err := lease.Task.Validate(); err != nil {
		return Lease{}, err
	}
	return lease, nil
}

// views returns the kernel views of the task's pool, fetching the pool
// payload unless a payload with the same content address is cached.
func (w *Worker) views(ctx context.Context, task Task) ([]canberra.View, error) {
	if v, ok := w.pools[task.PoolDigest]; ok {
		return v, nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		w.Coordinator+fmt.Sprintf(PoolPathFormat, task.Job), nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("shard: pool %s: coordinator returned %s", task.Job, resp.Status)
	}
	payload, err := io.ReadAll(io.LimitReader(resp.Body, maxPoolBytes+1))
	if err != nil {
		return nil, fmt.Errorf("shard: pool %s: %w", task.Job, err)
	}
	if len(payload) > maxPoolBytes {
		return nil, fmt.Errorf("shard: pool %s exceeds %d bytes", task.Job, maxPoolBytes)
	}
	if got := Digest(payload); got != task.PoolDigest {
		return nil, fmt.Errorf("shard: pool %s digest %s does not match lease %s",
			task.Job, got, task.PoolDigest)
	}
	segments, err := DecodePool(payload)
	if err != nil {
		return nil, err
	}
	if len(segments) != task.N {
		return nil, fmt.Errorf("shard: pool %s has %d segments, lease says %d",
			task.Job, len(segments), task.N)
	}
	views := canberra.NewViews(segments)
	if w.pools == nil {
		w.pools = make(map[string][]canberra.View)
	}
	// One pool per live job is the norm; keep the cache tiny and recover
	// by refetch rather than tracking LRU order.
	if len(w.pools) >= 4 {
		clear(w.pools)
	}
	w.pools[task.PoolDigest] = views
	return views, nil
}

// post uploads a shard result under its content address and returns the
// coordinator's disposition ("accepted" or "duplicate").
func (w *Worker) post(ctx context.Context, task Task, token string, body []byte) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.Coordinator+fmt.Sprintf(ResultPathFormat, task.Job, task.ID), bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(HeaderDigest, Digest(body))
	req.Header.Set(HeaderToken, token)
	req.Header.Set(HeaderWorker, w.id())
	resp, err := w.client().Do(req)
	if err != nil {
		return "", err
	}
	defer drainClose(resp.Body)
	switch resp.StatusCode {
	case http.StatusOK:
		var ack struct {
			Status string `json:"status"`
		}
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&ack); err != nil {
			return "", fmt.Errorf("shard: result %s/%d: %w", task.Job, task.ID, err)
		}
		return ack.Status, nil
	case http.StatusNotFound, http.StatusGone:
		// The job finished (or was dropped) while we computed; the work
		// is simply stale. Not an error — move on to the next lease.
		return "stale", nil
	default:
		return "", fmt.Errorf("shard: result %s/%d: coordinator returned %s", task.Job, task.ID, resp.Status)
	}
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return http.DefaultClient
}

func (w *Worker) id() string {
	if w.ID != "" {
		return w.ID
	}
	return "worker"
}

func (w *Worker) log() *slog.Logger {
	if w.Log != nil {
		return w.Log
	}
	return slog.Default()
}

// drainClose consumes and closes a response body so the connection is
// reusable; both operations are best-effort on the way out of a
// request.
func drainClose(body io.ReadCloser) {
	// Best-effort: a failed drain/close only costs connection reuse.
	_, _ = io.Copy(io.Discard, io.LimitReader(body, 1<<20))
	// Best-effort close, same as above.
	_ = body.Close()
}
