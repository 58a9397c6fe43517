// Package service implements protoclustd's analysis service: a bounded
// worker pool that runs trace-analysis jobs with per-job deadlines and
// cooperative cancellation (threaded through the segmenters and the
// O(n²) dissimilarity stage), a content-addressed result cache so
// resubmitted traces and configuration sweeps return instantly, and an
// HTTP/JSON front end with health, metrics, and pprof endpoints.
//
// The paper motivates all three: the pairwise-dissimilarity stage
// dominates runtime, heuristic segmenters can blow their work budget
// mid-run, and clustering-configuration search repeats many runs over
// the same trace — a long-running service must cache, bound, and cancel
// that work rather than recompute it per batch invocation.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"protoclust"
	"protoclust/internal/dissim"
	"protoclust/internal/jobstore"
)

// JobState is the lifecycle state of a job.
type JobState string

// Job lifecycle: queued → running → done | failed | canceled. Queued
// jobs can move directly to canceled (user cancel) or failed
// (shutdown, marked retryable).
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether no further state change can happen.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobSpec describes one analysis request: either a built-in generated
// trace (Proto/N/Seed) or an uploaded pcap payload (PCAP/Port).
type JobSpec struct {
	// Proto selects a built-in trace generator (protoclust.Protocols).
	Proto string `json:"proto,omitempty"`
	// N and Seed parameterize the generator.
	N    int   `json:"n,omitempty"`
	Seed int64 `json:"seed,omitempty"`
	// PCAP is a raw classic-pcap stream to extract UDP/TCP payloads
	// from; Port optionally filters payloads to one port.
	PCAP []byte `json:"pcap,omitempty"`
	Port int    `json:"port,omitempty"`
	// Segmenter, NoDeduplicate, and Samples mirror the CLI options.
	Segmenter     string `json:"segmenter,omitempty"`
	NoDeduplicate bool   `json:"no_deduplicate,omitempty"`
	Samples       int    `json:"samples,omitempty"`
	// MemoryBudget bounds the resident bytes of the job's dissimilarity
	// matrix; 0 keeps the library default (2 GiB). MatrixBackend forces
	// a storage backend ("auto", "condensed", "tiled"); "" means
	// automatic selection within the budget. Both are cache-neutral:
	// labels are bit-identical across backends.
	MemoryBudget  int64  `json:"memory_budget_bytes,omitempty"`
	MatrixBackend string `json:"matrix_backend,omitempty"`
	// Sweep, when non-nil, turns the job into a configuration sweep: the
	// grid's configurations fan out over the trace with shared prefixes
	// (segmentation, dissimilarity matrix) computed once per segmenter.
	// The result is retrieved via SweepResult / GET /v1/sweeps/{id}/result
	// instead of Result. Sweep and Format alone decide a job's kind.
	Sweep *SweepRequest `json:"sweep,omitempty"`
	// Format, when non-nil, turns the job into a field-type recognition:
	// templates learned on the training trace classify this job's trace,
	// yielding a message-format schema. Retrieved via FormatResult /
	// GET /v1/formats/{id}/result instead of Result.
	Format *FormatRequest `json:"format,omitempty"`
	// Timeout bounds the job's run time; 0 falls back to the service
	// default.
	Timeout time.Duration `json:"-"`
}

// Validate checks that the spec names exactly one trace source.
func (sp *JobSpec) Validate() error {
	switch {
	case sp.Proto == "" && len(sp.PCAP) == 0:
		return errors.New("service: job needs either proto or pcap")
	case sp.Proto != "" && len(sp.PCAP) > 0:
		return errors.New("service: job must not set both proto and pcap")
	case sp.Proto != "" && sp.N <= 0:
		return errors.New("service: generated trace needs n > 0")
	case sp.MemoryBudget < 0:
		return errors.New("service: memory_budget_bytes must be >= 0")
	case sp.Port < 0 || sp.Port > 65535:
		return fmt.Errorf("service: port %d outside 0..65535", sp.Port)
	}
	if err := dissim.CheckBackend(sp.MatrixBackend); err != nil {
		return fmt.Errorf("service: matrix_backend: %w", err)
	}
	if sp.Sweep != nil {
		if _, err := sp.Sweep.grid(); err != nil {
			return err
		}
	}
	if sp.Format != nil {
		if sp.Sweep != nil {
			return errors.New("service: job must not set both sweep and format")
		}
		if err := sp.Format.validate(); err != nil {
			return err
		}
	}
	return nil
}

// JobStatus is a point-in-time snapshot of a job, JSON-ready.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Error string   `json:"error,omitempty"`
	// Retryable marks failures worth resubmitting unchanged (queue
	// drained at shutdown), as opposed to deterministic ones (budget
	// exceeded, bad spec).
	Retryable bool `json:"retryable,omitempty"`
	CacheHit  bool `json:"cache_hit,omitempty"`
	// SubmittedMS/StartedMS/FinishedMS are Unix milliseconds; 0 when
	// the job has not reached that point.
	SubmittedMS int64 `json:"submitted_ms"`
	StartedMS   int64 `json:"started_ms,omitempty"`
	FinishedMS  int64 `json:"finished_ms,omitempty"`
	// Stages holds the pipeline stage timings of a finished run.
	Stages []protoclust.StageTiming `json:"stages,omitempty"`
}

// Config tunes the service; zero fields take the documented defaults.
type Config struct {
	// Workers is the analysis concurrency (default 2).
	Workers int
	// QueueSize bounds the number of waiting jobs (default 64); beyond
	// it Submit fails with ErrQueueFull.
	QueueSize int
	// DefaultTimeout bounds jobs that do not set their own deadline
	// (default 0: unbounded).
	DefaultTimeout time.Duration
	// CacheEntries bounds the in-memory result cache (default 128).
	CacheEntries int
	// CacheDir enables the disk spill of the result cache.
	CacheDir string
	// SpillDir is the scratch directory for the tiled matrix backend's
	// disk spill (default: "<CacheDir>/tiles" when CacheDir is set;
	// otherwise tiles are recomputed instead of spilled).
	SpillDir string
	// JobStore, when non-nil, makes the job queue durable: every
	// submission and state transition is appended to the store, and New
	// re-enqueues jobs the store holds in a non-terminal state — a
	// daemon restart (or crash) resumes where it left off. The caller
	// opens the store (jobstore.Open) and closes it after Shutdown.
	JobStore *jobstore.Store
	// Distributed enables the shard coordinator: instead of computing
	// dissimilarity matrices in-process, jobs are decomposed into leased
	// tile-range shards that external protoclust-worker processes
	// compute and post back. Requires at least one worker polling the
	// shard API, or distributed jobs wait forever (bound them with
	// timeouts).
	Distributed bool
	// LeaseTTL is the shard lease duration in distributed mode; ≤ 0
	// selects shard.DefaultLeaseTTL. A worker that dies mid-shard delays
	// its job by at most one TTL before the shard is requeued.
	LeaseTTL time.Duration
	// TilesPerShard sets how many 64×64 tiles one leased shard carries
	// (≤ 0: shard.DefaultTilesPerShard).
	TilesPerShard int
	// DistributeMin is the minimum pool size (unique segments) for a
	// matrix build to be distributed; smaller pools compute locally,
	// where shard round-trips would dominate. 0 distributes everything.
	DistributeMin int
	// Logger receives structured per-job logs (default: slog.Default).
	Logger *slog.Logger
}

// Errors returned by Submit.
var (
	// ErrQueueFull signals backpressure: the client should retry later.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrShuttingDown signals the service no longer accepts jobs.
	ErrShuttingDown = errors.New("service: shutting down")
	// ErrUnknownJob is returned for job IDs the service never issued.
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrNotFinished is returned when a result is requested before the
	// job reached a terminal state.
	ErrNotFinished = errors.New("service: job not finished")
)

// errCanceledByUser is the cancellation cause of DELETE /v1/jobs/{id}.
var errCanceledByUser = errors.New("service: canceled by user")

// job is the service-internal job record.
type job struct {
	id   string
	spec JobSpec

	mu        sync.Mutex
	state     JobState
	errMsg    string
	retryable bool
	cacheHit  bool
	// result is the job's outcome, typed by its kind: *protoclust.Report,
	// *sweep.Report or *format.Schema.
	result    any
	timings   []protoclust.StageTiming
	submitted time.Time
	started   time.Time
	finished  time.Time
	// cancel aborts the running analysis; non-nil only while running.
	cancel context.CancelCauseFunc
}

// Service runs analysis jobs on a bounded worker pool.
type Service struct {
	cfg     Config
	log     *slog.Logger
	kinds   [numKinds]jobKind
	metrics Metrics
	store   *jobstore.Store
	dist    *coordinator

	// sweepMu guards sweeps, the per-running-sweep progress records
	// scraped by the metrics exposition.
	sweepMu sync.Mutex
	sweeps  map[string]*sweepProgress

	queue chan *job

	mu      sync.Mutex // guards jobs map and the closed/queue pair
	jobs    map[string]*job
	closed  bool
	nextID  atomic.Int64
	workers sync.WaitGroup

	// baseCtx parents every job context; baseCancel force-cancels all
	// running jobs when the shutdown grace period expires.
	baseCtx    context.Context
	baseCancel context.CancelFunc
}

// New starts a service with cfg's worker pool. Call Shutdown to stop.
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 64
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 128
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.SpillDir == "" && cfg.CacheDir != "" {
		cfg.SpillDir = filepath.Join(cfg.CacheDir, "tiles")
	}
	s := &Service{
		cfg:    cfg,
		log:    cfg.Logger,
		store:  cfg.JobStore,
		queue:  make(chan *job, cfg.QueueSize),
		jobs:   make(map[string]*job),
		sweeps: make(map[string]*sweepProgress),
	}
	s.kinds = s.newKinds()
	s.metrics.SetSweepSource(s.sweepProgressSnapshot)
	// The service root context is deliberately fresh: it outlives any
	// caller and is canceled exactly once, by Shutdown.
	//lint:ignore ctxflow service-lifetime root context, canceled via Shutdown
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	if cfg.Distributed {
		s.dist = newCoordinator(cfg, s.log, &s.metrics)
		s.metrics.SetShardSource(s.dist.stats)
		go s.dist.expiryLoop(s.baseCtx)
	}
	s.recover()
	for w := 0; w < cfg.Workers; w++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// storedSpec is the persisted form of a JobSpec: the spec's JSON fields
// plus the timeout, which JobSpec itself keeps off the wire.
type storedSpec struct {
	JobSpec
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// recover re-enqueues every non-terminal job the store replayed, under
// its original ID, and advances the ID counter past them. Runs before
// the worker pool starts, so recovered jobs keep submission order ahead
// of new ones.
func (s *Service) recover() {
	if s.store == nil {
		return
	}
	var maxID int64
	for _, rec := range s.store.Jobs() {
		if n, err := strconv.ParseInt(strings.TrimPrefix(rec.ID, "j"), 10, 64); err == nil && n > maxID {
			maxID = n
		}
		var st storedSpec
		if err := json.Unmarshal(rec.Spec, &st); err != nil {
			s.log.Warn("jobstore: dropping job with unreadable spec", "job", rec.ID, "err", err)
			continue
		}
		spec := st.JobSpec
		spec.Timeout = time.Duration(st.TimeoutMS) * time.Millisecond
		j := &job{id: rec.ID, spec: spec, state: StateQueued, submitted: time.Now()}
		s.mu.Lock()
		select {
		case s.queue <- j:
			s.jobs[j.id] = j
		default:
			s.mu.Unlock()
			s.log.Warn("jobstore: queue full, recovered job left in store", "job", rec.ID)
			continue
		}
		s.mu.Unlock()
		s.metrics.Submitted.Add(1)
		s.metrics.Queued.Add(1)
		s.metrics.Recovered.Add(1)
		// A job replayed as "running" crashed mid-run; normalize the log
		// to queued so the store reflects what the queue holds.
		if rec.State != jobstore.StateQueued {
			s.persist(j, StateQueued, "", false, false)
		}
		s.log.Info("job recovered from store", "job", j.id, "prev_state", rec.State)
	}
	if maxID > s.nextID.Load() {
		s.nextID.Store(maxID)
	}
}

// persist appends a state transition to the job store, when one is
// configured. Append failures are logged, not fatal: the in-memory
// queue stays authoritative for this process's lifetime.
func (s *Service) persist(j *job, state JobState, errMsg string, retryable bool, withSpec bool) {
	if s.store == nil {
		return
	}
	rec := jobstore.Record{
		ID:        j.id,
		State:     string(state),
		Error:     errMsg,
		Retryable: retryable,
		UpdatedMS: time.Now().UnixMilli(),
	}
	if withSpec {
		b, err := json.Marshal(storedSpec{JobSpec: j.spec, TimeoutMS: int64(j.spec.Timeout / time.Millisecond)})
		if err != nil {
			s.log.Warn("jobstore: spec marshal failed", "job", j.id, "err", err)
		} else {
			rec.Spec = b
		}
	}
	if err := s.store.Append(rec); err != nil {
		s.log.Warn("jobstore: append failed", "job", j.id, "state", state, "err", err)
	}
}

// Metrics exposes the service counters (read-only use).
func (s *Service) Metrics() *Metrics { return &s.metrics }

// Submit enqueues a job and returns its ID. It fails fast with
// ErrQueueFull when the queue is at capacity and ErrShuttingDown after
// Shutdown has begun.
func (s *Service) Submit(spec JobSpec) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	j := &job{
		id:        "j" + strconv.FormatInt(s.nextID.Add(1), 10),
		spec:      spec,
		state:     StateQueued,
		submitted: time.Now(),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return "", ErrShuttingDown
	}
	select {
	case s.queue <- j:
		s.jobs[j.id] = j
	default:
		s.mu.Unlock()
		return "", ErrQueueFull
	}
	s.mu.Unlock()
	s.metrics.Submitted.Add(1)
	s.metrics.Queued.Add(1)
	s.persist(j, StateQueued, "", false, true)
	s.log.Info("job submitted", "job", j.id, "proto", spec.Proto,
		"pcap_bytes", len(spec.PCAP), "segmenter", spec.Segmenter)
	return j.id, nil
}

// Status returns a snapshot of the job.
func (s *Service) Status(id string) (JobStatus, error) {
	j, ok := s.lookup(id)
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Error:       j.errMsg,
		Retryable:   j.retryable,
		CacheHit:    j.cacheHit,
		SubmittedMS: j.submitted.UnixMilli(),
		Stages:      j.timings,
	}
	if !j.started.IsZero() {
		st.StartedMS = j.started.UnixMilli()
	}
	if !j.finished.IsZero() {
		st.FinishedMS = j.finished.UnixMilli()
	}
	return st, nil
}

// Result returns the report of a done job; ErrNotFinished while the job
// is queued or running, and the job's failure otherwise.
func (s *Service) Result(id string) (*protoclust.Report, error) {
	return typedResult[protoclust.Report](s.result(id, kindAnalysis))
}

// Cancel aborts a job: a queued job is marked canceled and skipped when
// a worker pops it; a running job has its context canceled and reaches
// the canceled state as soon as the pipeline observes it (bounded by
// one scheduling tile / one message / one alignment of work).
func (s *Service) Cancel(id string) error {
	j, ok := s.lookup(id)
	if !ok {
		return ErrUnknownJob
	}
	j.mu.Lock()
	canceledQueued := false
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		j.errMsg = errCanceledByUser.Error()
		j.finished = time.Now()
		canceledQueued = true
	case StateRunning:
		j.cancel(errCanceledByUser)
	}
	j.mu.Unlock()
	if canceledQueued {
		// The fsynced job-store append happens outside j.mu so a slow
		// disk cannot stall Status readers. The queued→canceled edge is
		// terminal and a worker popping the job only skips it, so no
		// competing persist can interleave.
		s.metrics.Canceled.Add(1)
		s.persist(j, StateCanceled, errCanceledByUser.Error(), false, false)
		s.log.Info("job canceled while queued", "job", j.id)
	}
	return nil
}

// Shutdown stops accepting jobs, fails all queued jobs with a retryable
// status, and drains running jobs until ctx expires (the grace period);
// leftover running jobs are then force-canceled. It returns once every
// worker has exited.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("service: already shut down")
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()

	// Drain everything still waiting; workers racing on the same channel
	// just see fewer jobs. With a job store, queued jobs are not dropped:
	// their last persisted record is "queued", so the next start recovers
	// and runs them. Without one, the old contract holds — fail them with
	// a retryable status so clients know to resubmit.
	for j := range s.queue {
		j.mu.Lock()
		if j.state == StateQueued {
			j.state = StateFailed
			j.errMsg = ErrShuttingDown.Error()
			j.retryable = true
			j.finished = time.Now()
			s.metrics.Queued.Add(-1)
			s.metrics.Failed.Add(1)
			if s.store != nil {
				s.log.InfoContext(ctx, "queued job persisted for restart", "job", j.id)
			} else {
				s.log.InfoContext(ctx, "queued job failed retryable at shutdown", "job", j.id)
			}
		}
		j.mu.Unlock()
	}

	done := make(chan struct{})
	//lint:ignore goroleak the bridge exits as soon as the worker pool drains; Shutdown blocks on done before returning (force-canceling first if the grace period expires), so the goroutine cannot outlive this call
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.log.WarnContext(ctx, "shutdown grace expired; force-canceling running jobs")
		s.baseCancel()
		<-done
	}
	s.baseCancel()
	return nil
}

func (s *Service) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// worker pops jobs until the queue closes at shutdown.
func (s *Service) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.metrics.Queued.Add(-1)
		j.mu.Lock()
		if j.state != StateQueued { // canceled (or failed) while waiting
			j.mu.Unlock()
			continue
		}
		j.state = StateRunning
		j.started = time.Now()
		timeout := j.spec.Timeout
		if timeout <= 0 {
			timeout = s.cfg.DefaultTimeout
		}
		ctx, cancel := context.WithCancelCause(s.baseCtx)
		var timeoutCancel context.CancelFunc = func() {}
		if timeout > 0 {
			ctx, timeoutCancel = context.WithTimeoutCause(ctx, timeout,
				fmt.Errorf("service: job deadline (%s) exceeded: %w", timeout, context.DeadlineExceeded))
		}
		j.cancel = cancel
		j.mu.Unlock()
		// Persist the running transition after releasing j.mu: the job
		// store fsyncs every append, and holding the job lock across
		// that write would block Status calls for the disk's latency.
		s.persist(j, StateRunning, "", false, false)

		s.metrics.Running.Add(1)
		s.run(ctx, j)
		s.metrics.Running.Add(-1)
		timeoutCancel()
		cancel(nil)
		j.mu.Lock()
		j.cancel = nil
		j.mu.Unlock()
	}
}

// finalize records a run's terminal state: done, canceled (by the user),
// or failed (retryable when killed by shutdown). The job's result must
// already be stored; finalize only transitions state, counters,
// persistence, and logs.
func (s *Service) finalize(ctx context.Context, j *job, start time.Time, err error, hit bool, key string) {
	j.mu.Lock()
	j.finished = time.Now()
	elapsed := j.finished.Sub(start)
	var (
		state        JobState
		persistState JobState
		persistMsg   string
		retryable    bool
		timings      []protoclust.StageTiming
	)
	switch {
	case err == nil:
		j.state = StateDone
		j.cacheHit = hit
		s.metrics.Done.Add(1)
		persistState = StateDone
	case errors.Is(err, errCanceledByUser),
		errors.Is(context.Cause(ctx), errCanceledByUser):
		j.state = StateCanceled
		j.errMsg = errCanceledByUser.Error()
		s.metrics.Canceled.Add(1)
		persistState, persistMsg = StateCanceled, j.errMsg
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
		// A context canceled by shutdown (not by the user or the job's
		// own deadline) leaves the job retryable.
		j.retryable = errors.Is(err, context.Canceled) && s.baseCtx.Err() != nil
		s.metrics.Failed.Add(1)
		if j.retryable {
			// Killed by shutdown, not by its own fault: persist as queued
			// so a restart reruns it instead of reporting a failure.
			persistState = StateQueued
		} else {
			persistState, persistMsg = StateFailed, j.errMsg
		}
	}
	state, retryable, timings = j.state, j.retryable, j.timings
	j.mu.Unlock()

	// The durable append and the log line run outside j.mu: the job
	// store fsyncs every record, and Status readers must not wait on
	// the disk. The state above is terminal, so nothing else persists
	// this job concurrently.
	s.persist(j, persistState, persistMsg, false, false)
	switch state {
	case StateDone:
		s.log.InfoContext(ctx, "job done", "job", j.id, "elapsed", elapsed,
			"cache_hit", hit, "key", shortKey(key), "stages", timingSummary(timings))
	case StateCanceled:
		s.log.InfoContext(ctx, "job canceled", "job", j.id, "elapsed", elapsed)
	default:
		s.log.WarnContext(ctx, "job failed", "job", j.id, "elapsed", elapsed,
			"retryable", retryable, "err", err)
	}
}

// prepare materializes the job's trace and analysis options.
func (s *Service) prepare(spec JobSpec) (*protoclust.Trace, protoclust.Options, error) {
	opts := protoclust.DefaultOptions()
	if spec.Segmenter != "" {
		opts.Segmenter = spec.Segmenter
	}
	opts.NoDeduplicate = spec.NoDeduplicate
	opts.Params.MemoryBudget = spec.MemoryBudget
	opts.Params.MatrixBackend = spec.MatrixBackend
	opts.Params.MatrixSpillDir = s.cfg.SpillDir
	if _, err := protoclust.NewSegmenter(opts.Segmenter); err != nil {
		return nil, opts, err
	}
	if spec.Proto != "" {
		tr, err := protoclust.GenerateTrace(spec.Proto, spec.N, spec.Seed)
		return tr, opts, err
	}
	filter := func(src, dst string, payload []byte) bool {
		if spec.Port == 0 {
			return true
		}
		suffix := ":" + strconv.Itoa(spec.Port)
		return strings.HasSuffix(src, suffix) || strings.HasSuffix(dst, suffix)
	}
	tr, err := protoclust.ReadPCAP(bytes.NewReader(spec.PCAP), filter)
	if err == nil && len(tr.Messages) == 0 {
		err = errors.New("service: pcap contains no usable payloads")
	}
	return tr, opts, err
}

// shortKey abbreviates a cache key for logs.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// timingSummary renders stage timings as "segment=12ms cluster=340ms".
func timingSummary(ts []protoclust.StageTiming) string {
	var b strings.Builder
	for i, t := range ts {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", t.Stage, t.Duration.Round(time.Millisecond))
	}
	return b.String()
}
