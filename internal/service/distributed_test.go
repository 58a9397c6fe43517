package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"protoclust"
	"protoclust/internal/jobstore"
	"protoclust/internal/shard"
)

// startWorkers attaches n in-process shard workers to the coordinator
// URL and stops them at test cleanup.
func startWorkers(t *testing.T, url string, n int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	for i := 0; i < n; i++ {
		w := &shard.Worker{
			Coordinator: url,
			ID:          fmt.Sprintf("test-worker-%d", i),
			Poll:        5 * time.Millisecond,
			Log:         testLogger(),
		}
		go func() { _ = w.Run(ctx) }()
	}
}

// distSpec is the job both distributed tests run: a pool of 335 unique
// segments, a 6×6 block grid, 21 tiles.
var distSpec = JobSpec{Proto: "ntp", N: 60, Seed: 1, Segmenter: protoclust.SegmenterTruth}

func TestDistributedRunMatchesLocal(t *testing.T) {
	dist := newTestService(t, Config{
		Workers:       1,
		Distributed:   true,
		TilesPerShard: 2,
	})
	srv := httptest.NewServer(dist.Handler())
	t.Cleanup(srv.Close)
	startWorkers(t, srv.URL, 2)

	id, err := dist.Submit(distSpec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := pollTerminal(t, dist, id, 60*time.Second)
	if st.State != StateDone {
		t.Fatalf("distributed job state = %q (err %q), want done", st.State, st.Error)
	}
	distReport, err := dist.Result(id)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}

	local := newTestService(t, Config{Workers: 1})
	lid, err := local.Submit(distSpec)
	if err != nil {
		t.Fatalf("local Submit: %v", err)
	}
	if st := pollTerminal(t, local, lid, 60*time.Second); st.State != StateDone {
		t.Fatalf("local job state = %q (err %q)", st.State, st.Error)
	}
	localReport, err := local.Result(lid)
	if err != nil {
		t.Fatalf("local Result: %v", err)
	}

	dj, err := json.Marshal(distReport)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	lj, err := json.Marshal(localReport)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !bytes.Equal(dj, lj) {
		t.Errorf("distributed report differs from local:\ndistributed: %s\nlocal:       %s", dj, lj)
	}

	m := dist.Metrics()
	if m.ShardsCompleted.Load() == 0 {
		t.Error("no shards completed through the queue")
	}
	if m.LeasesGranted.Load() < m.ShardsCompleted.Load() {
		t.Errorf("leases granted (%d) < shards completed (%d)",
			m.LeasesGranted.Load(), m.ShardsCompleted.Load())
	}
}

func TestDistributedSurvivesAbandonedLeases(t *testing.T) {
	dist := newTestService(t, Config{
		Workers:       1,
		Distributed:   true,
		TilesPerShard: 2,
		LeaseTTL:      200 * time.Millisecond,
	})
	srv := httptest.NewServer(dist.Handler())
	t.Cleanup(srv.Close)

	id, err := dist.Submit(distSpec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// A "worker" that leases shards and dies without completing them:
	// its leases must expire and requeue for the real workers.
	deadline := time.Now().Add(5 * time.Second)
	stolen := 0
	for stolen < 3 && time.Now().Before(deadline) {
		if _, ok := dist.dist.queue.Lease("doomed-worker"); ok {
			stolen++
			continue
		}
		time.Sleep(5 * time.Millisecond)
	}
	if stolen == 0 {
		t.Fatal("dead worker never got a lease; job was not sharded")
	}

	startWorkers(t, srv.URL, 2)
	st := pollTerminal(t, dist, id, 60*time.Second)
	if st.State != StateDone {
		t.Fatalf("job state = %q (err %q), want done despite abandoned leases", st.State, st.Error)
	}
	if exp := dist.dist.queue.Expirations(); exp == 0 {
		t.Error("no lease expirations recorded; the abandoned leases were never requeued")
	}
}

func TestShardEndpointsValidation(t *testing.T) {
	dist := newTestService(t, Config{Workers: 1, Distributed: true})
	srv := httptest.NewServer(dist.Handler())
	t.Cleanup(srv.Close)
	client := srv.Client()

	// Empty queue leases 204.
	resp, err := client.Get(srv.URL + shard.LeasePath)
	if err != nil {
		t.Fatalf("lease: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("idle lease status = %d, want 204", resp.StatusCode)
	}

	// Unknown job: pool 404, result 404.
	resp, err = client.Get(srv.URL + "/v1/shards/nope/pool")
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown pool status = %d, want 404", resp.StatusCode)
	}
	resp, err = client.Post(srv.URL+"/v1/shards/nope/0/result", "application/octet-stream", bytes.NewReader([]byte{1}))
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown result status = %d, want 404", resp.StatusCode)
	}

	// Declared digest disagreeing with the body is rejected before any
	// queue state changes — but only for jobs that exist, so fabricate
	// one by submitting and waiting until it is sharded.
	id, err := dist.Submit(distSpec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for dist.dist.lookup(id) == nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if dist.dist.lookup(id) == nil {
		t.Fatal("job never sharded")
	}
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost,
		srv.URL+"/v1/shards/"+id+"/0/result", bytes.NewReader([]byte{1, 2, 3, 4}))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	req.Header.Set(shard.HeaderDigest, "not-the-digest")
	resp, err = client.Do(req)
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("mismatched digest status = %d, want 400", resp.StatusCode)
	}
	// Unblock the pending job so shutdown is quick.
	if err := dist.Cancel(id); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	pollTerminal(t, dist, id, 10*time.Second)
}

func TestJobstoreRecoveryAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	store1, err := jobstore.Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	// Service 1 is distributed with no workers attached: the first job
	// starts running and blocks waiting for shards, the second stays
	// queued — a deterministic "daemon killed with work in flight".
	svc1 := New(Config{
		Workers:     1,
		JobStore:    store1,
		Distributed: true,
		Logger:      testLogger(),
	})
	idA, err := svc1.Submit(distSpec)
	if err != nil {
		t.Fatalf("Submit A: %v", err)
	}
	idB, err := svc1.Submit(JobSpec{Proto: "dns", N: 40, Seed: 2, Segmenter: protoclust.SegmenterTruth})
	if err != nil {
		t.Fatalf("Submit B: %v", err)
	}
	pollUntil(t, svc1, idA, 10*time.Second, func(st JobStatus) bool { return st.State == StateRunning })

	// Kill the daemon: an expired grace period force-cancels job A.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := svc1.Shutdown(expired); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := store1.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}

	// Restart: a plain local service over the same store must recover
	// both jobs under their original IDs and run them to completion.
	store2, err := jobstore.Open(path)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	t.Cleanup(func() { _ = store2.Close() })
	svc2 := newTestService(t, Config{Workers: 2, JobStore: store2})
	if got := svc2.Metrics().Recovered.Load(); got != 2 {
		t.Errorf("Recovered = %d, want 2", got)
	}
	for _, id := range []string{idA, idB} {
		st := pollTerminal(t, svc2, id, 60*time.Second)
		if st.State != StateDone {
			t.Errorf("recovered job %s state = %q (err %q), want done", id, st.State, st.Error)
		}
	}
	// The ID counter moved past the recovered jobs.
	idC, err := svc2.Submit(JobSpec{Proto: "ntp", N: 10, Seed: 3, Segmenter: protoclust.SegmenterTruth})
	if err != nil {
		t.Fatalf("Submit C: %v", err)
	}
	if idC == idA || idC == idB {
		t.Errorf("new job reused recovered ID %s", idC)
	}
	pollTerminal(t, svc2, idC, 60*time.Second)
}

func TestShardMetricsExposition(t *testing.T) {
	dist := newTestService(t, Config{Workers: 1, Distributed: true, TilesPerShard: 2})
	srv := httptest.NewServer(dist.Handler())
	t.Cleanup(srv.Close)
	startWorkers(t, srv.URL, 1)
	id, err := dist.Submit(distSpec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	pollTerminal(t, dist, id, 60*time.Second)

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	body := buf.String()
	for _, want := range []string{
		"protoclustd_shard_queue_depth",
		"protoclustd_shard_leases_active",
		"protoclustd_shard_lease_expirations_total",
		"protoclustd_shard_leases_granted_total",
		"protoclustd_shards_completed_total",
		"protoclustd_jobs_recovered_total",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("metrics exposition missing %s:\n%s", want, body)
		}
	}
}

// TestJobstoreRecoversSweepAndFormatJobs replays a queued sweep job and
// a queued format job from the job store: each must come back under its
// original ID as the same kind, run to done, and serve a result
// byte-identical to a fresh submission of the same spec.
func TestJobstoreRecoversSweepAndFormatJobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	store1, err := jobstore.Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// A distributed service with no workers keeps its single worker
	// blocked on the first job, so the next two stay queued.
	svc1 := New(Config{Workers: 1, JobStore: store1, Distributed: true, Logger: testLogger()})
	blocker, err := svc1.Submit(distSpec)
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	sweepSpec := JobSpec{Proto: "ntp", N: 30, Seed: 1, Sweep: &SweepRequest{
		Segmenters: []string{protoclust.SegmenterTruth},
		Ks:         []int{0, 2},
	}}
	formatSpec := JobSpec{Proto: "ntp", N: 40, Seed: 2, Segmenter: protoclust.SegmenterTruth,
		Format: &FormatRequest{TrainProto: "ntp", TrainN: 40, TrainSeed: 1}}
	idSweep, err := svc1.Submit(sweepSpec)
	if err != nil {
		t.Fatalf("Submit sweep: %v", err)
	}
	idFormat, err := svc1.Submit(formatSpec)
	if err != nil {
		t.Fatalf("Submit format: %v", err)
	}
	pollUntil(t, svc1, blocker, 10*time.Second, func(st JobStatus) bool { return st.State == StateRunning })
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := svc1.Shutdown(expired); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := store1.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}

	store2, err := jobstore.Open(path)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	t.Cleanup(func() { _ = store2.Close() })
	svc2 := newTestService(t, Config{Workers: 2, JobStore: store2})
	if got := svc2.Metrics().Recovered.Load(); got != 3 {
		t.Errorf("Recovered = %d, want 3", got)
	}
	fresh := newTestService(t, Config{Workers: 2})
	resultJSON := func(s *Service, id string, sweepJob bool) []byte {
		t.Helper()
		if st := pollTerminal(t, s, id, 60*time.Second); st.State != StateDone {
			t.Fatalf("job %s state = %q (err %q), want done", id, st.State, st.Error)
		}
		var (
			v   any
			err error
		)
		if sweepJob {
			v, err = s.SweepResult(id)
		} else {
			v, err = s.FormatResult(id)
		}
		if err != nil {
			t.Fatalf("result of %s: %v", id, err)
		}
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal result of %s: %v", id, err)
		}
		return b
	}
	for _, tc := range []struct {
		name  string
		id    string
		spec  JobSpec
		sweep bool
	}{
		{"sweep", idSweep, sweepSpec, true},
		{"format", idFormat, formatSpec, false},
	} {
		freshID, err := fresh.Submit(tc.spec)
		if err != nil {
			t.Fatalf("fresh %s submit: %v", tc.name, err)
		}
		if got, want := resultJSON(svc2, tc.id, tc.sweep), resultJSON(fresh, freshID, tc.sweep); !bytes.Equal(got, want) {
			t.Errorf("recovered %s job %s result differs from a fresh submission", tc.name, tc.id)
		}
	}
}
