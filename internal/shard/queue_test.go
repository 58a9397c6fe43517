package shard

import (
	"errors"
	"testing"
	"time"

	"protoclust/internal/dissim/tilestore"
)

// fakeClock is a manually advanced queue clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestQueue(t *testing.T, ttl time.Duration) (*Queue, *fakeClock) {
	t.Helper()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	return NewQueue(ttl, clk.now), clk
}

func TestLeaseFIFOAndProgress(t *testing.T) {
	q, _ := newTestQueue(t, time.Minute)
	tasks := Plan("j1", tilestore.NewGrid(100, 64), 1, "d", 1) // 3 shards
	if err := q.Add("j1", tasks); err != nil {
		t.Fatalf("Add: %v", err)
	}
	for i := range tasks {
		lease, ok := q.Lease("w")
		if !ok {
			t.Fatalf("lease %d: queue empty", i)
		}
		if lease.Task.ID != i {
			t.Fatalf("lease %d granted shard %d, want FIFO order", i, lease.Task.ID)
		}
		if lease.TTL != time.Minute {
			t.Fatalf("lease TTL = %v", lease.TTL)
		}
	}
	if _, ok := q.Lease("w"); ok {
		t.Fatal("lease granted beyond pending shards")
	}
	if q.ActiveLeases() != len(tasks) {
		t.Fatalf("ActiveLeases = %d, want %d", q.ActiveLeases(), len(tasks))
	}
	for i := range tasks {
		disp, err := q.Complete("j1", i, "digest")
		if err != nil || disp != Accepted {
			t.Fatalf("Complete(%d) = %v, %v", i, disp, err)
		}
	}
	done, total, ok := q.Progress("j1")
	if !ok || done != len(tasks) || total != len(tasks) {
		t.Fatalf("Progress = %d/%d ok=%v", done, total, ok)
	}
}

func TestExpiredLeaseRequeues(t *testing.T) {
	q, clk := newTestQueue(t, 10*time.Second)
	if err := q.Add("j1", Plan("j1", tilestore.NewGrid(10, 64), 1, "d", 1)); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if _, ok := q.Lease("dead-worker"); !ok {
		t.Fatal("no initial lease")
	}
	// Before the TTL nothing requeues; after it the shard is stealable.
	clk.advance(9 * time.Second)
	if _, ok := q.Lease("w2"); ok {
		t.Fatal("shard stolen before TTL expired")
	}
	clk.advance(2 * time.Second)
	lease, ok := q.Lease("w2")
	if !ok {
		t.Fatal("expired shard not re-leased")
	}
	if lease.Task.ID != 0 {
		t.Fatalf("re-leased shard %d, want 0", lease.Task.ID)
	}
	if q.Expirations() != 1 {
		t.Fatalf("Expirations = %d, want 1", q.Expirations())
	}
	if q.ActiveLeases() != 1 {
		t.Fatalf("ActiveLeases = %d, want 1", q.ActiveLeases())
	}
}

func TestExpireNowWithoutLeaseCall(t *testing.T) {
	q, clk := newTestQueue(t, time.Second)
	if err := q.Add("j1", Plan("j1", tilestore.NewGrid(10, 64), 1, "d", 1)); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if _, ok := q.Lease("w"); !ok {
		t.Fatal("no lease")
	}
	clk.advance(2 * time.Second)
	if n := q.ExpireNow(); n != 1 {
		t.Fatalf("ExpireNow = %d, want 1", n)
	}
	if q.PendingShards() != 1 {
		t.Fatalf("PendingShards = %d, want 1", q.PendingShards())
	}
}

func TestDoubleCompleteIsIdempotent(t *testing.T) {
	q, _ := newTestQueue(t, time.Minute)
	if err := q.Add("j1", Plan("j1", tilestore.NewGrid(10, 64), 1, "d", 1)); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if _, ok := q.Lease("w"); !ok {
		t.Fatal("no lease")
	}
	if disp, err := q.Complete("j1", 0, "digest-a"); err != nil || disp != Accepted {
		t.Fatalf("first Complete = %v, %v", disp, err)
	}
	if disp, err := q.Complete("j1", 0, "digest-a"); err != nil || disp != Duplicate {
		t.Fatalf("repeat Complete = %v, %v, want Duplicate", disp, err)
	}
	if _, err := q.Complete("j1", 0, "digest-b"); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("mismatched repeat = %v, want ErrDigestMismatch", err)
	}
}

func TestCompleteAfterLeaseExpiry(t *testing.T) {
	q, clk := newTestQueue(t, time.Second)
	if err := q.Add("j1", Plan("j1", tilestore.NewGrid(10, 64), 1, "d", 1)); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if _, ok := q.Lease("slow-worker"); !ok {
		t.Fatal("no lease")
	}
	clk.advance(5 * time.Second)
	if n := q.ExpireNow(); n != 1 {
		t.Fatalf("ExpireNow = %d", n)
	}
	// The slow worker finishes anyway, after losing its lease and before
	// anyone re-leases: its result is still the shard's first and wins.
	if disp, err := q.Complete("j1", 0, "digest"); err != nil || disp != Accepted {
		t.Fatalf("late Complete = %v, %v, want Accepted", disp, err)
	}
	// The requeued pending entry must now be skipped, not re-leased.
	if _, ok := q.Lease("w2"); ok {
		t.Fatal("completed shard re-leased")
	}
}

func TestCompleteAfterReLeaseRace(t *testing.T) {
	q, clk := newTestQueue(t, time.Second)
	if err := q.Add("j1", Plan("j1", tilestore.NewGrid(10, 64), 1, "d", 1)); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if _, ok := q.Lease("w1"); !ok {
		t.Fatal("no lease")
	}
	clk.advance(2 * time.Second)
	if _, ok := q.Lease("w2"); !ok {
		t.Fatal("expired shard not re-leased")
	}
	// w1 (the original, expired holder) completes first; w2's later
	// identical completion is a duplicate. The kernel is deterministic,
	// so both carry the same digest.
	if disp, err := q.Complete("j1", 0, "digest"); err != nil || disp != Accepted {
		t.Fatalf("w1 Complete = %v, %v", disp, err)
	}
	if disp, err := q.Complete("j1", 0, "digest"); err != nil || disp != Duplicate {
		t.Fatalf("w2 Complete = %v, %v, want Duplicate", disp, err)
	}
	if q.ActiveLeases() != 0 {
		t.Fatalf("ActiveLeases = %d, want 0", q.ActiveLeases())
	}
}

func TestDropForgetsJob(t *testing.T) {
	q, _ := newTestQueue(t, time.Minute)
	if err := q.Add("j1", Plan("j1", tilestore.NewGrid(100, 64), 1, "d", 1)); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if _, ok := q.Lease("w"); !ok {
		t.Fatal("no lease")
	}
	q.Drop("j1")
	if _, ok := q.Lease("w"); ok {
		t.Fatal("dropped job still leasing")
	}
	if _, err := q.Complete("j1", 0, "d"); !errors.Is(err, ErrUnknownShard) {
		t.Fatalf("Complete after Drop = %v, want ErrUnknownShard", err)
	}
	if q.ActiveLeases() != 0 {
		t.Fatalf("ActiveLeases = %d after Drop", q.ActiveLeases())
	}
	if q.PendingShards() != 0 {
		t.Fatalf("PendingShards = %d after Drop", q.PendingShards())
	}
}

func TestAddRejectsDuplicateJobAndSparseIDs(t *testing.T) {
	q, _ := newTestQueue(t, time.Minute)
	tasks := Plan("j1", tilestore.NewGrid(10, 64), 1, "d", 1)
	if err := q.Add("j1", tasks); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := q.Add("j1", tasks); err == nil {
		t.Error("Add accepted duplicate job")
	}
	sparse := Plan("j2", tilestore.NewGrid(100, 64), 1, "d", 1)
	sparse[1].ID = 7
	if err := q.Add("j2", sparse); err == nil {
		t.Error("Add accepted sparse shard IDs")
	}
	if err := q.Add("j3", nil); err == nil {
		t.Error("Add accepted empty task list")
	}
}

func TestSnapshotSorted(t *testing.T) {
	q, _ := newTestQueue(t, time.Minute)
	for _, job := range []string{"j2", "j1", "j3"} {
		if err := q.Add(job, Plan(job, tilestore.NewGrid(10, 64), 1, "d", 1)); err != nil {
			t.Fatalf("Add(%s): %v", job, err)
		}
	}
	snap := q.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("Snapshot has %d jobs", len(snap))
	}
	for i, want := range []string{"j1", "j2", "j3"} {
		if snap[i].Job != want {
			t.Fatalf("Snapshot[%d] = %s, want %s", i, snap[i].Job, want)
		}
		if snap[i].Total != 1 || snap[i].Done != 0 {
			t.Fatalf("Snapshot[%d] progress %d/%d", i, snap[i].Done, snap[i].Total)
		}
	}
}
