package shard

import (
	"testing"

	"protoclust/internal/canberra"
	"protoclust/internal/dissim/tilestore"
)

func TestPlanCoversGridDensely(t *testing.T) {
	g := tilestore.NewGrid(500, 64)
	tasks := Plan("j1", g, 1.5, "digest", 3)
	if len(tasks) == 0 {
		t.Fatal("no tasks planned")
	}
	next := 0
	for i, task := range tasks {
		if task.ID != i {
			t.Fatalf("task %d carries id %d", i, task.ID)
		}
		if task.TileLo != next {
			t.Fatalf("task %d starts at %d, want %d", i, task.TileLo, next)
		}
		if err := task.Validate(); err != nil {
			t.Fatalf("task %d invalid: %v", i, err)
		}
		if task.TileHi-task.TileLo > 3 {
			t.Fatalf("task %d spans %d tiles, want <= 3", i, task.TileHi-task.TileLo)
		}
		next = task.TileHi
	}
	if next != g.Tiles() {
		t.Fatalf("plan ends at tile %d, grid has %d", next, g.Tiles())
	}
}

func TestPoolCodecRoundTrip(t *testing.T) {
	segments := [][]byte{{1, 2}, {3, 4, 5}, {0xff, 0x00, 0x10, 0x20}}
	payload := EncodePool(segments)
	got, err := DecodePool(payload)
	if err != nil {
		t.Fatalf("DecodePool: %v", err)
	}
	if len(got) != len(segments) {
		t.Fatalf("decoded %d segments, want %d", len(got), len(segments))
	}
	for i := range segments {
		if string(got[i]) != string(segments[i]) {
			t.Errorf("segment %d = %x, want %x", i, got[i], segments[i])
		}
	}
}

func TestDecodePoolRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":         {},
		"zero count":    {0, 0, 0, 0},
		"truncated":     {1, 0, 0, 0, 5, 0, 0, 0, 1, 2},
		"empty segment": {1, 0, 0, 0, 0, 0, 0, 0},
		"trailing":      append(EncodePool([][]byte{{1, 2}}), 9),
	}
	for name, payload := range cases {
		if _, err := DecodePool(payload); err == nil {
			t.Errorf("%s: DecodePool accepted malformed payload", name)
		}
	}
}

// TestTilesCodecRoundTrip round-trips shard result bytes through the
// tile codec the worker and the coordinator share.
func TestTilesCodecRoundTrip(t *testing.T) {
	data := []float32{0, 1.5, -2.25, 3e-7, 1e9}
	b := tilestore.EncodeTiles(data)
	got, err := tilestore.DecodeTiles(b, len(data))
	if err != nil {
		t.Fatalf("DecodeTiles: %v", err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Errorf("value %d = %v, want %v", i, got[i], data[i])
		}
	}
	if _, err := tilestore.DecodeTiles(b, len(data)+1); err == nil {
		t.Error("DecodeTiles accepted wrong length")
	}
}

// testViews builds deterministic kernel views without touching the
// pool machinery.
func testViews(n int) []canberra.View {
	segments := make([][]byte, n)
	for i := range segments {
		seg := make([]byte, 2+i%5)
		for j := range seg {
			seg[j] = byte(i*31 + j*7)
		}
		segments[i] = seg
	}
	return canberra.NewViews(segments)
}

func TestComputeMatchesTilestore(t *testing.T) {
	const n = 150
	views := testViews(n)
	g := tilestore.NewGrid(n, tilestore.DefaultTileSize)
	tasks := Plan("j1", g, canberra.DefaultPenalty, "d", 2)
	for _, task := range tasks {
		got, err := Compute(task, views)
		if err != nil {
			t.Fatalf("Compute(%d): %v", task.ID, err)
		}
		off := 0
		for idx := task.TileLo; idx < task.TileHi; idx++ {
			bi, bj := g.Coords(idx)
			want := tilestore.ComputeTile(views, canberra.DefaultPenalty, g.TileSize, bi, bj)
			for k, v := range want {
				if got[off+k] != v {
					t.Fatalf("shard %d tile %d element %d = %v, want %v", task.ID, idx, k, got[off+k], v)
				}
			}
			off += len(want)
		}
		if off != len(got) {
			t.Fatalf("shard %d has %d elements, consumed %d", task.ID, len(got), off)
		}
	}
}

func TestComputeValidatesInput(t *testing.T) {
	views := testViews(10)
	task := Task{Job: "j", ID: 0, TileLo: 0, TileHi: 1, N: 10, TileSize: 64, Penalty: 1}
	if _, err := Compute(task, views[:5]); err == nil {
		t.Error("Compute accepted view count mismatch")
	}
	bad := task
	bad.TileHi = 99
	if _, err := Compute(bad, views); err == nil {
		t.Error("Compute accepted out-of-grid tile range")
	}
}

func TestDigestStable(t *testing.T) {
	a := Digest([]byte("hello"))
	b := Digest([]byte("hello"))
	c := Digest([]byte("world"))
	if a != b {
		t.Error("same payload, different digests")
	}
	if a == c {
		t.Error("different payloads, same digest")
	}
	if len(a) != 64 {
		t.Errorf("digest length %d, want 64 hex chars", len(a))
	}
}

// pinnedShardDigest is the content address of the two-tile shard
// TestShardDigestPinned computes. Workers, the coordinator and the
// spill file all depend on these bytes, so they must not move.
const pinnedShardDigest = "deba7ef6450ed28f3a0561d9cc941d22d7cb1845a64b96ce128cf53e848fae35"

// TestShardDigestPinned computes tiles (0, 0) and (0, 1) of a fixed
// 100-segment pool and pins the digest of their wire bytes.
func TestShardDigestPinned(t *testing.T) {
	task := Task{Job: "pin", ID: 0, TileLo: 0, TileHi: 2, N: 100, TileSize: 64, Penalty: canberra.DefaultPenalty}
	data, err := Compute(task, testViews(task.N))
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if got := Digest(tilestore.EncodeTiles(data)); got != pinnedShardDigest {
		t.Fatalf("shard digest = %s, want %s", got, pinnedShardDigest)
	}
}
