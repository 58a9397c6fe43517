package tilestore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"protoclust/internal/canberra"
	"protoclust/internal/dbscan"
)

// testViews builds n deterministic non-empty kernel views.
func testViews(t testing.TB, n int, seed int64) []canberra.View {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	lens := []int{2, 3, 4, 6, 8, 12}
	views := make([]canberra.View, n)
	for i := range views {
		b := make([]byte, lens[rng.Intn(len(lens))])
		for j := range b {
			b[j] = byte(rng.Intn(256))
		}
		views[i] = canberra.NewView(b)
	}
	return views
}

// oracle computes the expected quantized distance straight through the
// kernel, bypassing the store.
func oracle(views []canberra.View, penalty float64, i, j int) float32 {
	if i == j {
		return 0
	}
	return dbscan.Quantize(canberra.DissimViews(views[i], views[j], penalty))
}

func newStore(t *testing.T, views []canberra.View, cfg Config) *Store {
	t.Helper()
	s, err := New(context.Background(), views, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

// TestComputeTileMatchesPerPair checks every tile of a grid with a
// short last block, diagonal and off-diagonal, against per-pair kernel
// calls: the in-tile length order must put each value at its pool
// position, and diagonal tiles must hold both mirrored halves. The
// second set of views cycles through three lengths, so the runs of a
// 64-view block hold 22, 21 and 21 partners, each spread over the whole
// block in pool order: none is a multiple of four, and every diagonal
// row from a run's 20th partner up to its last cuts the run inside its
// last, zero-padded group. A padded lane stored there would overwrite a
// mirrored value.
func TestComputeTileMatchesPerPair(t *testing.T) {
	const n, ts = 150, DefaultTileSize
	cyclic := make([]canberra.View, n)
	for i := range cyclic {
		for range []int{2, 5, 3}[i%3] {
			cyclic[i] = append(cyclic[i], float64((i*37+len(cyclic[i])*11)%256))
		}
	}
	nb := (n + ts - 1) / ts
	for _, views := range [][]canberra.View{testViews(t, n, 5), cyclic} {
		for bi := 0; bi < nb; bi++ {
			for bj := bi; bj < nb; bj++ {
				data := ComputeTile(views, canberra.DefaultPenalty, ts, bi, bj)
				r, c := min(ts, n-bi*ts), min(ts, n-bj*ts)
				if len(data) != r*c {
					t.Fatalf("tile (%d,%d): %d values, want %d", bi, bj, len(data), r*c)
				}
				for a := 0; a < r; a++ {
					for b := 0; b < c; b++ {
						i, j := bi*ts+a, bj*ts+b
						want := oracle(views, canberra.DefaultPenalty, min(i, j), max(i, j))
						if got := data[a*c+b]; math.Float32bits(got) != math.Float32bits(want) {
							t.Fatalf("tile (%d,%d) cell (%d,%d): %v, per pair %v", bi, bj, a, b, got, want)
						}
					}
				}
			}
		}
	}
}

// BenchmarkComputeTile builds every tile of the grid on one goroutine,
// as a tiled pass or a shard worker does.
func BenchmarkComputeTile(b *testing.B) {
	for _, n := range []int{320, 1000} {
		views := testViews(b, n, 3)
		nb := (n + DefaultTileSize - 1) / DefaultTileSize
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for range b.N {
				for bi := 0; bi < nb; bi++ {
					for bj := bi; bj < nb; bj++ {
						ComputeTile(views, canberra.DefaultPenalty, DefaultTileSize, bi, bj)
					}
				}
			}
		})
	}
}

func TestGridIndexCoordsRoundTrip(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 200, 513} {
		g := NewGrid(n, 64)
		idx := 0
		for bi := 0; bi < g.NB; bi++ {
			for bj := bi; bj < g.NB; bj++ {
				if got := g.Index(bi, bj); got != idx {
					t.Fatalf("n=%d: Index(%d, %d) = %d, want %d", n, bi, bj, got, idx)
				}
				ci, cj := g.Coords(idx)
				if ci != bi || cj != bj {
					t.Fatalf("n=%d: Coords(%d) = (%d, %d), want (%d, %d)", n, idx, ci, cj, bi, bj)
				}
				idx++
			}
		}
		if g.Tiles() != idx {
			t.Fatalf("n=%d: Tiles() = %d, want %d", n, g.Tiles(), idx)
		}
	}
}

func TestGridTileAndRangeLen(t *testing.T) {
	g := NewGrid(100, 64) // blocks of 64 and 36
	if got := g.TileLen(g.Index(0, 0)); got != 64*64 {
		t.Errorf("TileLen(0,0) = %d, want %d", got, 64*64)
	}
	if got := g.TileLen(g.Index(0, 1)); got != 64*36 {
		t.Errorf("TileLen(0,1) = %d, want %d", got, 64*36)
	}
	if got := g.TileLen(g.Index(1, 1)); got != 36*36 {
		t.Errorf("TileLen(1,1) = %d, want %d", got, 36*36)
	}
	want := 64*64 + 64*36 + 36*36
	if got := g.RangeLen(0, g.Tiles()); got != want {
		t.Errorf("RangeLen(all) = %d, want %d", got, want)
	}
}

func TestStoreValuesAndSymmetry(t *testing.T) {
	views := testViews(t, 70, 5)
	s := newStore(t, views, Config{TileSize: 16, Penalty: canberra.DefaultPenalty})
	for i := 0; i < 70; i++ {
		for j := 0; j < 70; j++ {
			want := float64(oracle(views, canberra.DefaultPenalty, i, j))
			if got := s.Dist(i, j); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Dist(%d,%d) = %v, want %v", i, j, got, want)
			}
			if s.Dist(i, j) != s.Dist(j, i) {
				t.Fatalf("asymmetry at (%d,%d)", i, j)
			}
		}
	}
	if err := s.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
}

// TestEvictionUnderTinyBudget forces a budget of exactly one tile slot:
// every cross-tile access must evict, yet values stay correct because
// evicted tiles are recomputed on demand.
func TestEvictionUnderTinyBudget(t *testing.T) {
	const n, ts = 100, 16
	views := testViews(t, n, 9)
	s := newStore(t, views, Config{TileSize: ts, BudgetBytes: 1, Penalty: canberra.DefaultPenalty})

	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i += 7 {
			for j := 0; j < n; j += 11 {
				want := float64(oracle(views, canberra.DefaultPenalty, i, j))
				if got := s.Dist(i, j); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("pass %d: Dist(%d,%d) = %v, want %v", pass, i, j, got, want)
				}
			}
		}
	}

	st := s.Stats()
	if st.Evicted == 0 {
		t.Fatalf("Stats.Evicted = 0 under a one-slot budget; stats = %+v", st)
	}
	// No spill dir: evicted tiles must be recomputed, never reloaded.
	if st.Reloads != 0 || st.Spills != 0 {
		t.Fatalf("spill counters non-zero without a spill dir: %+v", st)
	}
	if st.Computed <= int64(1) {
		t.Fatalf("Stats.Computed = %d, want > 1 (recomputation after eviction)", st.Computed)
	}
	if got := s.ResidentBytes(); got > int64(ts)*int64(ts)*4 {
		t.Fatalf("ResidentBytes = %d exceeds the one-slot clamp", got)
	}
}

// TestSpillRoundTrip enables the disk spill and walks the matrix twice:
// the second pass must reload evicted tiles from disk bit-for-bit
// instead of recomputing them.
func TestSpillRoundTrip(t *testing.T) {
	const n, ts = 120, 16
	views := testViews(t, n, 13)
	s := newStore(t, views, Config{
		TileSize:    ts,
		BudgetBytes: 1, // clamps to one slot → constant eviction
		SpillDir:    t.TempDir(),
		Penalty:     canberra.DefaultPenalty,
	})

	// First pass populates and spills.
	for i := 0; i < n; i++ {
		s.StreamSuffix(i, func(lo int, vals []float32) {})
	}
	first := s.Stats()
	if first.Spills == 0 {
		t.Fatalf("no tiles spilled on the first pass: %+v", first)
	}

	// Second pass: verify values; reloads must occur and computation
	// must not restart from scratch.
	for i := 0; i < n; i++ {
		next := i + 1
		s.StreamSuffix(i, func(lo int, vals []float32) {
			if lo != next {
				t.Fatalf("StreamSuffix(%d) span at %d, want %d", i, lo, next)
			}
			for o, d32 := range vals {
				j := lo + o
				if w := oracle(views, canberra.DefaultPenalty, i, j); math.Float32bits(d32) != math.Float32bits(w) {
					t.Fatalf("reloaded Dist(%d,%d) = %v, want %v", i, j, d32, w)
				}
			}
			next = lo + len(vals)
		})
		if next != n {
			t.Fatalf("StreamSuffix(%d) covered up to %d, want %d", i, next, n)
		}
	}
	second := s.Stats()
	if second.Reloads == 0 {
		t.Fatalf("no tiles reloaded from spill: %+v", second)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
}

// tileRef reads the matrix from ComputeTile directly: ref(i, j) is the
// value tile (i/ts, j/ts) of the upper triangle holds for the pair.
func tileRef(views []canberra.View, ts int) func(i, j int) float32 {
	tiles := map[[2]int][]float32{}
	return func(i, j int) float32 {
		if i > j {
			i, j = j, i
		}
		bi, bj := i/ts, j/ts
		data, ok := tiles[[2]int{bi, bj}]
		if !ok {
			data = ComputeTile(views, canberra.DefaultPenalty, ts, bi, bj)
			tiles[[2]int{bi, bj}] = data
		}
		return data[(i-bi*ts)*min(ts, len(views)-bj*ts)+j-bj*ts]
	}
}

// checkAgainstTiles walks every row suffix of s through StreamSuffix
// and every pair of the full square through Dist, and demands ref's
// bits for each.
func checkAgainstTiles(t *testing.T, s *Store, ref func(i, j int) float32) {
	t.Helper()
	n := s.Len()
	for i := 0; i < n; i++ {
		s.StreamSuffix(i, func(lo int, vals []float32) {
			for o, d := range vals {
				if w := ref(i, lo+o); math.Float32bits(d) != math.Float32bits(w) {
					t.Fatalf("StreamSuffix(%d)[%d] = %v, ComputeTile has %v", i, lo+o, d, w)
				}
			}
		})
		for j := 0; j < n; j++ {
			if got, w := s.Dist(i, j), float64(ref(i, j)); math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("Dist(%d,%d) = %v, ComputeTile has %v", i, j, got, w)
			}
		}
	}
}

// TestSpillShortReloadRecomputes truncates the spill file under a
// one-tile budget once every tile is spilled: each later reload is
// short, and the store must recompute the tile instead of serving it.
func TestSpillShortReloadRecomputes(t *testing.T) {
	const n, ts = 90, 16
	views := testViews(t, n, 17)
	s := newStore(t, views, Config{TileSize: ts, BudgetBytes: 1, SpillDir: t.TempDir(), Penalty: canberra.DefaultPenalty})
	for i := 0; i < n; i++ {
		s.StreamSuffix(i, func(int, []float32) {})
	}
	// The walk's last tile is still resident; reading tile (0, 0) back
	// evicts and spills it, so every tile has a slot.
	s.Dist(0, 1)
	before := s.Stats()
	if tiles := int64(s.grid.Tiles()); before.Spills != tiles {
		t.Fatalf("Spills = %d, want all %d tiles spilled: %+v", before.Spills, tiles, before)
	}
	if err := s.spill.Truncate(s.slot / 2); err != nil {
		t.Fatal(err)
	}

	checkAgainstTiles(t, s, tileRef(views, ts))
	after := s.Stats()
	if after.Reloads != before.Reloads {
		t.Fatalf("Reloads went from %d to %d reading a truncated spill file", before.Reloads, after.Reloads)
	}
	if after.Computed <= before.Computed {
		t.Fatalf("Computed stayed at %d: short reloads were not recomputed", after.Computed)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
}

// TestSpillFailedWriteRecomputes closes the spill file underneath a
// store with a one-tile budget halfway through its first walk: every
// later spill write and reload fails, and the store must recompute
// evicted tiles instead of marking them spilled or serving them.
func TestSpillFailedWriteRecomputes(t *testing.T) {
	const n, ts = 90, 16
	views := testViews(t, n, 19)
	s, err := New(context.Background(), views, Config{TileSize: ts, BudgetBytes: 1, SpillDir: t.TempDir(), Penalty: canberra.DefaultPenalty})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n/2; i++ {
		s.StreamSuffix(i, func(int, []float32) {})
	}
	if err := s.spill.Close(); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if before.Spills == 0 {
		t.Fatalf("no tiles spilled before the file was closed: %+v", before)
	}

	ref := tileRef(views, ts)
	checkAgainstTiles(t, s, ref)
	checkAgainstTiles(t, s, ref)
	after := s.Stats()
	if after.Spills != before.Spills || after.Reloads != before.Reloads {
		t.Fatalf("spill traffic on a closed file: before %+v, after %+v", before, after)
	}
	if after.Computed <= before.Computed+int64(s.grid.Tiles()) {
		t.Fatalf("Computed went from %d to %d over two walks of %d tiles: evicted tiles were not recomputed",
			before.Computed, after.Computed, s.grid.Tiles())
	}
	if err := s.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if err := s.Close(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Close of the already closed spill file = %v, want os.ErrClosed", err)
	}
}

// TestCancellationStickyError cancels the store's context mid-life:
// subsequent tile computation records a sticky error wrapping the
// cancellation cause and Err reports it from then on.
func TestCancellationStickyError(t *testing.T) {
	views := testViews(t, 80, 21)
	cause := errors.New("deadline for the job")
	ctx, cancel := context.WithCancelCause(context.Background())
	s, err := New(ctx, views, Config{TileSize: 16, Penalty: canberra.DefaultPenalty})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	// Touch one tile before cancellation: values are live, Err is nil.
	if got, want := s.Dist(0, 1), float64(oracle(views, canberra.DefaultPenalty, 0, 1)); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("pre-cancel Dist(0,1) = %v, want %v", got, want)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("pre-cancel Err = %v", err)
	}

	cancel(cause)

	// Force a tile that was never computed: the store must refuse to
	// fabricate values silently — the sticky error appears.
	_ = s.Dist(0, 79)
	if err := s.Err(); !errors.Is(err, cause) {
		t.Fatalf("post-cancel Err = %v, want wrapping %v", err, cause)
	}
	// The error is sticky: it persists across further accesses.
	_ = s.Dist(5, 40)
	if err := s.Err(); !errors.Is(err, cause) {
		t.Fatalf("sticky Err lost: %v", err)
	}
}

func TestNewRejectsEmptyViews(t *testing.T) {
	if _, err := New(context.Background(), nil, Config{}); err == nil {
		t.Fatal("New(nil views) succeeded, want error")
	}
	views := []canberra.View{canberra.NewView([]byte{1, 2}), canberra.NewView(nil)}
	if _, err := New(context.Background(), views, Config{}); !errors.Is(err, canberra.ErrEmpty) {
		t.Fatalf("New with empty view err = %v, want canberra.ErrEmpty", err)
	}
}

func TestNewRejectsNaNPenalty(t *testing.T) {
	views := testViews(t, 10, 1)
	if _, err := New(context.Background(), views, Config{Penalty: math.NaN()}); !errors.Is(err, canberra.ErrBadPenalty) {
		t.Fatalf("New with NaN penalty err = %v, want canberra.ErrBadPenalty", err)
	}
}

// pinnedTileValues and pinnedTileBytes pin the tile byte format: one
// little-endian IEEE-754 float32 per value, in tile order, with signed
// zero, infinities, subnormals and NaN payloads carried bit for bit.
// The spill slots and the shard wire share it, so a change here moves
// spill bytes and shard digests.
var (
	pinnedTileValues = []float32{
		0, float32(math.Copysign(0, -1)), 1.5, -2.25,
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x00000001), // smallest subnormal
		math.Float32frombits(0x7fc00abc), // quiet NaN with a payload
		0.1,
	}
	pinnedTileBytes = []byte{
		0x00, 0x00, 0x00, 0x00,
		0x00, 0x00, 0x00, 0x80,
		0x00, 0x00, 0xc0, 0x3f,
		0x00, 0x00, 0x10, 0xc0,
		0x00, 0x00, 0x80, 0x7f,
		0x00, 0x00, 0x80, 0xff,
		0x01, 0x00, 0x00, 0x00,
		0xbc, 0x0a, 0xc0, 0x7f,
		0xcd, 0xcc, 0xcc, 0x3d,
	}
)

// TestSpillBytesPinned ingests a 3×3 tile and reads its spill slot
// back raw: the bytes must be the pinned encoding, and the reload must
// return every value with its exact bits.
func TestSpillBytesPinned(t *testing.T) {
	views := testViews(t, 3, 1)
	s := newStore(t, views, Config{TileSize: 3, BudgetBytes: 1, SpillDir: t.TempDir(), Penalty: canberra.DefaultPenalty})
	if err := s.Ingest(0, 0, pinnedTileValues); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	raw := make([]byte, len(pinnedTileBytes))
	if _, err := s.spill.ReadAt(raw, 0); err != nil {
		t.Fatalf("reading the spill slot: %v", err)
	}
	if string(raw) != string(pinnedTileBytes) {
		t.Fatalf("spill slot = % x\nwant        % x", raw, pinnedTileBytes)
	}
	got := s.acquire(0, 0)
	if s.Stats().Reloads != 1 {
		t.Fatalf("tile was not reloaded from its slot: %+v", s.Stats())
	}
	for k, v := range pinnedTileValues {
		if math.Float32bits(got[k]) != math.Float32bits(v) {
			t.Errorf("value %d reloaded as %#08x, want %#08x", k, math.Float32bits(got[k]), math.Float32bits(v))
		}
	}
}

// TestEncodeTilesPinned checks the codec itself against the pinned
// bytes, and that decoding them returns every value with its bits.
func TestEncodeTilesPinned(t *testing.T) {
	if got := EncodeTiles(pinnedTileValues); string(got) != string(pinnedTileBytes) {
		t.Fatalf("EncodeTiles = % x\nwant          % x", got, pinnedTileBytes)
	}
	got, err := DecodeTiles(pinnedTileBytes, len(pinnedTileValues))
	if err != nil {
		t.Fatalf("DecodeTiles: %v", err)
	}
	for k, v := range pinnedTileValues {
		if math.Float32bits(got[k]) != math.Float32bits(v) {
			t.Errorf("value %d decoded as %#08x, want %#08x", k, math.Float32bits(got[k]), math.Float32bits(v))
		}
	}
}

// FuzzDecodeTiles hardens the tile decoder, which reads shard results
// posted by other processes and spill slots read back from disk: any
// input and element count must return without a panic, and accepted
// bytes must re-encode to themselves.
func FuzzDecodeTiles(f *testing.F) {
	f.Add(pinnedTileBytes, len(pinnedTileValues))
	f.Add([]byte{}, 0)
	f.Add([]byte{1, 2, 3}, 1)
	f.Add([]byte{}, 1<<62) // want*4 overflows to 0
	f.Add([]byte{0, 0, 0, 0}, -1)

	f.Fuzz(func(t *testing.T, b []byte, want int) {
		data, err := DecodeTiles(b, want)
		if err != nil {
			return
		}
		if len(data) != want {
			t.Fatalf("decoded %d values, want %d", len(data), want)
		}
		if again := EncodeTiles(data); !bytes.Equal(again, b) {
			t.Fatalf("accepted bytes re-encode differently:\n got % x\nwant % x", again, b)
		}
	})
}

// TestIngestRejectsOutOfGrid checks that Ingest refuses blocks outside
// the upper-triangle grid, a negative row block included, and data of
// the wrong length, before touching the spill file.
func TestIngestRejectsOutOfGrid(t *testing.T) {
	s := newStore(t, testViews(t, 5, 1), Config{TileSize: 3, SpillDir: t.TempDir(), Penalty: canberra.DefaultPenalty})
	for _, c := range []struct{ bi, bj, n int }{{-1, 0, 9}, {1, 0, 6}, {0, 2, 9}, {0, 1, 9}} {
		if err := s.Ingest(c.bi, c.bj, make([]float32, c.n)); err == nil {
			t.Errorf("Ingest(%d, %d, %d values) accepted", c.bi, c.bj, c.n)
		}
	}
	if st := s.Stats(); st.Spills != 0 {
		t.Fatalf("rejected tiles were spilled: %+v", st)
	}
}
