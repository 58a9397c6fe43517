package canberra

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"unsafe"
)

func TestNewView(t *testing.T) {
	v := NewView([]byte{0, 1, 255})
	if len(v) != 3 || v[0] != 0 || v[1] != 1 || v[2] != 255 {
		t.Errorf("NewView = %v", v)
	}
	if NewView(nil) == nil {
		// A nil input yields an empty, non-nil view; callers only ever
		// index it, so either would do — pin the current contract.
		t.Log("NewView(nil) is nil")
	}
}

// TestNewViews checks that the batch conversion equals NewView per
// segment, lays the views out back to back in segment order, and caps
// each view at its length so no view can grow into its neighbour.
func TestNewViews(t *testing.T) {
	segments := [][]byte{{0, 1}, {}, {255, 7, 9}, {42}}
	views := NewViews(segments)
	if len(views) != len(segments) {
		t.Fatalf("NewViews returned %d views, want %d", len(views), len(segments))
	}
	for i, s := range segments {
		want := NewView(s)
		if len(views[i]) != len(want) || cap(views[i]) != len(want) {
			t.Fatalf("view %d has len %d cap %d, want %d", i, len(views[i]), cap(views[i]), len(want))
		}
		for j := range want {
			if views[i][j] != want[j] {
				t.Fatalf("view %d[%d] = %v, want %v", i, j, views[i][j], want[j])
			}
		}
	}
	// Offsets from the first view's start, in float64s: 2 for view 2
	// (view 1 is empty) and 2+3 for view 3.
	base := uintptr(unsafe.Pointer(&views[0][0]))
	for _, c := range []struct{ i, off uintptr }{{2, 2}, {3, 5}} {
		i, off := c.i, c.off
		if got := uintptr(unsafe.Pointer(&views[i][0])) - base; got != off*8 {
			t.Fatalf("view %d starts %d bytes after view 0, want %d", i, got, off*8)
		}
	}
}

func TestDissimViewsEmpty(t *testing.T) {
	if d := DissimViews(nil, NewView([]byte{1, 2}), DefaultPenalty); d != 0 {
		t.Errorf("empty view dissimilarity = %v, want 0", d)
	}
	if d := DissimViews(NewView([]byte{1, 2}), nil, DefaultPenalty); d != 0 {
		t.Errorf("empty view dissimilarity = %v, want 0", d)
	}
}

// TestDissimViewsMatchesReference sweeps random segment pairs and
// penalties and demands numerical equivalence with the reference
// implementation, the kernel's correctness oracle.
func TestDissimViewsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	penalties := []float64{0, 0.1, DefaultPenalty, 0.5, 1, 2, -1}
	for trial := 0; trial < 5000; trial++ {
		s := make([]byte, 1+rng.Intn(24))
		u := make([]byte, 1+rng.Intn(24))
		for i := range s {
			s[i] = byte(rng.Intn(256))
		}
		for i := range u {
			u[i] = byte(rng.Intn(256))
		}
		// Low-entropy variants exercise the zero-term skip and the
		// dmin = 0 break.
		if trial%7 == 0 {
			for i := range s {
				s[i] &= 1
			}
			for i := range u {
				u[i] &= 1
			}
		}
		pf := penalties[trial%len(penalties)]
		want, err := DissimilarityPenalty(s, u, pf)
		if err != nil {
			t.Fatal(err)
		}
		got := DissimViews(NewView(s), NewView(u), pf)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("DissimViews(%x, %x, %v) = %v, reference = %v", s, u, pf, got, want)
		}
	}
}

// TestLengthBlockRow pins the block the tile builders share: Idx is
// the block's indices stably sorted by length, Views follows it, each
// run's interleaved copy holds its partners element-major in groups of
// four with a zero-padded last group, and Row stores exactly the
// partners past after, at their pool positions, bit for bit equal to
// float32(DissimViews) on the scalar kernel, on every kernel, leaving
// the other entries of out untouched. After a random block, each kernel
// runs blocks aimed at the edges of the partner-lane shapes.
func TestLengthBlockRow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	randView := func(n int) View {
		v := make(View, n)
		for i := range v {
			v[i] = float64(rng.Intn(256))
		}
		return v
	}
	views := make([]View, 90)
	for i := range views {
		views[i] = randView([]int{2, 3, 4, 6, 9, 13, 20}[rng.Intn(7)])
	}
	const lo, hi = 20, 70
	blk := NewLengthBlock(views, lo, hi)
	if len(blk.Idx) != hi-lo || len(blk.Views) != hi-lo {
		t.Fatalf("block holds %d indices and %d views, want %d", len(blk.Idx), len(blk.Views), hi-lo)
	}
	for k, j := range blk.Idx {
		if &blk.Views[k][0] != &views[j][0] {
			t.Fatalf("Views[%d] is not the view of Idx[%d] = %d", k, k, j)
		}
		if k > 0 {
			p := blk.Idx[k-1]
			if len(views[p]) > len(views[j]) || (len(views[p]) == len(views[j]) && p > j) {
				t.Fatalf("Idx[%d..%d] = %d, %d is not a stable sort by length", k-1, k, p, j)
			}
		}
	}
	total := 0
	for _, run := range blk.runs {
		total += len(run.idx)
		if len(run.lanes) != (len(run.idx)+3)/4*4*run.l {
			t.Fatalf("run of length %d with %d partners has %d interleaved values", run.l, len(run.idx), len(run.lanes))
		}
		for p := range (len(run.idx) + 3) / 4 * 4 {
			for e := range run.l {
				want := 0.0
				if p < len(run.idx) {
					want = views[run.idx[p]][e]
				}
				if got := run.lanes[(p/4*run.l+e)*4+p%4]; got != want {
					t.Fatalf("run of length %d: partner %d element %d = %v, want %v", run.l, p, e, got, want)
				}
			}
		}
	}
	if total != hi-lo {
		t.Fatalf("runs hold %d partners, want %d", total, hi-lo)
	}

	run := func(n, l int) []View {
		ts := make([]View, n)
		for i := range ts {
			ts[i] = randView(l)
		}
		return ts
	}
	// A length-2 view and a run of partners holding it at every offset
	// plus one that does not: exactly-zero windows, which per-pair scans
	// return early on.
	zs := View{7, 9}
	var zeroWindow []View
	for off := 0; off < 5; off++ {
		u := randView(6)
		u[off], u[off+1] = 7, 9
		zeroWindow = append(zeroWindow, u)
	}
	zeroWindow = append(zeroWindow, randView(6))
	edges := []struct {
		name string
		s    View
		ts   []View
		pf   float64
	}{
		{"zero window", zs, zeroWindow, DefaultPenalty},
		{"zero window, s longer", View{1, 7, 9, 4, 4, 4},
			[]View{{7, 9}, {4, 4}, {8, 8}, {9, 4}, {1, 7}, {2, 2}}, DefaultPenalty},
		{"pf > 1 saturates", randView(2), run(6, 7), 3},
		{"pf > 1 below saturation", randView(3), run(6, 4), 1.2},
		{"pf > 1 saturates, s longer", randView(9), run(5, 3), 2},
		{"pf < 0", randView(3), append(run(5, 8), run(5, 2)...), -0.5},
		{"at the bound", randView(2), run(7, laneMaxLen), DefaultPenalty},
		{"at the bound, s longer", randView(laneMaxLen), run(7, laneMaxLen-1), DefaultPenalty},
		{"one past the bound", randView(3), run(7, laneMaxLen+1), DefaultPenalty},
		{"one past the bound, s longer", randView(laneMaxLen + 1), run(7, 4), DefaultPenalty},
		{"empty run between runs", randView(4),
			append(append(run(5, 6), run(3, 0)...), run(5, 2)...), DefaultPenalty},
		{"empty s", nil, append(run(3, 3), run(2, 4)...), DefaultPenalty},
	}
	for _, k := range hostKernels(t) {
		t.Run(k.name, func(t *testing.T) {
			for _, s := range []View{views[5], views[0], views[1], views[40]} {
				for _, after := range []int{-1, lo - 1, lo, 33, 45, hi - 2, hi - 1} {
					checkRow(t, k, &blk, views, s, after, DefaultPenalty)
				}
			}
			for _, e := range edges {
				t.Run(e.name, func(t *testing.T) {
					eb := NewLengthBlock(e.ts, 0, len(e.ts))
					for after := -1; after < len(e.ts); after++ {
						checkRow(t, k, &eb, e.ts, e.s, after, e.pf)
					}
				})
			}
		})
	}
}

// checkRow runs one Row of blk, a block over views, on kernel k and
// checks every entry of out: the partners past after against
// float32(DissimViews) on the scalar kernel, bit for bit, and the
// others unwritten.
func checkRow(t *testing.T, k *kernelImpl, blk *LengthBlock, views []View, s View, after int, pf float64) {
	t.Helper()
	out := make([]float32, len(blk.Idx))
	for o := range out {
		out[o] = float32(math.NaN())
	}
	blk.row(k, s, after, pf, out)
	for o, got := range out {
		j := blk.lo + o
		if j <= after {
			if !math.IsNaN(float64(got)) {
				t.Fatalf("kernel %s, after %d: out[%d] was written", k.name, after, o)
			}
			continue
		}
		want := float32(dissimViews(scalarKernel, s, views[j], pf))
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("kernel %s, after %d, |s| = %d, pf = %v: index %d (len %d) = %v, DissimViews %v",
				k.name, after, len(s), pf, j, len(views[j]), got, want)
		}
	}
}

// TestBlendRoundsEachStep checks blend against a reference that rounds
// every operation to 53 bits on its own, in blend's order: c = (lt−ls)·pf,
// fls·dmin, c·(1+dmin), their sum, the division by flt, then the clamp.
// A compiler that fused a product into the following add (arm64's
// FMADDD) would miss some of these bits, and so would the AVX2 run
// entry if it did the steps in another order.
func TestBlendRoundsEachStep(t *testing.T) {
	f := func(x float64) *big.Float { return big.NewFloat(x) }
	op := func() *big.Float { return new(big.Float).SetPrec(53).SetMode(big.ToNearestEven) }
	var dmins []float64
	for i := 0; i <= 256; i++ {
		dmins = append(dmins, float64(i)/128, 2*float64(i)/257, math.Nextafter(float64(i)/128, 3))
	}
	for _, pf := range []float64{0, 0.1, DefaultPenalty, 0.5, 0.7, 1, 1.3} {
		for ls := 1; ls <= laneMaxLen; ls++ {
			for lt := ls + 1; lt <= laneMaxLen; lt++ {
				fls, flt := float64(ls), float64(lt)
				c := op().Mul(op().Sub(f(flt), f(fls)), f(pf))
				cf, _ := c.Float64()
				for _, dmin := range dmins {
					a := op().Mul(f(fls), f(dmin))
					p := op().Mul(c, op().Add(f(1), f(dmin)))
					want, _ := op().Quo(op().Add(a, p), f(flt)).Float64()
					if want > 1 {
						want = 1
					}
					if got := blend(fls, flt, dmin, (flt-fls)*pf); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("blend(%d, %d, %v, c=%v) = %v, step-by-step %v", ls, lt, dmin, cf, got, want)
					}
				}
			}
		}
	}
}

func TestDissimViewsContract(t *testing.T) {
	s := NewView([]byte{5, 6, 7})
	u := NewView([]byte{1, 2, 5, 6, 7, 9})
	if d := DissimViews(s, s, DefaultPenalty); d != 0 {
		t.Errorf("D(s,s) = %v, want 0", d)
	}
	if a, b := DissimViews(s, u, DefaultPenalty), DissimViews(u, s, DefaultPenalty); a != b {
		t.Errorf("asymmetric: %v vs %v", a, b)
	}
	want := DefaultPenalty * 3.0 / 6.0
	if d := DissimViews(s, u, DefaultPenalty); math.Abs(d-want) > 1e-12 {
		t.Errorf("contained segment: D = %v, want %v", d, want)
	}
}

func TestDissimViewsSaturatingPenalty(t *testing.T) {
	// pf large enough that even a perfect overlap clamps to 1; the
	// kernel's offset skip must agree with the reference's clamp.
	s := []byte{9, 9}
	u := []byte{9, 9, 1, 2, 3, 4, 5, 6}
	want, err := DissimilarityPenalty(s, u, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := DissimViews(NewView(s), NewView(u), 3)
	if got != want || got != 1 {
		t.Errorf("saturating penalty: kernel %v, reference %v, want 1", got, want)
	}
}

// BenchmarkDissimilarityKernel measures the per-pair path on its two
// extreme shapes: equal length (distScalar, which every kernel shares)
// and maximal length mismatch (the full sliding window with early
// abandoning). The sliding shape runs on each host kernel, since
// minWindow is the per-pair entry that keeps its asm.
func BenchmarkDissimilarityKernel(b *testing.B) {
	equalA := make([]byte, 8)
	equalB := make([]byte, 8)
	short := make([]byte, 2)
	long := make([]byte, 64)
	for i := range equalA {
		equalA[i] = byte(i * 31)
		equalB[i] = byte(i * 17)
	}
	short[0], short[1] = 200, 100
	for i := range long {
		long[i] = byte(i * 7)
	}
	type benchCase struct {
		name string
		k    *kernelImpl
		s, t View
	}
	cases := []benchCase{{"EqualLength8", scalarKernel, NewView(equalA), NewView(equalB)}}
	for _, k := range hostKernels(b) {
		cases = append(cases, benchCase{"MaxMismatch2x64/" + k.name, k, NewView(short), NewView(long)})
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += dissimViews(c.k, c.s, c.t, DefaultPenalty)
			}
			benchSink = sink
		})
	}
}

// BenchmarkDissimilarityReference is the pre-kernel baseline on the same
// shapes, for BENCH_*.json before/after comparisons.
func BenchmarkDissimilarityReference(b *testing.B) {
	equalA := make([]byte, 8)
	equalB := make([]byte, 8)
	short := make([]byte, 2)
	long := make([]byte, 64)
	for i := range equalA {
		equalA[i] = byte(i * 31)
		equalB[i] = byte(i * 17)
	}
	short[0], short[1] = 200, 100
	for i := range long {
		long[i] = byte(i * 7)
	}
	cases := []struct {
		name string
		s, t []byte
	}{
		{"EqualLength8", equalA, equalB},
		{"MaxMismatch2x64", short, long},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink float64
			for i := 0; i < b.N; i++ {
				d, err := DissimilarityPenalty(c.s, c.t, DefaultPenalty)
				if err != nil {
					b.Fatal(err)
				}
				sink += d
			}
			benchSink = sink
		})
	}
}

// pinnedLengths is the segment length histogram, as {length, count},
// of the NEMESYS pool of a generated 1,000-message AWDL trace (5,571
// unique segments), the pool shape the pinned-eps benchmark clusters:
// 93 % of segments are 2–6 bytes.
var pinnedLengths = [][2]int{
	{2, 923}, {3, 896}, {4, 1187}, {5, 1084}, {6, 1074}, {7, 285}, {8, 48},
	{9, 14}, {10, 10}, {11, 16}, {12, 23}, {13, 5}, {15, 5}, {20, 1},
}

// BenchmarkLengthBlockRow measures LengthBlock.Row as the eager fill
// drives it, on a 256-view column block whose lengths follow
// pinnedLengths: "offDiagonal" rows take every partner, "diagonal" rows
// are the block's own and cut each run at their index, so short run
// suffixes and partly used groups show. Each kernel that serves the run
// entry runs it; ns/pair is per stored value.
func BenchmarkLengthBlockRow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var lens []int
	for _, lc := range pinnedLengths {
		for range lc[1] {
			lens = append(lens, lc[0])
		}
	}
	const block = 256
	views := make([]View, 2*block)
	for i := range views {
		v := make(View, lens[rng.Intn(len(lens))])
		for e := range v {
			v[e] = float64(rng.Intn(256))
		}
		views[i] = v
	}
	blk := NewLengthBlock(views, block, 2*block)
	out := make([]float32, block)
	for _, k := range hostKernels(b) {
		for _, c := range []struct {
			name  string
			rows  []View
			pairs int
			after func(r int) int
		}{
			{"offDiagonal", views[:block], block * block, func(int) int { return -1 }},
			{"diagonal", views[block:], block * (block - 1) / 2, func(r int) int { return block + r }},
		} {
			b.Run(k.name+"/"+c.name, func(b *testing.B) {
				for range b.N {
					for r, s := range c.rows {
						blk.row(k, s, c.after(r), DefaultPenalty, out)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.pairs), "ns/pair")
			})
		}
	}
}

var benchSink float64
