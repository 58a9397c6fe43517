package canberra

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
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

// TestLengthBlockBatch pins the block the tile builders share: Idx is
// the block's indices stably sorted by length, Views follows it, and
// Batch computes exactly the partners past after, bit for bit equal to
// per-pair DissimViews, leaving the other entries of out untouched.
func TestLengthBlockBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	views := make([]View, 90)
	for i := range views {
		b := make([]byte, []int{2, 3, 4, 6, 9, 13, 20}[rng.Intn(7)])
		for j := range b {
			b[j] = byte(rng.Intn(256))
		}
		views[i] = NewView(b)
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
	for _, after := range []int{-1, lo - 1, lo, 33, 45, hi - 2, hi - 1} {
		out := make([]float64, hi-lo)
		for k := range out {
			out[k] = math.NaN()
		}
		blk.Batch(views[5], after, DefaultPenalty, out)
		for k, j := range blk.Idx {
			if j <= after {
				if !math.IsNaN(out[k]) {
					t.Fatalf("after %d: out[%d] (index %d) was written", after, k, j)
				}
				continue
			}
			if want := DissimViews(views[5], views[j], DefaultPenalty); math.Float64bits(out[k]) != math.Float64bits(want) {
				t.Fatalf("after %d: out[%d] (index %d) = %v, DissimViews %v", after, k, j, out[k], want)
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

// BenchmarkDissimilarityKernel measures the kernel on its two extreme
// shapes: equal length (best case, fast path) and maximal length
// mismatch (worst case, full sliding window with early abandoning).
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
	cases := []struct {
		name string
		s, t View
	}{
		{"EqualLength8", NewView(equalA), NewView(equalB)},
		{"MaxMismatch2x64", NewView(short), NewView(long)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += DissimViews(c.s, c.t, DefaultPenalty)
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

// BenchmarkDissimViewsBatch measures one row of 64 equal-length
// partners on random content, the case where abandoning saves the most,
// through the active kernel: "batch" is DissimViewsBatch (the partner
// lanes for every shape here), "perPair" the per-pair abandoning path.
func BenchmarkDissimViewsBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	randView := func(n int) View {
		v := make(View, n)
		for i := range v {
			v[i] = float64(rng.Intn(256))
		}
		return v
	}
	for _, sh := range [][2]int{{2, 4}, {3, 5}, {4, 6}, {2, 8}, {6, 3}, {4, 12}, {8, 12}, {laneMaxLen, 2}} {
		s := randView(sh[0])
		ts := make([]View, 64)
		for i := range ts {
			ts[i] = randView(sh[1])
		}
		out := make([]float64, len(ts))
		perPair := func() {
			for j, u := range ts {
				out[j] = DissimViews(s, u, DefaultPenalty)
			}
		}
		batch := func() { DissimViewsBatch(s, ts, DefaultPenalty, out) }
		for _, m := range []struct {
			name string
			fn   func()
		}{{"batch", batch}, {"perPair", perPair}} {
			b.Run(fmt.Sprintf("%dv%d/%s", sh[0], sh[1], m.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.fn()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ts)), "ns/pair")
			})
		}
	}
}

var benchSink float64
