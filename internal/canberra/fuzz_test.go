package canberra

import (
	"math"
	"testing"
)

// FuzzDissimilarity checks the metric's contract on arbitrary inputs:
// symmetric, bounded to [0,1], zero on identity.
func FuzzDissimilarity(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{3, 2, 1})
	f.Add([]byte{0}, []byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 255}, []byte{1})

	f.Fuzz(func(t *testing.T, a, b []byte) {
		if len(a) == 0 || len(b) == 0 {
			return
		}
		d1, err := Dissimilarity(a, b)
		if err != nil {
			t.Fatalf("Dissimilarity(%x,%x): %v", a, b, err)
		}
		d2, err := Dissimilarity(b, a)
		if err != nil {
			t.Fatal(err)
		}
		if d1 != d2 {
			t.Fatalf("asymmetric: %v vs %v", d1, d2)
		}
		if d1 < 0 || d1 > 1 {
			t.Fatalf("out of range: %v", d1)
		}
		self, err := Dissimilarity(a, a)
		if err != nil {
			t.Fatal(err)
		}
		if self != 0 {
			t.Fatalf("D(a,a) = %v", self)
		}
	})
}

// FuzzKernelDifferential compares the optimized kernel against the
// reference DissimilarityPenalty on arbitrary segment pairs and penalty
// factors: the kernel's early abandoning and fast paths must never move
// a result by more than 1e-12.
func FuzzKernelDifferential(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{3, 2, 1}, DefaultPenalty)
	f.Add([]byte{0}, []byte{0, 0, 0, 0, 0, 0, 0, 0}, 0.0)
	f.Add([]byte{255, 255}, []byte{1}, 1.0)
	f.Add([]byte{9, 9}, []byte{9, 9, 1, 2, 3, 4}, 3.0)
	f.Add([]byte{5, 6, 7}, []byte{1, 2, 5, 6, 7, 9}, -0.5)

	f.Fuzz(func(t *testing.T, a, b []byte, pf float64) {
		if len(a) == 0 || len(b) == 0 {
			return
		}
		if math.IsNaN(pf) || math.IsInf(pf, 0) {
			return
		}
		want, err := DissimilarityPenalty(a, b, pf)
		if err != nil {
			t.Fatalf("DissimilarityPenalty(%x,%x,%v): %v", a, b, pf, err)
		}
		got := DissimViews(NewView(a), NewView(b), pf)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("kernel diverges: DissimViews(%x,%x,%v) = %v, reference = %v", a, b, pf, got, want)
		}
	})
}

// FuzzKernelCross cross-checks every registered kernel against the
// scalar kernel on arbitrary segment pairs, bit for bit, per pair and
// through LengthBlock.Row.
func FuzzKernelCross(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{3, 2, 1}, DefaultPenalty)
	f.Add([]byte{0}, []byte{0, 0, 0, 0, 0, 0, 0, 0}, 0.0)
	f.Add([]byte{255, 255}, []byte{1}, 1.0)
	f.Add([]byte{9, 9, 9, 9, 9}, []byte{9, 9, 1, 2, 3, 4, 9, 9, 9}, 3.0)
	f.Add([]byte{5, 6, 7, 8}, []byte{1, 2, 5, 6, 7, 8, 9}, -0.5)
	f.Add(make([]byte, 13), make([]byte, 37), DefaultPenalty)

	f.Fuzz(func(t *testing.T, a, b []byte, pf float64) {
		if len(a) == 0 || len(b) == 0 {
			return
		}
		if math.IsNaN(pf) || math.IsInf(pf, 0) {
			return
		}
		s, u := NewView(a), NewView(b)
		want := dissimViews(scalarKernel, s, u, pf)
		// A block holding u, s and u again, so the row has an
		// equal-length self pair and, unless |u| = |s|, a second run.
		views := []View{u, s, u}
		blk := NewLengthBlock(views, 0, len(views))
		out := make([]float32, len(views))
		for _, k := range kernels {
			if k.available != nil && !k.available() {
				continue
			}
			if got := dissimViews(k, s, u, pf); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("kernel %s diverges from scalar: (%x,%x,pf=%v) got %v want %v",
					k.name, a, b, pf, got, want)
			}
			blk.row(k, s, -1, pf, out)
			for j, v := range views {
				if pp := float32(dissimViews(scalarKernel, s, v, pf)); math.Float32bits(out[j]) != math.Float32bits(pp) {
					t.Fatalf("kernel %s: row[%d] = %v, per-pair = %v on (%x,%x,pf=%v)", k.name, j, out[j], pp, a, b, pf)
				}
			}
		}
	})
}

// FuzzLengthBlockRow drives LengthBlock.Row, the entry point of the
// matrix builders, on a block whose pool order interleaves runs of
// len(s), of a longer and a shorter lane length, and of a length past
// laneMaxLen, with run sizes that are mostly not a multiple of four.
// Every diagonal cut of the block is tried, under the fuzzed penalty
// and under pf < 0, 0, the default and a saturating value. On every
// kernel each stored float32 must equal float32(DissimViews) on
// the scalar kernel bit for bit, and no entry at or before the cut may
// be written: that is where a first group's skipped lanes and a last
// group's padded lanes would land.
func FuzzLengthBlockRow(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{3, 2, 1, 0, 9, 9, 7}, uint8(3), uint8(1), uint8(0x5a), DefaultPenalty)
	f.Add([]byte{7, 9}, []byte{7, 9, 7, 9, 1}, uint8(4), uint8(0), uint8(0x13), 0.0)
	f.Add([]byte{0, 0, 0, 0, 0, 0}, []byte{0}, uint8(9), uint8(4), uint8(0xff), 3.0)
	f.Add([]byte{255, 1, 128, 4, 9, 9, 9, 2, 2, 2, 2, 0}, []byte{4, 9, 9, 200}, uint8(1), uint8(10), uint8(7), -0.5)
	f.Add([]byte{5, 6, 7, 8}, []byte{1, 2, 5, 6, 7, 8, 9}, uint8(7), uint8(2), uint8(0xc6), 1.5)

	f.Fuzz(func(t *testing.T, a, pool []byte, longer, shorter, sizes uint8, pf float64) {
		if len(a) == 0 || len(pool) == 0 || math.IsNaN(pf) {
			return
		}
		s := NewView(a[:min(len(a), laneMaxLen)])
		ls := len(s)
		lens := []int{ls, min(ls+1+int(longer)%laneMaxLen, laneMaxLen), laneMaxLen + 1 + int(longer)%5}
		if ls > 1 {
			lens = append(lens, 1+int(shorter)%(ls-1))
		}
		// Run sizes 1–8 (two bits of sizes per run, plus shorter mod 5),
		// laid out round-robin so every run is scattered over the
		// block's pool order.
		count := make([]int, len(lens))
		for r := range count {
			count[r] = 1 + int(sizes>>(2*r))&3 + int(shorter)%5
		}
		const lo = 3
		views := make([]View, lo)
		at := 0
		for left := true; left; {
			left = false
			for r, l := range lens {
				if count[r] == 0 {
					continue
				}
				count[r]--
				left = true
				b := make([]byte, l)
				for i := range b {
					b[i] = pool[(at+i)%len(pool)]
				}
				at += 1 + r
				views = append(views, NewView(b))
			}
		}
		blk := NewLengthBlock(views, lo, len(views))
		out := make([]float32, len(views)-lo)
		for _, p := range []float64{pf, -0.5, 0, DefaultPenalty, 3} {
			for _, k := range kernels {
				if k.available != nil && !k.available() {
					continue
				}
				for after := lo - 1; after < len(views); after++ {
					for o := range out {
						out[o] = float32(math.NaN())
					}
					blk.row(k, s, after, p, out)
					for j := lo; j < len(views); j++ {
						got := out[j-lo]
						if j <= after {
							if !math.IsNaN(float64(got)) {
								t.Fatalf("kernel %s, cut %d: index %d (len %d) was written", k.name, after, j, len(views[j]))
							}
							continue
						}
						want := float32(dissimViews(scalarKernel, s, views[j], p))
						if math.Float32bits(got) != math.Float32bits(want) {
							t.Fatalf("kernel %s, cut %d: index %d = %v, DissimViews %v (s=%x, len(t)=%d, pf=%v)",
								k.name, after, j, got, want, a, len(views[j]), p)
						}
					}
				}
			}
		}
	})
}
