package canberra

import (
	"cmp"
	"math"
	"slices"

	"protoclust/internal/vecmath"
)

// This file is the optimized dissimilarity kernel behind the pairwise
// matrix build. The reference implementations in canberra.go stay in
// place as the readable oracle; every kernel must remain numerically
// equivalent to them (the differential fuzz target FuzzKernelDifferential
// and internal/dissim's matrix tests enforce this).
//
// Since the SIMD round, the kernel is split in two layers:
//
//   - This file holds the portable scalar implementation and the
//     DissimViews/DissimViewsBatch orchestration shared by every
//     backend. The scalar kernel is written so that the SIMD kernels
//     can reproduce it bit for bit (see the accumulation-order notes
//     on distScalar), which keeps cluster labels identical no matter
//     which kernel a host dispatches to.
//   - dispatch.go selects among the registered kernel implementations
//     (scalar everywhere; AVX2 on amd64, NEON on arm64 unless the
//     noasm build tag is set) once at init, overridable with the
//     PROTOCLUST_KERNEL environment variable or SetKernel.
//
// Six ideas make the kernel fast:
//
//  1. Precomputed float views. Interpreting a segment as a float vector
//     costs one byte→float64 conversion per element. The reference path
//     pays it on every pair (O(n²) conversions of the same bytes); a
//     View pays it once per unique segment.
//
//  2. A reciprocal table instead of division. Byte-pair sums a+b only
//     take 511 values, so the per-term division becomes a branchless
//     L1-resident table load and a fused multiply-add (see recipSum).
//
//  3. Equal-length fast path. Equal-length segments skip the sliding
//     window entirely — a single straight accumulation loop over four
//     independent chains (vectorizable as one 4-lane register).
//
//  4. Branch-and-bound early abandoning in the sliding window. The
//     per-byte Canberra terms are non-negative, so the partial sum at a
//     window offset only grows; as soon as it reaches the raw sum of the
//     best window seen so far, this offset cannot improve dmin and the
//     inner loop aborts. The blended dissimilarity is monotone in dmin,
//     so when even dmin = 0 saturates the clamp the window is skipped
//     altogether.
//
//  5. Window-level parallelism. Adjacent window offsets read adjacent
//     bytes of t, so several windows accumulate as independent lanes —
//     two interleaved scalar chains here, four AVX2 (or two NEON)
//     vector lanes in the asm kernels — and a lane past the abandon
//     bound keeps accumulating harmlessly until every lane is past it.
//
//  6. Partner lanes for short mixed-length pairs. Real pools are mostly
//     2–6 byte segments, and 79–84 % of their pairs differ in length,
//     so a pair's sliding window is a handful of fused terms, and call,
//     dispatch and abandon bookkeeping cost more than the arithmetic.
//     With each tile block visited as a LengthBlock, a tile row's
//     partners come in runs of one length; DissimViewsBatch hands a run with both
//     lengths at most laneMaxLen to minWindowLanes, which advances four
//     partners together as independent chains (one per AVX2 lane) and
//     scans every window in full without abandoning. Each window is
//     still one term chain in element order, and each partner keeps
//     its minimum raw window sum. That is bit-identical to
//     minWindowScalar: an abandoned window is never the selected one
//     (idea 4), and rounded division by fls is monotone, so the
//     minimum of the rounded quotients is the rounded quotient of the
//     minimum. The division, the blend and the clamp then run once per
//     pair.

// View is a segment's byte values precomputed as float64s, converted
// once per unique segment instead of once per compared pair. Kernels
// assume views were built by NewView: every element is an integer in
// [0, 255]. Views with other contents stay memory-safe (table indices
// are masked) but their dissimilarities are unspecified.
type View []float64

// NewView converts a byte segment into a kernel view.
func NewView(b []byte) View {
	v := make(View, len(b))
	for i, x := range b {
		v[i] = float64(x)
	}
	return v
}

// recipSum[v] is 1/v for every possible byte-pair sum a+b ∈ [0, 510]
// (4 KB, lives in L1). The per-term division d/(a+b) — the single most
// expensive operation of the whole pipeline — becomes a table load and a
// multiply. recipSum[0] is 0, which makes the inner loops branchless:
// the reference's a==0 && b==0 skip falls out as d·recipSum[0] = 0·0,
// and a == b ≠ 0 contributes 0·(1/2a) = 0 either way. The table is
// sized to a power of two so the index can be masked instead of
// bounds-checked (byte-pair sums never exceed 510, so the mask is the
// identity).
var recipSum = func() [512]float64 {
	var r [512]float64
	for i := 1; i <= 510; i++ {
		r[i] = 1 / float64(i)
	}
	return r
}()

// term adds one Canberra term |a−b|/(a+b) to acc with a single fused
// rounding: math.FMA is exact in the multiply, so every kernel — Go,
// AVX2 (VFMADD231PD), NEON (FMLA) — produces the identical bit pattern
// for the same accumulation order. math.Abs compiles to a sign mask
// (the reference's if d < 0 mispredicts half the time on random
// content), and zero terms multiply out instead of being skipped.
func term(acc, a, b float64) float64 {
	return math.FMA(math.Abs(a-b), recipSum[int(a+b)&511], acc)
}

// distScalar returns the raw Canberra distance between two equal-length
// views, mirroring Distance term by term. Four accumulator chains (one
// per index residue mod 4) overlap their fused-add latencies and map
// one-to-one onto a 4-lane SIMD register; the reduce order
// (s0+s2)+(s1+s3) and the sequential tail are part of the kernel
// contract — the AVX2 kernel reproduces exactly this association, so
// scalar and SIMD results are bit-identical, and both stay within the
// 1e-12 equivalence band of the reference's two-rounding d/(a+b) terms.
func distScalar(x, y View) float64 {
	y = y[:len(x)] // bounds-check elimination for y[i]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+3 < len(x); i += 4 {
		s0 = term(s0, x[i], y[i])
		s1 = term(s1, x[i+1], y[i+1])
		s2 = term(s2, x[i+2], y[i+2])
		s3 = term(s3, x[i+3], y[i+3])
	}
	sum := (s0 + s2) + (s1 + s3)
	for ; i < len(x); i++ {
		sum = term(sum, x[i], y[i])
	}
	return sum
}

// abandonScalar accumulates the raw Canberra distance of one window
// but gives up as soon as the partial sum reaches bound. Because every
// term is ≥ 0 and IEEE addition of non-negative values is monotone, a
// partial sum ≥ bound proves the full sum is ≥ bound too, so the caller
// learns everything it needs: this window cannot beat the best one.
// Each window is one accumulation chain, so a window that survives to
// the end carries the exact same bits in every kernel.
func abandonScalar(x, y View, bound float64) float64 {
	y = y[:len(x)]
	var sum float64
	for i, a := range x {
		sum = term(sum, a, y[i])
		if sum >= bound {
			return sum
		}
	}
	return sum
}

// abandonScalar2 accumulates two adjacent windows at once. The two
// sums are independent dependency chains, so the CPU overlaps their
// floating-point adds where a single window is latency-bound; each
// window's own terms still accumulate in window order, so its final
// sum is identical to a solo scan. The pair is abandoned only when both
// windows have reached bound — a window past bound keeps accumulating
// harmlessly (sums only grow, and the caller discards any sum ≥ bound).
func abandonScalar2(x, y0, y1 View, bound float64) (float64, float64) {
	y0 = y0[:len(x)]
	y1 = y1[:len(x)]
	var s0, s1 float64
	for i, a := range x {
		s0 = term(s0, a, y0[i])
		s1 = term(s1, a, y1[i])
		if s0 >= bound && s1 >= bound {
			return s0, s1
		}
	}
	return s0, s1
}

// minWindowScalar returns the minimum normalized Canberra distance over
// all |t|−|s|+1 sliding windows of s over t (|s| < |t|), visiting
// windows in offset order, two at a time (ties keep the first minimum).
//
// dmin is tracked alongside the raw (un-normalized) sum that produced
// it; the raw sum is the exact abandon bound, free of the rounding a
// dmin·ls reconstruction would introduce. A sum ≥ bound implies
// d ≥ dmin, so such windows skip the normalization division entirely.
//
// The selection is insensitive to how lanes are grouped: a window
// updates dmin iff its full raw sum beats the best full sum so far, and
// abandoned windows return a partial sum that is ≥ the bound they were
// scanned under ≥ the current best, so they can never be selected. The
// SIMD variants exploit this by scanning four (AVX2) or two (NEON)
// windows per batch under the batch-entry bound and still selecting
// bit-identically.
func minWindowScalar(s, t View) float64 {
	fls := float64(len(s))
	dmin := 2.0
	bound := dmin * fls
	last := len(t) - len(s)
	off := 0
	for ; off < last; off += 2 {
		s0, s1 := abandonScalar2(s, t[off:], t[off+1:], bound)
		if s0 < bound {
			if d := s0 / fls; d < dmin {
				dmin = d
				if vecmath.IsZero(dmin) {
					return dmin
				}
				bound = s0
			}
		}
		if s1 < bound {
			if d := s1 / fls; d < dmin {
				dmin = d
				if vecmath.IsZero(dmin) {
					return dmin
				}
				bound = s1
			}
		}
	}
	if off == last {
		if sum := abandonScalar(s, t[off:off+len(s)], bound); sum < bound {
			if d := sum / fls; d < dmin {
				dmin = d
			}
		}
	}
	return dmin
}

// DissimViews computes the variable-length Canberra dissimilarity of
// DissimilarityPenalty on precomputed views through the active kernel,
// allocation-free. Both views must be non-empty (callers validate;
// empty inputs return 0 instead of an error so the hot loop carries no
// error plumbing).
//
// The result is numerically equivalent to
// DissimilarityPenalty(bytes(s), bytes(t), pf) within 1e-12: windows
// abandoned early are exactly those that could not have updated dmin,
// and the reciprocal-table fused terms differ from the reference's
// divisions by at most 1 ulp each. Across kernels the contract is
// stricter: every float64 kernel (scalar, AVX2, NEON) returns the
// identical bit pattern, and the opt-in float32 kernels stay within
// one float32 ulp of the stored (quantized) value.
func DissimViews(s, t View, pf float64) float64 {
	return dissimViews(active, s, t, pf)
}

func dissimViews(k *kernelImpl, s, t View, pf float64) float64 {
	if len(s) > len(t) {
		s, t = t, s
	}
	if len(s) == 0 {
		return 0
	}
	if pf < 0 {
		pf = 0
	}
	ls, lt := len(s), len(t)
	fls := float64(ls)
	if ls == lt {
		return k.dist(s, t) / fls
	}
	flt := float64(lt)

	// The blend is monotone in dmin: if even a perfect overlap
	// (dmin = 0) saturates the [0, 1] clamp, no window can change the
	// outcome. (Only reachable for pf > 1.)
	if pf*(flt-fls) >= flt {
		return 1
	}
	return blend(fls, flt, k.minWindow(s, t), pf)
}

// blend folds the best window's dmin and the length penalty into the
// clamped variable-length dissimilarity. Every unequal-length path
// calls this one function, so they share its rounding exactly.
func blend(fls, flt, dmin, pf float64) float64 {
	dis := (fls*dmin + (flt-fls)*pf*(1+dmin)) / flt
	if dis > 1 {
		dis = 1
	}
	return dis
}

// laneMaxLen is the longest segment, on either side, that the partner
// lanes (idea 6) serve. Lanes scan every window in full; the per-pair
// minWindow abandons, which pays off on long windows of unlike content.
// Measured on random content (abandoning's best case) with the bound
// raised, the AVX2 lanes beat per-pair calls at every shape up to 8v12
// (1.4× there, 3–4× at 2v4) and lost at 8v16 and 12v16. The scalar
// lanes also beat the scalar per-pair path at 4v12 and 8v12
// (BenchmarkDissimViewsBatch).
const laneMaxLen = 12

// DissimViewsBatch fills out[j] = DissimViews(s, ts[j], pf) for every
// view in ts. The tile builders call it once per tile row instead of
// once per pair, with each block in a LengthBlock's order, which makes
// ts a few runs of one partner length each. A run of len(s) flows
// through the kernel's batched equal-length entry point; a run of
// another length, with both lengths at most laneMaxLen, through the
// kernel's partner lanes. Everything else goes pair by pair. out must
// have len(ts) capacity; results are bit-identical to per-pair
// DissimViews calls.
func DissimViewsBatch(s View, ts []View, pf float64, out []float64) {
	dissimViewsBatch(active, s, ts, pf, out)
}

// LengthBlock is a block of pool indices in the order the tile builders
// visit it: stably sorted by view length, so the partners of one
// DissimViewsBatch call arrive as one run per distinct length while the
// results still belong to their pool indices. The eager matrix fill, the
// tiled backend and the shard workers all build their tiles from it.
type LengthBlock struct {
	// Idx holds the block's pool indices, stably sorted by view length:
	// ascending within each run of one length.
	Idx []int
	// Views holds the views of Idx, in the same order.
	Views []View
	lo    int   // the block's smallest pool index
	ends  []int // ends[r] is the end of run r in Idx
}

// NewLengthBlock builds the block of pool indices lo, lo+1, …, hi−1.
func NewLengthBlock(views []View, lo, hi int) LengthBlock {
	b := LengthBlock{Idx: make([]int, hi-lo), Views: make([]View, hi-lo), lo: lo}
	for k := range b.Idx {
		b.Idx[k] = lo + k
	}
	slices.SortStableFunc(b.Idx, func(x, y int) int {
		return cmp.Compare(len(views[x]), len(views[y]))
	})
	for k, j := range b.Idx {
		b.Views[k] = views[j]
		if k > 0 && len(views[j]) != len(b.Views[k-1]) {
			b.ends = append(b.ends, k)
		}
	}
	if hi > lo {
		b.ends = append(b.ends, hi-lo)
	}
	return b
}

// Batch fills out[k] = DissimViews(s, b.Views[k], pf) for every k with
// b.Idx[k] > after, and leaves the other entries of out as they are.
// out must have len(b.Idx) capacity. A row of the upper triangle passes
// its own index as after: Idx is ascending within a run, so the
// partners past the diagonal are a suffix of each run, found by binary
// search instead of a filtered copy of the views.
func (b *LengthBlock) Batch(s View, after int, pf float64, out []float64) {
	if after < b.lo {
		DissimViewsBatch(s, b.Views, pf, out)
		return
	}
	start := 0
	for _, end := range b.ends {
		k, _ := slices.BinarySearch(b.Idx[start:end], after+1)
		DissimViewsBatch(s, b.Views[start+k:end], pf, out[start+k:end])
		start = end
	}
}

func dissimViewsBatch(k *kernelImpl, s View, ts []View, pf float64, out []float64) {
	out = out[:len(ts)]
	if len(s) == 0 {
		for j := range out {
			out[j] = 0
		}
		return
	}
	for j := 0; j < len(ts); {
		lt := len(ts[j])
		r := j + 1
		for r < len(ts) && len(ts[r]) == lt {
			r++
		}
		switch {
		case lt == len(s) && k.distBatch != nil:
			k.distBatch(s, ts[j:r], out[j:r])
		case lt != len(s) && lt > 0 && k.minWindowLanes != nil && len(s) <= laneMaxLen && lt <= laneMaxLen:
			dissimLanes(k, s, ts[j:r], pf, out[j:r])
		default:
			for i := j; i < r; i++ {
				out[i] = dissimViews(k, s, ts[i], pf)
			}
		}
		j = r
	}
}

// dissimLanes fills out[j] = DissimViews(s, ts[j], pf) for a run of
// non-empty partners that share one length other than len(s). Rounded
// division by fls is monotone, so dividing the minimum raw window sum
// once gives the dmin minWindowScalar selects window by window.
func dissimLanes(k *kernelImpl, s View, ts []View, pf float64, out []float64) {
	if pf < 0 {
		pf = 0
	}
	fls, flt := float64(len(s)), float64(len(ts[0]))
	if fls > flt {
		fls, flt = flt, fls
	}
	if pf*(flt-fls) >= flt {
		for j := range out {
			out[j] = 1
		}
		return
	}
	k.minWindowLanes(s, ts, out)
	for j, sum := range out {
		out[j] = blend(fls, flt, min(sum/fls, 2), pf)
	}
}

// minWindowLanes stores in out[j] the minimum raw window sum between s
// and ts[j], sliding whichever is shorter over the other (idea 6).
// Every ts[j] has the same length, other than len(s). Four partners
// advance together as independent chains; each window is still one
// term chain in element order, so every window sum carries the bits
// abandonScalar gives it when it runs to the end.
func minWindowLanes(s View, ts []View, out []float64) {
	short, long := len(s), len(ts[0])
	sStep, tStep := 0, 1 // s slides over the partners
	if short > long {
		short, long = long, short
		sStep, tStep = 1, 0 // the partners slide over s
	}
	last := long - short
	j := 0
	for ; j+3 < len(ts); j += 4 {
		t0, t1, t2, t3 := ts[j], ts[j+1], ts[j+2], ts[j+3]
		m0, m1, m2, m3 := math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)
		for off := 0; off <= last; off++ {
			so, to := off*sStep, off*tStep
			x := s[so : so+short]
			w0, w1, w2, w3 := t0[to:to+short], t1[to:to+short], t2[to:to+short], t3[to:to+short]
			var a0, a1, a2, a3 float64
			for i, v := range x {
				a0 = term(a0, v, w0[i])
				a1 = term(a1, v, w1[i])
				a2 = term(a2, v, w2[i])
				a3 = term(a3, v, w3[i])
			}
			m0, m1, m2, m3 = min(m0, a0), min(m1, a1), min(m2, a2), min(m3, a3)
		}
		out[j], out[j+1], out[j+2], out[j+3] = m0, m1, m2, m3
	}
	for ; j < len(ts); j++ {
		t := ts[j]
		m := math.Inf(1)
		for off := 0; off <= last; off++ {
			so, to := off*sStep, off*tStep
			x, w := s[so:so+short], t[to:to+short]
			var a float64
			for i, v := range x {
				a = term(a, v, w[i])
			}
			m = min(m, a)
		}
		out[j] = m
	}
}
