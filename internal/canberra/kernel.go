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
//     DissimViews/LengthBlock.Row orchestration shared by every
//     backend. The scalar kernel is written so that the SIMD kernels
//     can reproduce it bit for bit (see the accumulation-order notes
//     on distScalar), which keeps cluster labels identical no matter
//     which kernel a host dispatches to.
//   - dispatch.go selects among the registered kernel implementations
//     (scalar everywhere; AVX2 on amd64 unless the noasm build tag is
//     set) once at init, by CPU probe alone; building with -tags noasm
//     is the way to run scalar on a host whose CPU runs AVX2.
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
//     two interleaved scalar chains here, four AVX2 vector lanes in
//     the asm kernel — and a lane past the abandon
//     bound keeps accumulating harmlessly until every lane is past it.
//
//  6. Partner lanes from a lane-interleaved run. Real pools are mostly
//     2–6 byte segments, and 79–84 % of their pairs differ in length,
//     so a pair's sliding window is a handful of fused terms, and call,
//     dispatch and abandon bookkeeping cost more than the arithmetic.
//     The tile builders visit each block as a LengthBlock, so a row's
//     partners come in runs of one length, and the block keeps each
//     run lane-interleaved: four partners per group, element-major, the
//     last group zero-padded. LengthBlock.Row makes one call of the
//     kernel's run entry per run suffix. It advances the four partners
//     of a group together as independent chains (one per AVX2 lane),
//     each step's partner elements one contiguous load, and for unequal
//     lengths (both at most laneMaxLen) scans every window in full
//     without abandoning: each window is still one term chain in
//     element order, and each partner keeps its minimum raw window sum.
//     That is bit-identical to minWindowScalar: an abandoned window is
//     never the selected one (idea 4), and rounded division by fls is
//     monotone, so the minimum of the rounded quotients is the rounded
//     quotient of the minimum. Runs of len(s) run distScalar's four
//     chains per lane instead. The division, the blend, the clamp and
//     the float32 quantization then run once per group, and only the
//     run suffix's lanes are stored, at their pool positions.

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

// NewViews converts byte segments into kernel views that share one
// contiguous backing array in segment order, so a block of adjacent
// indices reads mostly-adjacent memory and the batched kernel streams
// rather than pointer-chases.
func NewViews(segments [][]byte) []View {
	total := 0
	for _, s := range segments {
		total += len(s)
	}
	backing := make([]float64, total)
	views := make([]View, len(segments))
	off := 0
	for i, s := range segments {
		v := backing[off : off+len(s) : off+len(s)]
		for j, c := range s {
			v[j] = float64(c)
		}
		views[i] = v
		off += len(s)
	}
	return views
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
// AVX2 (VFMADD231PD) — produces the identical bit pattern
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
// AVX2 variant exploits this by scanning four windows per batch under
// the batch-entry bound and still selecting bit-identically.
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
// stricter: every kernel (scalar, AVX2) returns the identical
// bit pattern.
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
		// The matrix sends every equal-length run to the kernel's run
		// entry, which reproduces distScalar's bits, so only DissimViews
		// reaches this pair path and it needs no kernel of its own.
		return distScalar(s, t) / fls
	}
	flt := float64(lt)

	// The blend is monotone in dmin: if even a perfect overlap
	// (dmin = 0) saturates the [0, 1] clamp, no window can change the
	// outcome. (Only reachable for pf > 1.)
	if pf*(flt-fls) >= flt {
		return 1
	}
	return blend(fls, flt, k.minWindow(s, t), (flt-fls)*pf)
}

// blend folds the best window's dmin and the length penalty into the
// clamped variable-length dissimilarity, given the penalty weight
// c = (|t|−|s|)·pf. Every unequal-length path calls this one function,
// or (the AVX2 run entry) repeats its operations in its order, so they
// share its rounding exactly. The float64 conversions round each
// product on its own, as the Go spec allows: without them the compiler
// may fuse a product into the following add (arm64 does, amd64 does
// not), and the result would depend on the architecture.
func blend(fls, flt, dmin, c float64) float64 {
	dis := (float64(fls*dmin) + float64(c*(1+dmin))) / flt
	if dis > 1 {
		dis = 1
	}
	return dis
}

// laneMaxLen is the longest segment, on either side, that the partner
// lanes (idea 6) serve for unequal lengths. Lanes scan every window in
// full; the per-pair minWindow abandons, which pays off on long windows
// of unlike content. Measured on random content (abandoning's best
// case) with the bound raised, the AVX2 lanes beat per-pair calls at
// every shape up to 8v12 (1.4× there, 3–4× at 2v4) and lost at 8v16
// and 12v16.
const laneMaxLen = 12

// LengthBlock is a block of pool indices in the order the tile builders
// visit it: stably sorted by view length, so a row's partners arrive as
// one run per distinct length while the results still belong to their
// pool indices. Each run also keeps its partners lane-interleaved for
// the run entry (idea 6). The eager matrix fill, the tiled backend and
// the shard workers all build their tiles from it. A block is read-only
// once built, so concurrent Row calls may share it.
type LengthBlock struct {
	// Idx holds the block's pool indices, stably sorted by view length:
	// ascending within each run of one length.
	Idx []int
	// Views holds the views of Idx, in the same order.
	Views []View
	lo    int       // the block's smallest pool index
	runs  []laneRun // the runs of one length, in Idx order
}

// laneRun is one length run of a LengthBlock.
type laneRun struct {
	idx   []int  // the partners' pool indices: a window of Idx
	views []View // their views: the same window of Views
	l     int    // the partners' length
	// lanes holds the partners in groups of four, element-major:
	// lanes[(g·l+e)·4+lane] is element e of partner 4g+lane. The last
	// group is zero-padded to four lanes; its padded lanes are computed
	// and never stored.
	lanes []float64
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
	size := 0
	for k, j := range b.Idx {
		b.Views[k] = views[j]
		if k == 0 || len(views[j]) != len(b.Views[k-1]) {
			b.runs = append(b.runs, laneRun{idx: b.Idx[k:k], views: b.Views[k:k], l: len(views[j])})
		}
		r := &b.runs[len(b.runs)-1]
		r.idx, r.views = r.idx[:len(r.idx)+1], r.views[:len(r.views)+1]
		if len(r.idx)%4 == 1 {
			size += 4 * r.l
		}
	}
	buf := make([]float64, size)
	for r := range b.runs {
		run := &b.runs[r]
		n := (len(run.idx) + 3) / 4 * 4 * run.l
		run.lanes, buf = buf[:n:n], buf[n:]
		for p, v := range run.views {
			g, lane := p/4, p%4
			for e, x := range v {
				run.lanes[(g*run.l+e)*4+lane] = x
			}
		}
	}
	return b
}

// Row stores out[j−lo] = float32(DissimViews(s, views[j], pf)) for every
// pool index j of the block with j > after, where lo is the block's
// smallest index, and leaves the other entries of out as they are. The
// float32 rounding is dbscan.Quantize's, so out holds what the matrix
// stores. out must have len(Idx) capacity. A row of the upper triangle
// passes its own index as after: Idx is ascending within a run, so the
// partners past the diagonal are a suffix of each run, found by binary
// search.
//
// Each run is one call of the kernel's run entry when the pair shape is
// one the lanes serve (equal lengths, or both lengths at most
// laneMaxLen); other runs go pair by pair.
func (b *LengthBlock) Row(s View, after int, pf float64, out []float32) {
	b.row(active, s, after, pf, out)
}

func (b *LengthBlock) row(k *kernelImpl, s View, after int, pf float64, out []float32) {
	out = out[:len(b.Idx)]
	if pf < 0 {
		pf = 0
	}
	ls := len(s)
	for r := range b.runs {
		run := &b.runs[r]
		from := 0
		if after >= b.lo {
			from, _ = slices.BinarySearch(run.idx, after+1)
		}
		if from == len(run.idx) {
			continue
		}
		fls, flt := float64(min(ls, run.l)), float64(max(ls, run.l))
		switch {
		case ls == 0 || run.l == 0 || (ls != run.l && max(ls, run.l) > laneMaxLen):
			for p := from; p < len(run.idx); p++ {
				out[run.idx[p]-b.lo] = float32(dissimViews(k, s, run.views[p], pf))
			}
		case ls != run.l && pf*(flt-fls) >= flt:
			// Saturated: dissimViews returns 1 before any window.
			for _, j := range run.idx[from:] {
				out[j-b.lo] = 1
			}
		default:
			k.lanes(s, run, from, b.lo, (flt-fls)*pf, out)
		}
	}
}

// lanesScalar is the scalar kernel's run entry (idea 6): for the
// partners p ≥ from of run it stores out[idx[p]−lo], four partners per
// step as independent chains. c is the blend's penalty weight. The AVX2
// run entry performs the same operations in the same order.
func lanesScalar(s View, run *laneRun, from, lo int, c float64, out []float32) {
	l, ls := run.l, len(s)
	fls, flt := float64(min(ls, l)), float64(max(ls, l))
	for g := from / 4; 4*g < len(run.idx); g++ {
		grp := run.lanes[4*g*l : 4*(g+1)*l]
		var sums [4]float64
		if ls == l {
			sums = distLanes(s, grp)
		} else {
			sums = minWindowLanes(s, grp)
		}
		for lane := max(from-4*g, 0); lane < min(4, len(run.idx)-4*g); lane++ {
			d := sums[lane] / fls
			if ls != l {
				d = blend(fls, flt, min(d, 2), c)
			}
			out[run.idx[4*g+lane]-lo] = float32(d)
		}
	}
}

// distLanes returns the raw Canberra distances between x and the four
// partners of one interleaved group of len(x) elements each, every
// partner with distScalar's four chains, reduce order and tail.
func distLanes(x View, grp []float64) [4]float64 {
	grp = grp[:4*len(x)]
	var c0, c1, c2, c3, sum [4]float64
	i := 0
	for ; i+3 < len(x); i += 4 {
		for lane := range 4 {
			c0[lane] = term(c0[lane], x[i], grp[4*i+lane])
			c1[lane] = term(c1[lane], x[i+1], grp[4*i+4+lane])
			c2[lane] = term(c2[lane], x[i+2], grp[4*i+8+lane])
			c3[lane] = term(c3[lane], x[i+3], grp[4*i+12+lane])
		}
	}
	for lane := range 4 {
		sum[lane] = (c0[lane] + c2[lane]) + (c1[lane] + c3[lane])
	}
	for ; i < len(x); i++ {
		for lane := range 4 {
			sum[lane] = term(sum[lane], x[i], grp[4*i+lane])
		}
	}
	return sum
}

// minWindowLanes returns the minimum raw window sums between s and the
// four partners of one interleaved group, sliding whichever is shorter
// over the other. The four partners advance together as independent
// chains; each window is still one term chain in element order and
// runs to the end, so every window sum carries the bits abandonScalar
// gives it when it does not abandon. Rounded division by fls is
// monotone, so dividing the minimum once gives the dmin
// minWindowScalar selects window by window.
func minWindowLanes(s View, grp []float64) [4]float64 {
	l := len(grp) / 4
	short, long := len(s), l
	sStep, tStep := 0, 4 // s slides over the partners
	if short > long {
		short, long = long, short
		sStep, tStep = 1, 0 // the partners slide over s
	}
	m0, m1, m2, m3 := math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)
	for off := 0; off <= long-short; off++ {
		x := s[off*sStep : off*sStep+short]
		w := grp[off*tStep : off*tStep+4*short]
		var a0, a1, a2, a3 float64
		for i, v := range x {
			a0 = term(a0, v, w[4*i])
			a1 = term(a1, v, w[4*i+1])
			a2 = term(a2, v, w[4*i+2])
			a3 = term(a3, v, w[4*i+3])
		}
		m0, m1, m2, m3 = min(m0, a0), min(m1, a1), min(m2, a2), min(m3, a3)
	}
	return [4]float64{m0, m1, m2, m3}
}
