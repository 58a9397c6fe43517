//go:build amd64 && !noasm

package canberra

import "protoclust/internal/vecmath"

// AVX2 kernel: the scalar inner loops of kernel.go translated to
// 4-lane (float64) vector code in kernel_amd64.s. The translation is
// bit-exact, not merely close — see the accumulation-order contract on
// distScalar — so dispatching to this kernel cannot move any stored
// distance, cluster label, or golden trace:
//
//   - canberraDistAVX2 keeps the same four accumulation chains as
//     distScalar (chain = lane), reduces them as (s0+s2)+(s1+s3), and
//     runs the identical sequential tail. Its terms are the same
//     fused |a−b|·recipSum[a+b] that term() computes: VFMADD231PD
//     performs the one rounding math.FMA performs.
//   - canberraAbandon4AVX2 scans four adjacent sliding windows, one
//     per lane. Each window is a single accumulation chain in element
//     order, exactly like abandonScalar, so a window that completes
//     carries identical bits; the batch abandons only when all four
//     lanes have reached the bound, which by the selection-identity
//     argument on minWindowScalar never changes which window wins.
//   - canberraMinLanes4AVX2 runs minWindowLanes' four partner chains
//     one per lane: every window is one chain in element order and
//     runs to the end, and each lane keeps its minimum window sum.
//
// Everything is written against the 512-entry recipSum table via
// VGATHERDPD; the table is shared read-only state, so concurrent tile
// workers hit the same cache lines without contention.

// haveAVX2 reports whether this CPU supports the kernel: AVX2 + FMA
// instruction sets and OS-managed ymm state (OSXSAVE + XCR0 ymm bits —
// a hypervisor or minimal kernel may mask state saving even when the
// CPU advertises AVX2).
func haveAVX2() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const (
		bitFMA     = 1 << 12
		bitOSXSAVE = 1 << 27
		bitAVX     = 1 << 28
	)
	if ecx1&(bitFMA|bitOSXSAVE|bitAVX) != bitFMA|bitOSXSAVE|bitAVX {
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const bitAVX2 = 1 << 5
	if ebx7&bitAVX2 == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (ymm upper halves) must both be enabled.
	xlo, _ := xgetbv0()
	return xlo&0x6 == 0x6
}

// cpuidex executes CPUID with the given leaf and subleaf.
//
//go:noescape
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register XCR0.
//
//go:noescape
func xgetbv0() (eax, edx uint32)

// canberraDistBatchAVX2 fills out[j] with the raw Canberra distance
// between x and ys[j] divided by fls; every ys[j] must have exactly
// n = len(x) elements, and fls = 1 yields the raw distance. The whole
// batch loop lives in assembly so short segments pay the Go→asm call
// overhead once per tile row, not once per pair.
//
//go:noescape
func canberraDistBatchAVX2(x *float64, n int, ys []View, out *float64, fls float64)

// canberraAbandon4AVX2 accumulates the four sliding windows at offsets
// t[0:], t[1:], t[2:], t[3:] (t is pre-offset by the caller) against s,
// abandoning only when all four partial sums have reached bound. sums
// receives the four lane sums; lanes that were abandoned hold a partial
// ≥ bound, which the caller discards.
//
//go:noescape
func canberraAbandon4AVX2(s *float64, n int, t *float64, bound float64, sums *[4]float64)

// canberraMinLanes4AVX2 stores in out[k] the minimum raw window sum
// between b and ts[k] for the four partners ts[0:4] over windows
// windows of n elements. Between windows b advances by bStep bytes and
// every partner by tStep bytes.
//
//go:noescape
func canberraMinLanes4AVX2(b *float64, bStep int, ts *View, tStep int, n, windows int, out *[4]float64)

// minWindowLanesAVX2 is minWindowLanes with the four partners of a
// step in one ymm register, one pair per lane. A short final group
// repeats its last partner to fill the lanes and keeps only the real
// ones.
func minWindowLanesAVX2(s View, ts []View, out []float64) {
	short, long := len(s), len(ts[0])
	bStep, tStep := 0, 8 // s slides over the partners
	if short > long {
		short, long = long, short
		bStep, tStep = 8, 0 // the partners slide over s
	}
	windows := long - short + 1
	j := 0
	for ; j+3 < len(ts); j += 4 {
		canberraMinLanes4AVX2(&s[0], bStep, &ts[j], tStep, short, windows, (*[4]float64)(out[j:]))
	}
	if j < len(ts) {
		var group [4]View
		for k := range group {
			group[k] = ts[min(j+k, len(ts)-1)]
		}
		var sums [4]float64
		canberraMinLanes4AVX2(&s[0], bStep, &group[0], tStep, short, windows, &sums)
		copy(out[j:], sums[:])
	}
}

func distAVX2(x, y View) float64 {
	ys := [1]View{y}
	var out [1]float64
	canberraDistBatchAVX2(&x[0], len(x), ys[:], &out[0], 1)
	return out[0]
}

func distBatchAVX2(x View, ys []View, out []float64) {
	canberraDistBatchAVX2(&x[0], len(x), ys, &out[0], float64(len(x)))
}

// minWindowAVX2 mirrors minWindowScalar with four windows per step.
// The bound handed to a batch is the best raw sum before the batch —
// staler than the scalar two-window loop's, which only means lanes
// abandon later (never earlier than correct); completed lanes are
// bit-identical, so the selected dmin is too.
func minWindowAVX2(s, t View) float64 {
	fls := float64(len(s))
	dmin := 2.0
	bound := dmin * fls
	last := len(t) - len(s)
	off := 0
	var sums [4]float64
	for ; off+3 <= last; off += 4 {
		canberraAbandon4AVX2(&s[0], len(s), &t[off], bound, &sums)
		for _, sum := range sums {
			if sum < bound {
				if d := sum / fls; d < dmin {
					dmin = d
					if vecmath.IsZero(dmin) {
						return dmin
					}
					bound = sum
				}
			}
		}
	}
	for ; off <= last; off++ {
		if sum := abandonScalar(s, t[off:off+len(s)], bound); sum < bound {
			if d := sum / fls; d < dmin {
				dmin = d
				if vecmath.IsZero(dmin) {
					return dmin
				}
				bound = sum
			}
		}
	}
	return dmin
}

func init() {
	register(&kernelImpl{
		name:           "avx2",
		dist:           distAVX2,
		distBatch:      distBatchAVX2,
		minWindow:      minWindowAVX2,
		minWindowLanes: minWindowLanesAVX2,
		available:      haveAVX2,
		exact:          true,
	})
}
