//go:build amd64 && !noasm

package canberra

import "protoclust/internal/vecmath"

// AVX2 kernel: the scalar inner loops of kernel.go translated to
// 4-lane (float64) vector code in kernel_amd64.s. The translation is
// bit-exact, not merely close — see the accumulation-order contract on
// distScalar — so dispatching to this kernel cannot move any stored
// distance, cluster label, or golden trace. Its terms are the same
// fused |a−b|·recipSum[a+b] that term() computes: VFMADD231PD performs
// the one rounding math.FMA performs.
//
//   - canberraAbandon4AVX2 scans four adjacent sliding windows, one
//     per lane. Each window is a single accumulation chain in element
//     order, exactly like abandonScalar, so a window that completes
//     carries identical bits; the batch abandons only when all four
//     lanes have reached the bound, which by the selection-identity
//     argument on minWindowScalar never changes which window wins.
//   - canberraLanesAVX2 is the run entry of LengthBlock.Row: one call
//     per (row, run suffix). It reads a lane-interleaved run, so the
//     four partners' elements of a step are one contiguous VMOVUPD,
//     and runs lanesScalar's chains one partner per lane:
//     distScalar's four chains for equal lengths, and for unequal
//     lengths every window as one chain in element order to the end,
//     keeping each lane's minimum. It finishes each group in
//     registers with the IEEE operations of blend in blend's order
//     (divide by |s|, min with 2, blend, clamp), converts to float32
//     as dbscan.Quantize does, and stores the lanes that belong to the
//     run suffix straight to their pool positions.
//
// Every term reads the 512-entry recipSum table via VGATHERDPD; the
// table is shared read-only state, so concurrent tile workers hit the
// same cache lines without contention.

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

// canberraAbandon4AVX2 accumulates the four sliding windows at offsets
// t[0:], t[1:], t[2:], t[3:] (t is pre-offset by the caller) against s,
// abandoning only when all four partial sums have reached bound. sums
// receives the four lane sums; lanes that were abandoned hold a partial
// ≥ bound, which the caller discards.
//
//go:noescape
func canberraAbandon4AVX2(s *float64, n int, t *float64, bound float64, sums *[4]float64)

// canberraLanesAVX2 is the AVX2 run entry (see lanesAVX2): it walks
// the four-partner groups of a lane-interleaved run from lanes, each
// group l·4 float64s, and stores group g's lane k (for 4g+k in
// [first, n)) as a float32 at out[idx[4g+k]−lo]. windows = 1 selects the
// equal-length body (distScalar's four chains per lane, divided by fls);
// otherwise each lane keeps its minimum raw sum over windows windows of
// short elements, advancing s by sStep bytes and the partners by tStep
// bytes between windows, and blends it with fls, flt and the penalty
// weight c.
//
//go:noescape
func canberraLanesAVX2(s, lanes *float64, l int, idx *int, first, n, lo int, out *float32, short, windows, sStep, tStep int, fls, flt, c float64)

// lanesAVX2 is lanesScalar with the four partners of a group in one
// ymm register, one pair per lane, and the whole run in one call. The
// run starts at the group holding from; lanes before from and the
// padded lanes past the run's end are computed and not stored.
func lanesAVX2(s View, run *laneRun, from, lo int, c float64, out []float32) {
	l, ls := run.l, len(s)
	short, long := min(ls, l), max(ls, l)
	sStep, tStep := 0, 32 // s slides over the partners
	if ls > l {
		sStep, tStep = 8, 0 // the partners slide over s
	}
	g := from &^ 3
	canberraLanesAVX2(&s[0], &run.lanes[g*l], l, &run.idx[g], from-g, len(run.idx)-g, lo, &out[0],
		short, long-short+1, sStep, tStep, float64(short), float64(long), c)
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
		name:      "avx2",
		minWindow: minWindowAVX2,
		lanes:     lanesAVX2,
		available: haveAVX2,
	})
}
