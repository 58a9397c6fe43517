//go:build arm64 && !noasm

package canberra

import "protoclust/internal/vecmath"

// NEON kernel: a mechanical translation of the AVX2 kernel in
// kernel_amd64.s to 2-lane (float64) NEON vectors in kernel_arm64.s,
// under the same bit-identity contract as the scalar kernel (see
// distScalar). Two quirks of the Go arm64 assembler shape the code:
//
//   - The assembler has no plain vector FADD/FSUB/FMUL/FABS
//     mnemonics, so arithmetic is built from fused VFMLA/VFMLS against
//     a broadcast 1.0: a ± 1.0·b rounds exactly once, which IS the
//     IEEE add/subtract, and |x| is a VAND with a sign-bit mask.
//     Accumulation uses VFMLA directly — the same single rounding
//     math.FMA performs.
//   - There is no float64 vector gather, so the two recipSum lookups
//     per vector are scalar indexed loads re-inserted into lanes.
//
// The sliding-window kernel scans two adjacent windows as the two
// lanes, abandoning when both have reached the bound, exactly like
// abandonScalar2. The partner-lane run entry behind LengthBlock.Row is
// the scalar kernel's Go body, lanesScalar.
//
// Validation status: this file and the package's tests cross-compile
// in CI (GOARCH=arm64 go build ./..., go test -c) and are fuzzed via
// the same differential targets as the other kernels whenever the
// tests run on real arm64 hardware; the repo's own CI hosts are
// amd64-only, so on a new arm64
// host run `go test ./internal/canberra/` once (loud failure if the
// translation drifts) or build with -tags noasm to sidestep the asm
// entirely.

// canberraAbandon2NEON accumulates the two sliding windows at offsets
// t[0:] and t[1:] (t pre-offset by the caller) against s, abandoning
// only when both partial sums have reached bound. sums receives the
// two lane sums; an abandoned lane holds a partial ≥ bound, which the
// caller discards.
//
//go:noescape
func canberraAbandon2NEON(s *float64, n int, t *float64, bound float64, sums *[2]float64)

// minWindowNEON mirrors minWindowScalar exactly — same two-window
// steps, same bound updates — with the lane pair scanned in assembly.
func minWindowNEON(s, t View) float64 {
	fls := float64(len(s))
	dmin := 2.0
	bound := dmin * fls
	last := len(t) - len(s)
	off := 0
	var sums [2]float64
	for ; off < last; off += 2 {
		canberraAbandon2NEON(&s[0], len(s), &t[off], bound, &sums)
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
	if off == last {
		if sum := abandonScalar(s, t[off:off+len(s)], bound); sum < bound {
			if d := sum / fls; d < dmin {
				dmin = d
			}
		}
	}
	return dmin
}

func init() {
	register(&kernelImpl{
		name:      "neon",
		minWindow: minWindowNEON,
		lanes:     lanesScalar,
	})
}
