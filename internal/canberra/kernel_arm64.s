//go:build arm64 && !noasm

#include "textflag.h"

// NEON Canberra kernel. See kernel_arm64.go for the translation
// contract. Register conventions:
//
//   R3  = &recipSum[0]
//   V2  = float64 abs mask (sign bit cleared) ×2
//   V3  = 1.0 ×2 — VFMLA/VFMLS against it synthesize exact vector
//         add/subtract (the assembler has no vector FADD/FSUB)
//   V0  = accumulator (both windows)
//
// One Canberra term per lane pair:
//   V16 = |a−b|   (copy a, VFMLS 1.0·b, VAND mask)
//   V17 = a+b     (copy a, VFMLA 1.0·b)
//   V18 = recipSum[int(V17) & 511]  (two scalar indexed loads: the
//         low lane via FMOVD — which zeroes the upper lane — then the
//         high lane re-inserted with VMOV)
//   acc += V16·V18 (VFMLA — the one rounding math.FMA does)

// func canberraAbandon2NEON(s *float64, n int, t *float64, bound float64, sums *[2]float64)
//
// Two adjacent sliding windows as the two lanes: at element i, lane j
// accumulates term(s[i], t[i+j]) — the two t values are contiguous, so
// one unaligned load feeds both lanes and s[i] broadcasts. Each lane
// is one accumulation chain in element order (bit-identical to a solo
// abandonScalar scan). The abandon test runs once per 4 elements and
// stops only when both lanes have reached bound.
TEXT ·canberraAbandon2NEON(SB), NOSPLIT, $0-40
	MOVD s+0(FP), R0
	MOVD n+8(FP), R2
	MOVD t+16(FP), R1
	FMOVD bound+24(FP), F30

	MOVD $·recipSum(SB), R3
	MOVD $0x7FFFFFFFFFFFFFFF, R6
	VMOV R6, V2.D[0]
	VMOV R6, V2.D[1]
	FMOVD $1.0, F3
	VDUP V3.D[0], V3.D2
	VEOR V0.B16, V0.B16, V0.B16

	LSR $2, R2, R10
	CBZ R10, remsetup

grouploop:
	// element i
	FMOVD (R0), F4
	VDUP V4.D[0], V4.D2
	VLD1 (R1), [V5.D2]
	VORR V4.B16, V4.B16, V16.B16
	VFMLS V5.D2, V3.D2, V16.D2
	VAND V2.B16, V16.B16, V16.B16
	VORR V4.B16, V4.B16, V17.B16
	VFMLA V5.D2, V3.D2, V17.D2
	FCVTZSD F17, R6
	AND $511, R6
	FMOVD (R3)(R6<<3), F18
	VDUP V17.D[1], V19.D2
	FCVTZSD F19, R7
	AND $511, R7
	MOVD (R3)(R7<<3), R8
	VMOV R8, V18.D[1]
	VFMLA V18.D2, V16.D2, V0.D2
	ADD $8, R0
	ADD $8, R1

	// element i+1
	FMOVD (R0), F4
	VDUP V4.D[0], V4.D2
	VLD1 (R1), [V5.D2]
	VORR V4.B16, V4.B16, V16.B16
	VFMLS V5.D2, V3.D2, V16.D2
	VAND V2.B16, V16.B16, V16.B16
	VORR V4.B16, V4.B16, V17.B16
	VFMLA V5.D2, V3.D2, V17.D2
	FCVTZSD F17, R6
	AND $511, R6
	FMOVD (R3)(R6<<3), F18
	VDUP V17.D[1], V19.D2
	FCVTZSD F19, R7
	AND $511, R7
	MOVD (R3)(R7<<3), R8
	VMOV R8, V18.D[1]
	VFMLA V18.D2, V16.D2, V0.D2
	ADD $8, R0
	ADD $8, R1

	// element i+2
	FMOVD (R0), F4
	VDUP V4.D[0], V4.D2
	VLD1 (R1), [V5.D2]
	VORR V4.B16, V4.B16, V16.B16
	VFMLS V5.D2, V3.D2, V16.D2
	VAND V2.B16, V16.B16, V16.B16
	VORR V4.B16, V4.B16, V17.B16
	VFMLA V5.D2, V3.D2, V17.D2
	FCVTZSD F17, R6
	AND $511, R6
	FMOVD (R3)(R6<<3), F18
	VDUP V17.D[1], V19.D2
	FCVTZSD F19, R7
	AND $511, R7
	MOVD (R3)(R7<<3), R8
	VMOV R8, V18.D[1]
	VFMLA V18.D2, V16.D2, V0.D2
	ADD $8, R0
	ADD $8, R1

	// element i+3
	FMOVD (R0), F4
	VDUP V4.D[0], V4.D2
	VLD1 (R1), [V5.D2]
	VORR V4.B16, V4.B16, V16.B16
	VFMLS V5.D2, V3.D2, V16.D2
	VAND V2.B16, V16.B16, V16.B16
	VORR V4.B16, V4.B16, V17.B16
	VFMLA V5.D2, V3.D2, V17.D2
	FCVTZSD F17, R6
	AND $511, R6
	FMOVD (R3)(R6<<3), F18
	VDUP V17.D[1], V19.D2
	FCVTZSD F19, R7
	AND $511, R7
	MOVD (R3)(R7<<3), R8
	VMOV R8, V18.D[1]
	VFMLA V18.D2, V16.D2, V0.D2
	ADD $8, R0
	ADD $8, R1

	// abandon when both lanes ≥ bound (values are finite, never NaN)
	FCMPD F30, F0
	BLT keepgoing
	VDUP V0.D[1], V21.D2
	FCMPD F30, F21
	BLT keepgoing
	B store

keepgoing:
	SUBS $1, R10
	BNE grouploop

remsetup:
	AND $3, R2, R11
	CBZ R11, store

remloop:
	FMOVD (R0), F4
	VDUP V4.D[0], V4.D2
	VLD1 (R1), [V5.D2]
	VORR V4.B16, V4.B16, V16.B16
	VFMLS V5.D2, V3.D2, V16.D2
	VAND V2.B16, V16.B16, V16.B16
	VORR V4.B16, V4.B16, V17.B16
	VFMLA V5.D2, V3.D2, V17.D2
	FCVTZSD F17, R6
	AND $511, R6
	FMOVD (R3)(R6<<3), F18
	VDUP V17.D[1], V19.D2
	FCVTZSD F19, R7
	AND $511, R7
	MOVD (R3)(R7<<3), R8
	VMOV R8, V18.D[1]
	VFMLA V18.D2, V16.D2, V0.D2
	ADD $8, R0
	ADD $8, R1
	SUBS $1, R11
	BNE remloop

store:
	MOVD sums+32(FP), R9
	VST1 [V0.D2], (R9)
	RET
