//go:build amd64 && !noasm

#include "textflag.h"

// AVX2 Canberra kernels. Bit-exact translations of the scalar kernels
// in kernel.go — see kernel_amd64.go for the accumulation-order
// contract. The sliding-window kernel and the partner-lane run entry
// (canberraLanesAVX2, which reads a lane-interleaved run and finishes
// each group to float32 in registers) share these register
// conventions:
//
//   BX  = &recipSum[0] (512-entry float64 reciprocal table)
//   Y1  = float64 abs mask (sign bit cleared): 0x7FFFFFFFFFFFFFFF ×4
//   X2  = int32 index mask: 511 ×4
//   Y0  = vector accumulator (4 chains / 4 windows)
//   Y9  = gather completion mask (consumed by VGATHERDPD, reset per use)
//
// One Canberra term per lane:
//   Y4 = a, Y5 = b
//   Y7 = |a−b|        (VSUBPD + VANDPD)
//   X8 = int32(a+b) & 511
//   Y10 = recipSum[X8] (VGATHERDPD)
//   Y0 += Y7·Y10       (VFMADD231PD — the one rounding math.FMA does)
//
// VEX-encoded throughout, scalar steps included: one legacy-SSE
// instruction with the ymm uppers dirty forces an SSE/AVX state
// transition on every call (measured ~20× slowdown).

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func canberraAbandon4AVX2(s *float64, n int, t *float64, bound float64, sums *[4]float64)
//
// Four adjacent sliding windows as four lanes: at element i, lane j
// accumulates term(s[i], t[i+j]) — the four t values are contiguous, so
// one unaligned load feeds all lanes and s[i] broadcasts. Each lane is
// one accumulation chain in element order (bit-identical to a solo
// abandonScalar scan). The abandon test runs once per 4 elements and
// stops only when every lane has reached bound; a lane past bound keeps
// accumulating, which is harmless because sums only grow and the caller
// discards any sum ≥ bound.
TEXT ·canberraAbandon4AVX2(SB), NOSPLIT, $0-40
	MOVQ s+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ t+16(FP), DX

	LEAQ ·recipSum(SB), BX
	VPCMPEQQ Y1, Y1, Y1
	VPSRLQ $1, Y1, Y1
	VPCMPEQD X2, X2, X2
	VPSRLD $23, X2, X2
	VBROADCASTSD bound+24(FP), Y11
	VXORPD Y0, Y0, Y0

	MOVQ CX, R10
	SHRQ $2, R10
	JE remsetup

grouploop:
	// element i
	VBROADCASTSD (SI), Y4
	VMOVUPD (DX), Y5
	VSUBPD Y5, Y4, Y7
	VANDPD Y1, Y7, Y7
	VADDPD Y5, Y4, Y8
	VCVTTPD2DQY Y8, X8
	VPAND X2, X8, X8
	VPCMPEQD Y9, Y9, Y9
	VGATHERDPD Y9, (BX)(X8*8), Y10
	VFMADD231PD Y10, Y7, Y0

	// element i+1
	VBROADCASTSD 8(SI), Y4
	VMOVUPD 8(DX), Y5
	VSUBPD Y5, Y4, Y7
	VANDPD Y1, Y7, Y7
	VADDPD Y5, Y4, Y8
	VCVTTPD2DQY Y8, X8
	VPAND X2, X8, X8
	VPCMPEQD Y9, Y9, Y9
	VGATHERDPD Y9, (BX)(X8*8), Y10
	VFMADD231PD Y10, Y7, Y0

	// element i+2
	VBROADCASTSD 16(SI), Y4
	VMOVUPD 16(DX), Y5
	VSUBPD Y5, Y4, Y7
	VANDPD Y1, Y7, Y7
	VADDPD Y5, Y4, Y8
	VCVTTPD2DQY Y8, X8
	VPAND X2, X8, X8
	VPCMPEQD Y9, Y9, Y9
	VGATHERDPD Y9, (BX)(X8*8), Y10
	VFMADD231PD Y10, Y7, Y0

	// element i+3
	VBROADCASTSD 24(SI), Y4
	VMOVUPD 24(DX), Y5
	VSUBPD Y5, Y4, Y7
	VANDPD Y1, Y7, Y7
	VADDPD Y5, Y4, Y8
	VCVTTPD2DQY Y8, X8
	VPAND X2, X8, X8
	VPCMPEQD Y9, Y9, Y9
	VGATHERDPD Y9, (BX)(X8*8), Y10
	VFMADD231PD Y10, Y7, Y0

	ADDQ $32, SI
	ADDQ $32, DX

	// abandon when all four lanes ≥ bound
	VCMPPD $0x0D, Y11, Y0, Y12
	VMOVMSKPD Y12, AX
	CMPQ AX, $15
	JE store
	DECQ R10
	JNE grouploop

remsetup:
	MOVQ CX, R10
	ANDQ $3, R10
	JE store

remloop:
	VBROADCASTSD (SI), Y4
	VMOVUPD (DX), Y5
	VSUBPD Y5, Y4, Y7
	VANDPD Y1, Y7, Y7
	VADDPD Y5, Y4, Y8
	VCVTTPD2DQY Y8, X8
	VPAND X2, X8, X8
	VPCMPEQD Y9, Y9, Y9
	VGATHERDPD Y9, (BX)(X8*8), Y10
	VFMADD231PD Y10, Y7, Y0
	ADDQ $8, SI
	ADDQ $8, DX
	DECQ R10
	JNE remloop

store:
	MOVQ sums+32(FP), AX
	VMOVUPD Y0, (AX)
	VZEROUPPER
	RET

// LANETERM adds one Canberra term per lane: acc += |sv−tv| ·
// recipSum[int(sv+tv)&511], one rounding (VFMADD231PD). Clobbers Y7–Y10.
#define LANETERM(sv, tv, acc) \
	VSUBPD tv, sv, Y7; \
	VANDPD Y1, Y7, Y7; \
	VADDPD tv, sv, Y8; \
	VCVTTPD2DQY Y8, X8; \
	VPAND X2, X8, X8; \
	VPCMPEQD Y9, Y9, Y9; \
	VGATHERDPD Y9, (BX)(X8*8), Y10; \
	VFMADD231PD Y10, Y7, acc

DATA lanesInf<>+0(SB)/8, $0x7ff0000000000000
GLOBL lanesInf<>(SB), RODATA|NOPTR, $8
DATA lanesOne<>+0(SB)/8, $0x3ff0000000000000
GLOBL lanesOne<>(SB), RODATA|NOPTR, $8

// func canberraLanesAVX2(s, lanes *float64, l int, idx *int, first, n, lo int, out *float32, short, windows, sStep, tStep int, fls, flt, c float64)
//
// The run entry: lanesScalar with one partner per lane. The run is
// lane-interleaved (lanes[(g·l+e)·4+k] is element e of partner 4g+k),
// so a step's four partner elements are one contiguous load and s[e]
// broadcasts; recipSum is still gathered. Per group:
//
//   - windows = 1 (equal lengths): four accumulators Y0, Y3, Y6, Y11
//     are distScalar's chains by element index mod 4, reduced as
//     (s0+s2)+(s1+s3), then the sequential tail; divided by fls.
//   - otherwise: each window is one chain (Y0) over short elements in
//     element order, run to the end; Y3 keeps the lane minimum. Then
//     blend in blend's order: q = sum/fls, dmin = min(q, 2),
//     (fls·dmin + c·(1+dmin))/flt, clamped to 1 with blend's
//     NaN-preserving comparison.
//
// The four results are converted to float32 (VCVTPD2PSY, round to
// nearest even as Go's float32 conversion) and stored to
// out[idx[4g+k]−lo]. Only lanes 4g+k in [first, n) are stored: the
// first group may start before the run suffix and the last one is
// zero-padded.
//
// Registers: SI = s, DX = group base, R11 = group stride (l·32 bytes),
// R12 = &idx[4g], R10 = first lane of this group, R14 = n − 4g,
// R8 = windows; Y12 = 1.0, Y13 = fls, Y14 = flt, Y15 = c.
TEXT ·canberraLanesAVX2(SB), NOSPLIT, $0-120
	MOVQ s+0(FP), SI
	MOVQ lanes+8(FP), DX
	MOVQ l+16(FP), R11
	SHLQ $5, R11
	MOVQ idx+24(FP), R12
	MOVQ first+32(FP), R10
	MOVQ n+40(FP), R14
	MOVQ windows+72(FP), R8

	LEAQ ·recipSum(SB), BX
	VPCMPEQQ Y1, Y1, Y1
	VPSRLQ $1, Y1, Y1
	VPCMPEQD X2, X2, X2
	VPSRLD $23, X2, X2
	VBROADCASTSD lanesOne<>(SB), Y12
	VBROADCASTSD fls+96(FP), Y13
	VBROADCASTSD flt+104(FP), Y14
	VBROADCASTSD c+112(FP), Y15

group:
	CMPQ R8, $1
	JEQ equal

	VBROADCASTSD lanesInf<>(SB), Y3
	MOVQ SI, DI // s at this window
	MOVQ DX, R9 // partners at this window
	MOVQ R8, R13

window:
	MOVQ DI, AX
	MOVQ R9, CX
	MOVQ short+64(FP), R15
	VXORPD Y0, Y0, Y0

welem:
	VBROADCASTSD (AX), Y4
	VMOVUPD (CX), Y5
	LANETERM(Y4, Y5, Y0)
	ADDQ $8, AX
	ADDQ $32, CX
	DECQ R15
	JNE welem

	VMINPD Y0, Y3, Y3
	ADDQ sStep+80(FP), DI
	ADDQ tStep+88(FP), R9
	DECQ R13
	JNE window

	VDIVPD Y13, Y3, Y3    // q = sum / fls
	VADDPD Y12, Y12, Y6   // 2.0
	VMINPD Y6, Y3, Y3     // dmin = q < 2 ? q : 2
	VMULPD Y13, Y3, Y4    // fls·dmin
	VADDPD Y12, Y3, Y5    // 1 + dmin
	VMULPD Y15, Y5, Y5    // c·(1+dmin)
	VADDPD Y5, Y4, Y4
	VDIVPD Y14, Y4, Y4    // dis = (fls·dmin + c·(1+dmin)) / flt
	VMINPD Y4, Y12, Y4    // 1 < dis ? 1 : dis
	JMP quantize

equal:
	VXORPD Y0, Y0, Y0
	VXORPD Y3, Y3, Y3
	VXORPD Y6, Y6, Y6
	VXORPD Y11, Y11, Y11
	MOVQ SI, DI
	MOVQ DX, R9
	MOVQ R11, CX
	SHRQ $7, CX // l/4
	JE ereduce

echain:
	VBROADCASTSD (DI), Y4
	VMOVUPD (R9), Y5
	LANETERM(Y4, Y5, Y0)
	VBROADCASTSD 8(DI), Y4
	VMOVUPD 32(R9), Y5
	LANETERM(Y4, Y5, Y3)
	VBROADCASTSD 16(DI), Y4
	VMOVUPD 64(R9), Y5
	LANETERM(Y4, Y5, Y6)
	VBROADCASTSD 24(DI), Y4
	VMOVUPD 96(R9), Y5
	LANETERM(Y4, Y5, Y11)
	ADDQ $32, DI
	ADDQ $128, R9
	DECQ CX
	JNE echain

ereduce:
	VADDPD Y6, Y0, Y0  // s0 + s2
	VADDPD Y11, Y3, Y3 // s1 + s3
	VADDPD Y3, Y0, Y0
	MOVQ l+16(FP), CX
	ANDQ $3, CX
	JE edone

etail:
	VBROADCASTSD (DI), Y4
	VMOVUPD (R9), Y5
	LANETERM(Y4, Y5, Y0)
	ADDQ $8, DI
	ADDQ $32, R9
	DECQ CX
	JNE etail

edone:
	VDIVPD Y13, Y0, Y4

quantize:
	VCVTPD2PSY Y4, X4
	MOVQ out+56(FP), CX
	TESTQ R10, R10
	JNE partial
	CMPQ R14, $4
	JLT partial
	MOVQ 0(R12), AX
	SUBQ lo+48(FP), AX
	VMOVSS X4, (CX)(AX*4)
	MOVQ 8(R12), AX
	SUBQ lo+48(FP), AX
	VEXTRACTPS $1, X4, (CX)(AX*4)
	MOVQ 16(R12), AX
	SUBQ lo+48(FP), AX
	VEXTRACTPS $2, X4, (CX)(AX*4)
	MOVQ 24(R12), AX
	SUBQ lo+48(FP), AX
	VEXTRACTPS $3, X4, (CX)(AX*4)
	JMP next

partial:
	// Lanes [first, min(4, n−4g)) only, shifting each down to lane 0.
	XORQ R9, R9

plane:
	CMPQ R9, R10
	JLT pskip
	MOVQ (R12)(R9*8), AX
	SUBQ lo+48(FP), AX
	VMOVSS X4, (CX)(AX*4)

pskip:
	VPSRLDQ $4, X4, X4
	INCQ R9
	CMPQ R9, R14
	JGE next
	CMPQ R9, $4
	JLT plane

next:
	XORQ R10, R10
	ADDQ R11, DX
	ADDQ $32, R12
	SUBQ $4, R14
	JG group

	VZEROUPPER
	RET
